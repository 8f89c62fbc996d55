"""End-to-end serving benchmark: TTFT, TPOT, tokens/s, set-up time and
peak memory on three workloads, with per-layer timings from a traced run.

Run from the root of a checkout::

    python3 servebench/run.py --workload rag-long --seed 1 --seconds 15 --trace 0
    python3 servebench/run.py --workload all --seed 1
    python3 servebench/run.py --workload chat-decode --repeat 10

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload once untraced and once with spans
recorded around calls into every layer, and reports the per-layer
metrics (the spans go to ``.servebench/``). Every completed request is
checked against a reference computed without Prompt Cache; a mismatch
exits 1. The last line of standard output is one JSON object.
``--repeat N`` runs each workload in two sets of N processes on distinct
seeds and prints each metric's median and quartiles per set, and whether
the sets agree within the bounds in ``BENCHMARK.json``, whichever set is
taken first.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # set-up time counts from here, imports included

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# One BLAS thread: with the event loop on the main thread and the engine
# on one executor thread, the process uses no more threads than a 2-core
# host has.
BLAS_THREADS = "1"
SETUPS = 5  # set-ups per untraced run; setup_s reports their median
TRACE_DIR = ROOT / ".servebench"
SPEC = ROOT / "BENCHMARK.json"


def _prepare_imports() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, imports_s: float
) -> tuple[dict, list[str]]:
    """One workload in this process; returns (result line, mismatches).
    ``imports_s`` is the process's import time, counted into ``setup_s``."""
    import asyncio

    return asyncio.run(_run(name, seed, seconds, trace, imports_s))


async def _run(name: str, seed: int, seconds: float, trace: bool, imports_s: float):
    import asyncio
    import statistics
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from servebench import driver
    from servebench.probes import Probes, layer_metrics
    from servebench.reference import Reference, check
    from servebench.tracing import SpanRecorder
    from servebench.workloads import WORKLOADS

    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=1, thread_name_prefix="engine")
    )
    workload = WORKLOADS[name](seed, seconds)
    server, setups = await driver.timed_setups(workload, 1 if trace else SETUPS)
    plain = await driver.drive(workload, server, seconds)
    rss = driver.peak_rss_mb()
    await server.stop()
    metrics = driver.serving_metrics(workload, plain)
    metrics["setup_s"] = (imports_s + statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    windows = [(workload, plain)]

    if trace:
        traced_workload = WORKLOADS[name](seed, seconds)
        probes = Probes(SpanRecorder(clock=driver.CLOCK))
        with probes.install():
            server = await driver.build_server(traced_workload, probes.recorder)
            probes.open_window()
            traced = await driver.drive(traced_workload, server, seconds)
            await server.stop()
        windows.append((traced_workload, traced))
        untraced = metrics
        metrics = layer_metrics(
            probes, server.pc.model.config, traced.requests, server, traced.lateness_s
        )
        with_trace = driver.serving_metrics(traced_workload, traced)
        for key in ("ttft_p50_ms", "tpot_p50_ms"):
            metrics[f"trace.{key}_overhead_ms"] = (with_trace[key][0] - untraced[key][0], "ms")
        metrics["trace.output_tok_s_overhead"] = (
            untraced["output_tok_s"][0] - with_trace["output_tok_s"][0], "tokens/s"
        )
        TRACE_DIR.mkdir(exist_ok=True)
        probes.recorder.write_chrome_trace(TRACE_DIR / f"{name}-seed{seed}.json")

    checked_at = time.monotonic()
    reference = Reference(server.pc.model)
    tokenizer = server.pc.tokenizer
    problems = []
    for each, window in windows:
        problems += check(
            window.requests, lambda r, w=each: w.reference_plan(r, tokenizer), reference
        )
    counts = driver.accounting(plain)
    _report(name, seed, seconds, counts, metrics, problems)
    outputs = {tuple(r.output_ids) for r in plain.requests if r.outcome == "completed"}
    print(
        f"{len(outputs)} distinct outputs; "
        f"set-ups {', '.join(f'{t:.2f}' for t in setups)} s; imports {imports_s:.2f} s; "
        f"reference check {time.monotonic() - checked_at:.1f} s; "
        f"threads {threading.active_count()} Python, {driver.os_threads()} in all"
    )
    line = {
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["attempted"] - counts["completed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, problems


def _report(name, seed, seconds, counts, metrics, problems) -> None:
    print(f"workload {name}  seed {seed}  seconds {seconds:g}")
    print(
        "requests: "
        + "  ".join(f"{k} {counts[k]}" for k in ("attempted", "completed", "failed", "shed", "expired"))
        + f"  failure reasons {counts['reasons'] or 'none'}"
    )
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:14.4f} {unit}")
    print(f"reference check: {len(problems)} mismatches")
    for problem in problems[:20]:
        print(f"  MISMATCH {problem}")


def repeat(names: list[str], runs: int, seed: int, seconds: float) -> int:
    """Two sets of ``runs`` processes per workload on distinct seeds; prints
    median and quartiles per set and whether the sets agree."""
    from servebench import stats

    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    agree = True
    for name in names:
        sets = []
        for first in (seed, seed + runs):
            values: dict[str, list[float]] = {}
            failed_share = set()
            for s in range(first, first + runs):
                out = subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(s),
                     "--seconds", f"{seconds:g}", "--trace", "0"],
                    capture_output=True, text=True, timeout=600, cwd=ROOT,
                )
                if out.returncode != 0:
                    print(out.stdout[-2000:], out.stderr[-2000:])
                    print(f"{name} seed {s}: exit {out.returncode}")
                    return 1
                line = json.loads(out.stdout.strip().splitlines()[-1])
                failed_share.add(line["failed"] / line["attempted"])
                for key, metric in line["metrics"].items():
                    values.setdefault(key, []).append(metric["value"])
            sets.append((values, failed_share))
        print(f"{name}: {runs} runs per set, failed share {[sorted(f) for _, f in sets]}")
        for key, spec_metric in bounds.items():
            bound, better = spec_metric["bound"], spec_metric["better"]
            row = []
            for values, _ in sets:
                q1, median, q3 = stats.quartiles(values[key])
                row.append((q1, median, q3, stats.spread(values[key])))
            change = stats.worse_by(row[0][1], row[1][1], better)
            apart = stats.apart(row[0][1], row[1][1], better)
            # setup_s is held to the agreement of its medians alone: its
            # spread follows the host's speed from run to run, which a
            # median of set-ups within one run cannot remove.
            ok = apart <= bound and (
                key == "setup_s" or all(spread <= bound for *_, spread in row)
            )
            agree &= ok
            cells = "  ".join(
                f"median {m:10.3f} [{q1:.3f}, {q3:.3f}] spread {sp:6.1%}"
                for q1, m, q3, sp in row
            )
            print(f"  {key:14s} {cells}  change {change:+6.1%}  apart {apart:6.1%}  "
                  f"bound {bound:.0%}  {'ok' if ok else 'OUTSIDE'}")
        agree &= len({share for _, shares in sets for share in shares}) == 1
    return 0 if agree else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="chat-decode, rag-long, raw-discovery or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per set in the two-set agreement check")
    args = parser.parse_args()
    _prepare_imports()
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    from servebench import driver, probes, reference  # noqa: F401 — every import a run makes, timed here
    from servebench.workloads import WORKLOADS

    imports_s = time.monotonic() - STARTED
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all")
    if args.repeat:
        return repeat(names, args.repeat, args.seed, args.seconds)
    status = 0
    for name in names:
        line, problems = run_workload(name, args.seed, args.seconds, bool(args.trace), imports_s)
        print(json.dumps(line), flush=True)
        status |= 1 if problems else 0
    return status


if __name__ == "__main__":
    sys.exit(main())
