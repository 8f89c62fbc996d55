"""Reference figures for rag-long: cached TTFT next to a full prefill of
the same prompts, and next to the ``repro.hw.latency`` prediction for a
device model calibrated on this host.

Requests are served one at a time (no queueing), so the figures are the
engine's own TTFT: splice plus suffix prefill for Prompt Cache, a full
prefill for the baseline. Run from the root of a checkout::

    python3 servebench/figures.py --seed 1
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1])]

from servebench.run import _prepare_imports  # noqa: E402 - importable only once the root is on the path

REQUESTS = 12  # rag-long prompts served, one at a time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    _prepare_imports()

    from repro.cache.engine import PromptCache
    from repro.hw.calibrate import calibrate_host
    from repro.hw.latency import baseline_ttft, cached_ttft
    from repro.tokenizer import default_tokenizer

    from servebench.driver import build_model
    from servebench.workloads import RagLong

    tokenizer = default_tokenizer()
    model = build_model(tokenizer)
    workload = RagLong(args.seed, REQUESTS / RagLong.RATE)
    pc = PromptCache(model, tokenizer)
    workload.prepare(pc)
    device = calibrate_host().spec
    rows = []
    for request in workload.requests()[: REQUESTS]:
        served = pc.serve(request.text, max_new_tokens=1)
        full = pc.baseline(request.text, max_new_tokens=1)
        total = served.prompt_tokens
        rows.append((
            served.ttft_s,
            full.ttft_s,
            cached_ttft(model.config, total, served.uncached_tokens, device, "cpu").total_s,
            baseline_ttft(model.config, total, device).total_s,
            total,
        ))
    cached, full, cached_pred, full_pred, tokens = (
        statistics.median(column) for column in zip(*rows)
    )
    print(f"rag-long seed {args.seed}, {len(rows)} requests served alone, "
          f"median prompt {tokens:.0f} tokens")
    print(f"  cached TTFT     measured {cached * 1e3:8.1f} ms   predicted {cached_pred * 1e3:8.1f} ms")
    print(f"  full prefill    measured {full * 1e3:8.1f} ms   predicted {full_pred * 1e3:8.1f} ms")
    print(f"  speed-up        measured {full / cached:8.1f}x     predicted {full_pred / cached_pred:8.1f}x")


if __name__ == "__main__":
    main()
