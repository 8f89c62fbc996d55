"""Set the server up, drive one workload through it, and measure.

The server is :class:`repro.server.LiveServer` in its continuous
(iteration-level) mode over a default :class:`repro.cache.PromptCache`
on the ``small_config`` llama model. The engine runs on a one-thread
executor; clients are coroutines on the same event loop.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.cache.engine import PromptCache
from repro.llm import small_config
from repro.llm.models import TransformerModel
from repro.llm.weights import init_params
from repro.server import LiveServer, ServeOptions
from repro.server.errors import DeadlineExceeded, Overloaded
from repro.tokenizer import default_tokenizer

from servebench import stats

CLOCK = time.monotonic  # LiveServer's default clock: every timestamp shares it

# A randomly initialised model at the default scale (normal(0, 0.02))
# answers from its last token alone: its attention is near uniform and too
# weak to move the residual stream, so its greedy output ignores the cached
# context and an output check could not see a wrong splice or position.
# These factors make the scores sharp and the attention output comparable
# to the embedding. Shapes, and so the cost of every operation, are those
# of small_config.
ATTENTION_SCALE = {"wq": 4.0, "wk": 4.0, "wv": 4.0, "wo": 20.0}


def build_model(tokenizer) -> TransformerModel:
    """The ``small_config`` llama model over the tokenizer's vocabulary
    (so every token it can emit decodes), seeded, attention rescaled."""
    config = small_config("llama", vocab_size=tokenizer.vocab_size)
    params = init_params(config, seed=0)
    for i in range(config.n_layers):
        for name, factor in ATTENTION_SCALE.items():
            params[f"layers.{i}.attn.{name}"] *= factor
    return TransformerModel(config, params)


async def build_server(workload, recorder=None) -> LiveServer:
    """Everything between imports and the first request the server can
    accept: BPE training, model build, schema registration (module
    encoding) or discovery, and server start."""
    default_tokenizer.cache_clear()  # train afresh, as a new process would
    tokenizer = default_tokenizer()
    span = recorder.begin("setup.model") if recorder is not None else None
    model = build_model(tokenizer)
    if span is not None:
        recorder.end(span)
    pc = PromptCache(model, tokenizer)
    workload.prepare(pc)
    return await LiveServer(pc, ServeOptions(**workload.options)).start()


async def timed_setups(workload, count: int) -> tuple[LiveServer, list[float]]:
    """Set up ``count`` times; returns the last server and every set-up
    time. Earlier servers are stopped and released first."""
    server = None
    times = []
    for _ in range(count):
        if server is not None:
            await server.stop()
            server = None
            gc.collect()
        start = CLOCK()
        server = await build_server(workload)
        times.append(CLOCK() - start)
    return server, times


@dataclass
class Window:
    """One measured window: every request sent and how late the load
    generator ran."""

    requests: list = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)


async def _serve_one(server: LiveServer, request) -> None:
    submit = server.submit_text if request.raw else server.submit
    try:
        request.live = await submit(
            request.text,
            max_new_tokens=request.max_new_tokens,
            request_id=request.rid,
        )
    except Overloaded:
        request.outcome, request.error = "shed", "Overloaded"
        return
    except Exception as exc:  # a rejection: record its type, keep the load running
        request.outcome, request.error = "failed", type(exc).__name__
        return
    try:
        await request.live.wait()
    except DeadlineExceeded:
        request.outcome, request.error = "expired", "DeadlineExceeded"
    except Exception as exc:  # an engine failure: record its type
        request.outcome, request.error = "failed", type(exc).__name__
    else:
        request.outcome = "completed"


async def drive(workload, server: LiveServer, seconds: float) -> Window:
    if workload.loop == "closed":
        return await _closed_loop(workload, server, seconds)
    return await _open_loop(workload, server)


async def _open_loop(workload, server: LiveServer) -> Window:
    """Send each request when it is due, whatever is still in flight."""
    window = Window()
    tasks = []
    start = CLOCK()
    for request in workload.requests():
        request.due = start + request.offset_s
        delay = request.due - CLOCK()
        if delay > 0:
            await asyncio.sleep(delay)
        window.lateness_s.append(max(CLOCK() - request.due, 0.0))
        window.requests.append(request)
        tasks.append(asyncio.create_task(_serve_one(server, request)))
    await asyncio.gather(*tasks)
    return window


async def _closed_loop(workload, server: LiveServer, seconds: float) -> Window:
    """Each client sends its first request at its start offset and its
    next once its previous one is done, until the window closes. Lateness
    is the gap between a request's completion on the engine and its
    client's next send."""
    window = Window()
    start = CLOCK()
    end = start + seconds

    async def client(index: int) -> None:
        k = 0
        previous = None
        await asyncio.sleep(start + workload.start_offset(index) - CLOCK())
        while CLOCK() < end:
            request = workload.client_request(index, k)
            k += 1
            request.due = CLOCK()
            if previous is not None and previous.live is not None:
                window.lateness_s.append(max(request.due - previous.live.finished_at, 0.0))
            window.requests.append(request)
            await _serve_one(server, request)
            previous = request

    await asyncio.gather(*(client(i) for i in range(workload.CLIENTS)))
    return window


def latency_samples(window: Window) -> tuple[list[float], list[float], int, float]:
    """(TTFT samples, TPOT samples, output tokens, wall seconds) over the
    completed requests. TTFT runs from when a request was due; TPOT is
    (last token - first token) / (output tokens - 1); the wall time runs
    from the first request due to the last request done."""
    done = [r for r in window.requests if r.outcome == "completed"]
    if not done:
        raise RuntimeError("no request completed")
    ttft = [r.live.first_token_at - r.due for r in done]
    tpot = [
        (r.live.last_token_at - r.live.first_token_at) / (len(r.output_ids) - 1)
        for r in done
        if len(r.output_ids) > 1
    ]
    tokens = sum(len(r.output_ids) for r in done)
    wall = max(r.live.finished_at for r in done) - min(r.due for r in window.requests)
    return ttft, tpot, tokens, wall


def serving_metrics(workload, window: Window) -> dict[str, tuple[float, str]]:
    ttft, tpot, tokens, wall = latency_samples(window)
    return {
        "ttft_p50_ms": (statistics.median(ttft) * 1e3, "ms"),
        "ttft_tail_ms": (stats.tail(ttft, workload.tail_pct) * 1e3, "ms"),
        "tpot_p50_ms": (statistics.median(tpot) * 1e3, "ms"),
        "tpot_tail_ms": (stats.tail(tpot, workload.tail_pct) * 1e3, "ms"),
        "output_tok_s": (tokens / wall, "tokens/s"),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def os_threads() -> int:
    """Threads of this process, native ones (BLAS) included."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def accounting(window: Window) -> dict:
    """Requests attempted, completed, failed, shed and expired, with the
    failure reasons by exception type."""
    outcomes = Counter(r.outcome for r in window.requests)
    return {
        "attempted": len(window.requests),
        "completed": outcomes["completed"],
        "failed": outcomes["failed"],
        "shed": outcomes["shed"],
        "expired": outcomes["expired"],
        "reasons": dict(Counter(r.error for r in window.requests if r.error)),
    }
