"""Where the traced run records spans, and the per-layer metrics it
derives from them.

Every probe wraps a public function of one of the repo's layers
(``server``, ``pml``, ``cache``, ``llm``, ``reuse``, ``tokenizer``); the
span name's prefix is the layer. A few module globals are wrapped where
a layer calls another through a name it imported (``self_attention`` in
``repro.llm.models``, ``parse_prompt`` in the runtime and the engine),
because that is the call the layer makes.

The serving layers are reported over the measured window alone: module
encoding at set-up runs the same ``llm``, ``tokenizer`` and ``cache``
calls as serving does, and on rag-long would bury the serving path under
seconds of set-up. Set-up is reported by the ``setup.*`` metrics and
``tokenizer.train_s``, from the spans that start before the window.
"""

from __future__ import annotations

import statistics
import weakref
from collections import deque

from repro.cache import engine as cache_engine
from repro.cache.engine import PromptCache, ServeStream
from repro.cache.storage import ModuleCacheStore
from repro.llm import attention as llm_attention
from repro.llm import models as llm_models
from repro.llm.flops import decode_step_flops, layer_flops, lm_head_flops
from repro.reuse.miner import ReuseMiner
from repro.server import runtime as server_runtime
from repro.server.scheduler import ContinuousScheduler
from repro.tokenizer import default as tokenizer_default
from repro.tokenizer.bpe import BPETokenizer

from servebench.tracing import (
    Instrumentation,
    Probe,
    SpanRecorder,
    layer_self_times,
    self_times,
    union_length,
    uncovered_length,
)

LAYERS = ("server", "pml", "cache", "llm", "reuse", "tokenizer", "setup")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Probes:
    """The probe set plus what its hooks count. Hooks only append to
    lists (atomic under the interpreter lock) or run on the one engine
    thread, so the loop and engine threads may both call wrapped code."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.window_start = float("-inf")  # spans from here on are serving
        self.forward_shapes: list[tuple[int, int]] = []  # (new tokens, context)
        self.decode_contexts: list[list[int]] = []  # per batched step
        self.decode_batches: list[int] = []  # IterationOutcome.decode_batch
        # Request ids of the admissions the running iteration will open,
        # in order, and each opened stream's request id.
        self._admitting: deque[str] = deque()
        self._stream_rid: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self) -> Instrumentation:
        admit = self._admit
        opened = self._opened
        return Instrumentation(self.recorder, [
            Probe(ContinuousScheduler, "iterate", "server.iterate",
                  before=admit, after=self._iterated),
            Probe(server_runtime, "parse_prompt", "pml.parse"),
            Probe(cache_engine, "parse_prompt", "pml.parse"),
            Probe(PromptCache, "open_stream", "cache.open_stream",
                  rid_of=self._next_admission, after=opened),
            Probe(PromptCache, "open_text_stream", "cache.open_stream",
                  rid_of=self._next_admission, after=opened),
            Probe(ServeStream, "prefill_step", "cache.prefill_step",
                  rid_of=lambda args, kwargs: self._stream_rid.get(args[0])),
            Probe(ModuleCacheStore, "fetch", "cache.store_fetch"),
            Probe(llm_models.TransformerModel, "forward", "llm.forward",
                  after=self._forwarded),
            Probe(llm_models.TransformerModel, "forward_decode_batch", "llm.decode",
                  after=self._decoded),
            Probe(llm_models, "self_attention", "llm.prefill_attention"),
            Probe(llm_models, "decode_attention_batch", "llm.decode_attention"),
            Probe(llm_attention, "chunk_phase", "llm.shared_attention"),
            Probe(llm_attention, "merge_online_softmax", "llm.shared_attention"),
            Probe(llm_models, "swiglu_mlp", "llm.mlp"),
            Probe(llm_models, "gelu_mlp", "llm.mlp"),
            Probe(llm_models, "rms_norm", "llm.norm"),
            Probe(llm_models, "layer_norm", "llm.norm"),
            Probe(ReuseMiner, "observe", "reuse.observe"),
            Probe(PromptCache, "register_discovered_module", "reuse.promote"),
            Probe(BPETokenizer, "encode", "tokenizer.encode"),
            Probe(tokenizer_default, "train_bpe", "tokenizer.train"),
            Probe(PromptCache, "register_schema", "setup.register"),
        ])

    def open_window(self) -> None:
        """Mark the end of set-up: spans and counts from here on are the
        serving path's."""
        self.window_start = self.recorder.clock()
        self.forward_shapes.clear()
        self.decode_contexts.clear()
        self.decode_batches.clear()

    # -- hooks -------------------------------------------------------------------

    def _admit(self, args, kwargs) -> None:
        self._admitting.clear()
        self._admitting.extend(r.request_id for r in _arg(args, kwargs, 1, "admissions"))

    def _next_admission(self, args, kwargs) -> str | None:
        return self._admitting.popleft() if self._admitting else None

    def _opened(self, span, args, kwargs, stream) -> None:
        self._stream_rid[stream] = span.rid

    def _iterated(self, span, args, kwargs, outcome) -> None:
        self.decode_batches.append(outcome.decode_batch)

    def _forwarded(self, span, args, kwargs, logits) -> None:
        new = len(_arg(args, kwargs, 1, "token_ids"))
        self.forward_shapes.append((new, len(_arg(args, kwargs, 3, "cache"))))

    def _decoded(self, span, args, kwargs, logits) -> None:
        self.decode_contexts.append([len(c) for c in _arg(args, kwargs, 3, "caches")])


def layer_metrics(probes: Probes, config, requests, server, lateness_s: list[float]) -> dict:
    """Per-layer figures of one traced run, by metric name: the serving
    layers over the measured window, set-up over the spans before it."""
    setup = [s for s in probes.recorder.spans if s.start < probes.window_start]
    spans = [s for s in probes.recorder.spans if s.start >= probes.window_start]
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_total: dict[str, float] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        self_total[span.name] = self_total.get(span.name, 0.0) + own[span.sid]
    setup_total: dict[str, float] = {}
    for span in setup:
        setup_total[span.name] = setup_total.get(span.name, 0.0) + span.duration
    done = [r for r in requests if r.outcome == "completed"]
    results = [r.live.result for r in done]
    waits = [t.queue_wait_s for t in server.trace_log if t.state == "done"]
    plan = server.pc.plan_cache_stats()
    base_lookups = plan.base_hits + plan.base_misses
    prompt_tokens = sum(r.prompt_tokens for r in results)
    batches = [b for b in probes.decode_batches if b]
    iterate = [(s.start, s.end) for s in spans if s.name == "server.iterate"]
    inflight = [(r.live.started_at, r.live.finished_at) for r in done]
    prefill_flops = sum(
        config.n_layers * layer_flops(config, new, context) + new * lm_head_flops(config)
        for new, context in probes.forward_shapes
    )
    decode_flops = sum(
        decode_step_flops(config, context)
        for step in probes.decode_contexts
        for context in step
    )
    decode_s = total.get("llm.decode", 0.0)
    layers = layer_self_times(spans)
    layers["setup"] = layer_self_times(setup).get("setup", 0.0)

    metrics = {
        "server.queue_wait_p50_ms": (statistics.median(waits) * 1e3, "ms"),
        "server.iterate_s": (total.get("server.iterate", 0.0), "s"),
        "server.iterate_self_s": (self_total.get("server.iterate", 0.0), "s"),
        "server.decode_batch_mean": (statistics.fmean(batches) if batches else 0.0, "count"),
        "server.handoff_s": (uncovered_length(inflight, iterate), "s"),
        "pml.parse_s": (total.get("pml.parse", 0.0), "s"),
        "pml.parse_calls": (calls.get("pml.parse", 0), "count"),
        "cache.open_stream_s": (total.get("cache.open_stream", 0.0), "s"),
        "cache.plan_hit_rate": (plan.hit_rate, "ratio"),
        "cache.store_fetch_s": (total.get("cache.store_fetch", 0.0), "s"),
        "cache.splice_s": (sum(r.splice_s for r in results), "s"),
        "cache.base_hit_rate": (plan.base_hits / base_lookups if base_lookups else 0.0, "ratio"),
        "cache.prefill_step_s": (total.get("cache.prefill_step", 0.0), "s"),
        "cache.cached_token_share": (
            sum(r.cached_tokens for r in results) / prompt_tokens if prompt_tokens else 0.0,
            "ratio",
        ),
        "llm.prefill_s": (total.get("llm.forward", 0.0), "s"),
        "llm.prefill_tokens": (sum(new for new, _ in probes.forward_shapes), "count"),
        "llm.prefill_attention_s": (total.get("llm.prefill_attention", 0.0), "s"),
        "llm.decode_s": (decode_s, "s"),
        "llm.decode_rows": (sum(len(step) for step in probes.decode_contexts), "count"),
        "llm.decode_attention_s": (total.get("llm.decode_attention", 0.0), "s"),
        "llm.shared_attention_s": (total.get("llm.shared_attention", 0.0), "s"),
        "llm.mlp_s": (total.get("llm.mlp", 0.0), "s"),
        "llm.norm_s": (total.get("llm.norm", 0.0), "s"),
        "llm.prefill_gflop_pred": (prefill_flops / 1e9, "GFLOP"),
        "llm.decode_gflop_pred": (decode_flops / 1e9, "GFLOP"),
        "llm.decode_gflop_s": (decode_flops / 1e9 / decode_s if decode_s else 0.0, "GFLOP/s"),
        "reuse.observe_s": (total.get("reuse.observe", 0.0), "s"),
        "reuse.promote_s": (total.get("reuse.promote", 0.0), "s"),
        "tokenizer.encode_s": (total.get("tokenizer.encode", 0.0), "s"),
        "tokenizer.encode_calls": (calls.get("tokenizer.encode", 0), "count"),
        "tokenizer.train_s": (setup_total.get("tokenizer.train", 0.0), "s"),
        "setup.register_s": (setup_total.get("setup.register", 0.0), "s"),
        "setup.model_s": (setup_total.get("setup.model", 0.0), "s"),
        "loadgen.lateness_max_ms": (max(lateness_s) * 1e3, "ms"),
        "trace.ttft_span_share": (_ttft_span_share(spans, done), "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    return metrics


def _ttft_span_share(spans, done) -> float:
    """Median over requests of the share of TTFT that the request's own
    ``cache`` and ``llm`` spans cover: how much of the wait for the first
    token is work done for that request rather than queueing behind
    others."""
    own: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.rid is not None and span.layer in ("cache", "llm"):
            own.setdefault(span.rid, []).append((span.start, span.end))
    shares = []
    for request in done:
        first = request.live.first_token_at
        intervals = [
            (max(start, request.due), min(end, first))
            for start, end in own.get(request.rid, ())
            if end > request.due and start < first
        ]
        shares.append(union_length(intervals) / (first - request.due))
    return statistics.median(shares) if shares else 0.0
