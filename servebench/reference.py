"""Reference outputs computed without Prompt Cache, and the check
against them.

The reference uses :class:`repro.llm.models.TransformerModel` and
:mod:`repro.llm.generation` alone: no splice, no module store, no plan
cache, no scheduler. Two forms:

- a list of token ids is a full prefill (``generate``). Prompt Cache is
  exact for a single leading module and for discovered exact prefixes,
  so chat-decode and raw-discovery must equal it;
- a :class:`~workloads.ModularPlan` prefills each module alone at its
  schema positions, copies their keys and values into one cache, then
  prefills the suffix and decodes: the masked-attention computation
  that cached inference equals (paper §3.3). Agreement with a full
  prefill is not a property of the method and is not checked.
"""

from __future__ import annotations

import numpy as np

from repro.llm.generation import decode_loop, generate

from servebench.workloads import ModularPlan


class Reference:
    """Greedy reference outputs for one model; module prefills are kept
    so each module is encoded once however many prompts import it."""

    def __init__(self, model) -> None:
        self.model = model
        self._modules: dict[tuple[str, int], object] = {}

    def outputs(self, plan, max_new_tokens: int) -> list[int]:
        if isinstance(plan, ModularPlan):
            return self._modular(plan, max_new_tokens)
        return list(generate(self.model, list(plan), max_new_tokens=max_new_tokens).output_ids)

    def _module(self, name: str, ids: tuple[int, ...], start: int):
        key = (name, start)
        if key not in self._modules:
            cache = self.model.new_cache(capacity=len(ids))
            self.model.forward(
                np.asarray(ids, dtype=np.int64),
                np.arange(start, start + len(ids), dtype=np.int64),
                cache,
            )
            self._modules[key] = cache
        return self._modules[key]

    def _modular(self, plan: ModularPlan, max_new_tokens: int) -> list[int]:
        size = sum(len(ids) for _, ids, _ in plan.modules) + len(plan.suffix)
        cache = self.model.new_cache(capacity=size + max_new_tokens)
        for name, ids, start in plan.modules:
            module = self._module(name, ids, start)
            for mine, theirs in zip(cache.layers, module.layers):
                mine.append(theirs.keys, theirs.values, theirs.positions)
        start = plan.suffix_start
        logits = self.model.forward(
            np.asarray(plan.suffix, dtype=np.int64),
            np.arange(start, start + len(plan.suffix), dtype=np.int64),
            cache,
        )[-1]
        tokens, _ = decode_loop(
            self.model, cache, logits,
            max_new_tokens=max_new_tokens,
            next_position=plan.next_position,
        )
        return tokens


def first_difference(served: list[int], expected: list[int]) -> int | None:
    """Index of the first differing token, or None when equal."""
    for i, (a, b) in enumerate(zip(served, expected)):
        if a != b:
            return i
    if len(served) != len(expected):
        return min(len(served), len(expected))
    return None


def check(requests, plan_of, reference: Reference) -> list[str]:
    """Compare every completed request's output with the reference.

    ``plan_of(request)`` gives the reference plan. Requests with the same
    prompt share one reference run at their largest budget: greedy
    decoding without stop tokens makes a shorter answer a prefix of a
    longer one. Returns one message per mismatch, naming the request and
    the first differing token."""
    groups: dict[str, list] = {}
    for request in requests:
        if request.outcome == "completed":
            groups.setdefault(request.text, []).append(request)
    problems = []
    for members in groups.values():
        budget = max(r.max_new_tokens for r in members)
        expected = reference.outputs(plan_of(members[0]), budget)
        for request in members:
            want = expected[: request.max_new_tokens]
            got = request.output_ids
            index = first_difference(got, want)
            if index is not None:
                problems.append(
                    f"{request.rid}: output token {index} is "
                    f"{got[index] if index < len(got) else 'missing'}, "
                    f"reference {want[index] if index < len(want) else 'missing'}"
                )
    return problems
