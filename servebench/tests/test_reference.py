"""The reference check: it passes on what Prompt Cache serves and fails
on a planted wrong token and on a shifted position."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cache.engine import PromptCache
from repro.tokenizer.bpe import train_bpe

from servebench.driver import build_model
from servebench.reference import Reference, check, first_difference
from servebench.workloads import Request, modular_plan, union_schema

TEXTS = [
    "the quick brown fox jumps over the lazy dog " * 4,
    "miami beaches nightlife surf spots art deco " * 4,
    "paris museums cafes architecture louvre seine " * 4,
    "plan a trip lasting three days focus on food " * 4,
]
UNIONS = [
    {"a0": "the quick brown fox jumps over the lazy dog", "a1": "paris museums cafes"},
    {"b0": "miami beaches nightlife surf spots", "b1": "plan a trip lasting three days focus on food"},
]
BUDGET = 12


@pytest.fixture(scope="module")
def served():
    tokenizer = train_bpe(TEXTS, vocab_size=300)
    model = build_model(tokenizer)
    pc = PromptCache(model, tokenizer)
    pc.register_schema(union_schema("rag", UNIONS))
    requests = []
    for i, picks in enumerate([("a0", "b0"), ("a1", "b1"), ("a0", "b1"), ("a1", "b0")]):
        suffix = " answer the question"
        imports = "".join(f"<{name}/>" for name in picks)
        request = Request(
            rid=f"r{i}",
            text=f'<prompt schema="rag">{imports}{suffix}</prompt>',
            max_new_tokens=BUDGET,
            modules=picks,
            suffix=suffix,
            outcome="completed",
        )
        result = pc.serve(request.text, max_new_tokens=BUDGET)
        request.live = SimpleNamespace(result=result)
        requests.append(request)
    return model, tokenizer, requests


def _plan(tokenizer):
    return lambda r: modular_plan(UNIONS, r.modules, r.suffix, tokenizer)


def test_served_outputs_equal_the_modular_reference(served):
    model, tokenizer, requests = served
    assert check(requests, _plan(tokenizer), Reference(model)) == []


def test_planted_wrong_token_is_named_with_its_request(served):
    model, tokenizer, requests = served
    bad = requests[2]
    original = bad.live
    wrong = list(original.result.output_ids)
    wrong[5] = (wrong[5] + 1) % tokenizer.vocab_size
    bad.live = SimpleNamespace(result=SimpleNamespace(output_ids=wrong))
    try:
        problems = check(requests, _plan(tokenizer), Reference(model))
    finally:
        bad.live = original
    assert len(problems) == 1
    assert problems[0].startswith("r2: output token 5 is ")


def test_shifted_position_makes_the_check_fail(served):
    model, tokenizer, requests = served

    def shifted(request):
        plan = modular_plan(UNIONS, request.modules, request.suffix, tokenizer)
        (a, b) = plan.modules
        return replace(plan, modules=(a, (b[0], b[1], b[2] + 3)))

    problems = check(requests, shifted, Reference(model))
    assert problems, "a module encoded three positions off went unnoticed"
    assert all(p.split(":")[0] in {r.rid for r in requests} for p in problems)


def test_full_prefill_reference_for_a_single_leading_module(served):
    model, tokenizer, _ = served
    pc = PromptCache(model, tokenizer)
    pc.register_schema('<schema name="chat"><module name="m">paris museums cafes</module></schema>')
    result = pc.serve('<prompt schema="chat"><m/> plan a trip</prompt>', max_new_tokens=BUDGET)
    ids = tokenizer.encode("paris museums cafes") + tokenizer.encode(" plan a trip")
    assert result.output_ids == Reference(model).outputs(ids, BUDGET)


def test_first_difference():
    assert first_difference([1, 2, 3], [1, 2, 3]) is None
    assert first_difference([1, 9, 3], [1, 2, 3]) == 1
    assert first_difference([1, 2], [1, 2, 3]) == 2
