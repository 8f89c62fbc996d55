"""The three serving workloads: their inputs, made from a seed, and the
server settings each runs under.

Every workload keeps its shape fixed across seeds (module lengths,
popularity ranks, output budgets, request counts); the seed picks the
words, the questions, the draws and the arrival times. So two seeds give
different inputs with the same statistical make-up, and a figure moves
between seeds by sampling noise, not by a different workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.corpus import ADJECTIVES, ATTRIBUTES, ENTITIES, NOUNS, VALUES, VERBS

# Closed word banks the default tokenizer was trained on: one token a word.
WORDS = np.asarray(ADJECTIVES + NOUNS + VERBS + ENTITIES + ATTRIBUTES + VALUES)


def _words(rng: np.random.Generator, n: int) -> str:
    return " ".join(rng.choice(WORDS, n))


def _question(rng: np.random.Generator) -> str:
    return _words(rng, int(rng.integers(6, 11)))


def _exact_draws(rng: np.random.Generator, weights: np.ndarray, n: int) -> np.ndarray:
    """``n`` indices whose counts follow ``weights`` as closely as whole
    numbers can (largest remainder), in seeded random order: the seed
    moves which request draws what, not how often each is drawn."""
    share = n * weights / weights.sum()
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(len(weights)), counts))


# Share of its slot within which an open-loop request is sent. Sent
# anywhere in their slots, two requests often came close enough that one's
# splice or cold prefill ran while the other decoded, and a request with an
# 8-token answer either met such a stall or did not: TPOT split into two
# groups, and its median or tail moved with how many requests a seed's
# draws happened to put together (see README.md).
JITTER = 0.25


def _arrivals(rng: np.random.Generator, n: int, seconds: float) -> np.ndarray:
    """Open-loop send times: ``n`` equal slots over the window, each
    request at a uniformly random point of the first ``JITTER`` share of
    its own slot."""
    return (np.arange(n) + rng.uniform(0.0, JITTER, n)) * (seconds / n)


@dataclass
class Request:
    """One request the load generator sends, and what became of it."""

    rid: str
    text: str  # a PML prompt, or raw text when ``raw``
    max_new_tokens: int
    raw: bool = False
    modules: tuple[str, ...] = ()  # modules the prompt imports, in order
    suffix: str = ""  # the text after the imports
    offset_s: float = 0.0  # open loop: when it is due, from the window start
    due: float | None = None  # when it was due, on the server clock
    live: object = None  # the server's LiveRequest once admitted
    outcome: str = "pending"  # completed | failed | shed | expired
    error: str | None = None  # exception type name when not completed

    @property
    def output_ids(self) -> list[int]:
        return list(self.live.result.output_ids)


@dataclass(frozen=True)
class ModularPlan:
    """A reference computation with modules encoded alone: each module's
    token ids at its first schema position, then the suffix at its
    position, then decoding from ``next_position``."""

    modules: tuple[tuple[str, tuple[int, ...], int], ...]  # (name, ids, start)
    suffix: tuple[int, ...]
    suffix_start: int
    next_position: int


class Workload:
    """A workload's fixed shape; instances hold one seed's inputs."""

    name: str
    loop: str  # "closed" | "open"
    # The tail percentile reported, fixed per workload so that no run
    # length or seed switches it. A run too short to leave ten samples
    # beyond it is an error (``stats.tail``).
    tail_pct: float
    options: dict  # ServeOptions fields for this workload


class ChatDecode(Workload):
    """Closed loop: 32 clients, each sending its next question when the
    previous answer is done. Every prompt imports one ~90-token system
    module; one answer in five is 16 tokens, the rest 100.

    Client ``i`` sends its first request ``i * RAMP_S / CLIENTS`` into
    the window. Started together, the clients would finish their
    100-token answers together and send again together, so most
    requests would queue behind a burst of prefills whose size depends
    on the seed's short-answer draws; staggered, a request meets a
    steady batch of decoding sequences."""

    CLIENTS = 32
    RAMP_S = 2.0  # about one 100-token answer at a full batch
    SYSTEM_WORDS = 90
    QUESTIONS = 24
    SHORT, LONG = 16, 100

    name = "chat-decode"
    loop = "closed"
    tail_pct = 90.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.options = dict(
            max_inflight=self.CLIENTS,
            max_queue_depth=2 * self.CLIENTS,
            queue_delay_budget_s=None,
        )
        rng = np.random.default_rng([seed, 0])
        self.system = _words(rng, self.SYSTEM_WORDS)
        self.questions = [_question(rng) for _ in range(self.QUESTIONS)]
        self._clients = [np.random.default_rng([seed, 1, c]) for c in range(self.CLIENTS)]
        self._short_slot = [0] * self.CLIENTS

    def schema(self) -> str:
        return f'<schema name="chat"><module name="persona">{self.system}</module></schema>'

    def prepare(self, pc) -> None:
        pc.register_schema(self.schema())

    def start_offset(self, client: int) -> float:
        """When the client sends its first request, from the window start."""
        return client * self.RAMP_S / self.CLIENTS

    def client_request(self, client: int, k: int) -> Request:
        """The client's ``k``-th request (called with k = 0, 1, 2, ...)."""
        rng = self._clients[client]
        if k % 5 == 0:  # one short answer in every block of five
            self._short_slot[client] = int(rng.integers(5))
        budget = self.SHORT if k % 5 == self._short_slot[client] else self.LONG
        suffix = " " + self.questions[int(rng.integers(self.QUESTIONS))]
        return Request(
            rid=f"c{client}-{k}",
            text=f'<prompt schema="chat"><persona/>{suffix}</prompt>',
            max_new_tokens=budget,
            modules=("persona",),
            suffix=suffix,
        )

    def reference_plan(self, request: Request, tokenizer) -> list[int]:
        """Full-prefill token ids: the module, then the question."""
        return tokenizer.encode(self.system) + tokenizer.encode(request.suffix)


class RagLong(Workload):
    """Open loop at 6 requests/s. Each question imports one document from
    each of two unions of six 700-2000-token modules, picked by Zipf
    popularity, and gets an 8-token answer."""

    RATE = 6.0
    LENGTHS = (700, 960, 1220, 1480, 1740, 2000)
    # Zipf exponent of module popularity. At 0.6 about a quarter of the
    # requests find their module pair in the 8-entry spliced-base cache,
    # so misses set the median TTFT whatever the seed.
    ZIPF = 0.6
    # Popularity rank -> module index, fixed so the popular documents have
    # the same lengths whatever the seed.
    RANKS = ((2, 4, 0, 5, 1, 3), (3, 1, 5, 0, 4, 2))
    ANSWER = 8

    name = "rag-long"
    loop = "open"
    tail_pct = 75.0  # 180 requests in a 30 s run; supported down to 15 s (90)

    def __init__(self, seed: int, seconds: float) -> None:
        n = round(self.RATE * seconds)
        self.options = dict(max_queue_depth=n + 1, queue_delay_budget_s=None)
        rng = np.random.default_rng([seed, 0])
        self.unions = [
            {f"{tag}{i}": _words(rng, length) for i, length in enumerate(self.LENGTHS)}
            for tag in ("a", "b")
        ]
        weights = 1.0 / np.arange(1, len(self.LENGTHS) + 1) ** self.ZIPF
        columns = [
            [f"{tag}{ranks[r]}" for r in _exact_draws(rng, weights, n)]
            for tag, ranks in zip(("a", "b"), self.RANKS)
        ]
        arrivals = _arrivals(rng, n, seconds)
        self._requests = []
        for i, (offset, picks) in enumerate(zip(arrivals, zip(*columns))):
            suffix = " " + _question(rng)
            imports = "".join(f"<{name}/>" for name in picks)
            self._requests.append(
                Request(
                    rid=f"r{i}",
                    text=f'<prompt schema="rag">{imports}{suffix}</prompt>',
                    max_new_tokens=self.ANSWER,
                    modules=picks,
                    suffix=suffix,
                    offset_s=float(offset),
                )
            )

    def schema(self) -> str:
        return union_schema("rag", self.unions)

    def prepare(self, pc) -> None:
        pc.register_schema(self.schema())

    def requests(self) -> list[Request]:
        return self._requests

    def reference_plan(self, request: Request, tokenizer) -> ModularPlan:
        return modular_plan(self.unions, request.modules, request.suffix, tokenizer)


def union_schema(name: str, unions) -> str:
    """A PML schema of ``<union>``s, each a ``{module name: text}`` dict."""
    body = "".join(
        "<union>"
        + "".join(f'<module name="{m}">{text}</module>' for m, text in union.items())
        + "</union>"
        for union in unions
    )
    return f'<schema name="{name}">{body}</schema>'


def modular_plan(unions, picks, suffix_text: str, tokenizer) -> ModularPlan:
    """Schema positions (paper §3.2-3.4) for a schema made of unions, one
    member of each imported, derived from token counts alone: union
    members start at the union's start and the union spans its longest
    member; the suffix goes in the gap after its anchor (the last
    import) when it fits inside the schema, else past the schema's end;
    decoding starts past both."""
    modules = []
    start = 0
    for name, union in zip(picks, unions):
        ids = tuple(tokenizer.encode(union[name]))
        modules.append((name, ids, start))
        start += max(len(tokenizer.encode(text)) for text in union.values())
    total = start
    suffix = tuple(tokenizer.encode(suffix_text))
    anchor_end = modules[-1][2] + len(modules[-1][1])
    suffix_start = anchor_end if anchor_end + len(suffix) <= total else total
    return ModularPlan(
        modules=tuple(modules),
        suffix=suffix,
        suffix_start=suffix_start,
        next_position=max(total, suffix_start + len(suffix)),
    )


class RawDiscovery(Workload):
    """Closed loop: 16 clients send schema-free text with reuse discovery
    on, each its next prompt when the previous answer is done. Each
    client's answers run through 32, 48, 64 and 80 tokens in a seeded
    order in every block of four, so clients that finish together do not
    send together again (with 64 tokens for all, they did, and the median
    TTFT moved by 75% between seeds with the bursts of prefills that
    formed).

    Nine prompts in ten are the preamble of one of six active tenants
    (~300 tokens) and one of four questions; the active set drifts by one
    tenant every three rounds (a round is each client's next request, so
    about every 50 requests). The tenth prompt is wholly unique.

    About one request in seven is cold (unique, or a tenant's first few
    before its preamble is promoted), so the median TTFT lies among
    spliced requests. The p90 tail holds cold prefills and the requests
    admitted beside them, whose first token waits for those prefills.

    A closed loop because, paced one at a time in an open loop, each
    request decoded alone in ~2 ms steps, so an answer spanned 15-60 ms of
    a shared host's time, and the TPOT tail was the share of the run the
    host was busy elsewhere: it spread by 22-63% between sets of runs
    while the TPOT median spread by 7-23% (see README.md). Sixteen
    sequences decoding together make a step ~20 ms and an answer most of
    a second, as on chat-decode, whose TPOT tail held within 10% over the
    same hours. The four questions keep the distinct prompts, and so the
    reference check, to about a fifth of the requests."""

    CLIENTS = 16
    RAMP_S = 1.0  # about one mean answer at a full batch
    PREAMBLE_WORDS = 300
    ACTIVE = 6
    DRIFT_ROUNDS = 3
    QUESTIONS = 4
    UNIQUE_EVERY = 10  # one wholly unique prompt in every block of ten
    ANSWERS = (32, 48, 64, 80)

    name = "raw-discovery"
    loop = "closed"
    tail_pct = 90.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.options = dict(
            max_inflight=self.CLIENTS,
            max_queue_depth=2 * self.CLIENTS,
            queue_delay_budget_s=None,
        )
        self._seed = seed
        rng = np.random.default_rng([seed, 0])
        self.questions = [_question(rng) for _ in range(self.QUESTIONS)]
        self._preambles: dict[int, str] = {}
        self._clients = [np.random.default_rng([seed, 1, c]) for c in range(self.CLIENTS)]
        self._unique_slot = [0] * self.CLIENTS
        self._answers = [list(self.ANSWERS) for _ in range(self.CLIENTS)]

    def _preamble(self, tenant: int) -> str:
        """Tenant ``tenant``'s preamble, the same whichever request asks first."""
        if tenant not in self._preambles:
            rng = np.random.default_rng([self._seed, 2, tenant])
            self._preambles[tenant] = _words(rng, self.PREAMBLE_WORDS)
        return self._preambles[tenant]

    def prepare(self, pc) -> None:
        pc.attach_discovery()

    def start_offset(self, client: int) -> float:
        """When the client sends its first request, from the window start."""
        return client * self.RAMP_S / self.CLIENTS

    def client_request(self, client: int, k: int) -> Request:
        """The client's ``k``-th request (called with k = 0, 1, 2, ...)."""
        rng = self._clients[client]
        if k % len(self.ANSWERS) == 0:
            rng.shuffle(self._answers[client])
        budget = self._answers[client][k % len(self.ANSWERS)]
        if k % self.UNIQUE_EVERY == 0:
            self._unique_slot[client] = int(rng.integers(self.UNIQUE_EVERY))
        if k % self.UNIQUE_EVERY == self._unique_slot[client]:
            text = f"{_words(rng, self.PREAMBLE_WORDS)} {_question(rng)}"
        else:
            tenant = k // self.DRIFT_ROUNDS + int(rng.integers(self.ACTIVE))
            question = self.questions[int(rng.integers(self.QUESTIONS))]
            text = f"{self._preamble(tenant)} {question}"
        return Request(rid=f"t{client}-{k}", text=text, max_new_tokens=budget, raw=True)

    def reference_plan(self, request: Request, tokenizer) -> list[int]:
        return tokenizer.encode(request.text)


WORKLOADS = {cls.name: cls for cls in (ChatDecode, RagLong, RawDiscovery)}
