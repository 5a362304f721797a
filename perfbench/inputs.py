"""Seeded inputs of the benchmark: corpora, request streams and mutations.

Everything here is plain Python driven by ``random.Random`` generators
seeded through integer arithmetic only: a fixed *frame* seed sets what a
run costs, and the run's ``--seed`` picks the content (see
``_FRAME_SEED``).  Nothing depends on the builtin ``hash()`` (salted per
process) or on the library's own dataset generators, so the same seed
yields the same inputs in every process.  The module imports nothing from ``repro``: queries are
plain tuples (:class:`QuerySpec`) that the workloads turn into
``repro.api.Query`` objects and the checker reads directly.

Corpus shapes follow the paper's Table II analogues:

* ``many-small`` -- many short files sharing boilerplate (dataset A),
* ``few-large`` -- a handful of long, internally redundant files (B, C),
* ``one-huge``  -- one very large file (D, E).

Text is Zipf-distributed words over a shared vocabulary with reuse of a
pool of phrases, which is what gives Sequitur its rules.  Every file
opens with keyed fields (``k_year 2011 k_venue lupo ...``) so relational
queries have rows to parse; some fields are missing or unparseable on
purpose.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "TASKS",
    "FIELDS",
    "QuerySpec",
    "CorpusSpec",
    "Draw",
    "Vocabulary",
    "Inputs",
    "digest",
]

#: The six classic tasks, in the order the paper lists them.
TASKS = (
    "word_count",
    "sort",
    "inverted_index",
    "term_vector",
    "sequence_count",
    "ranked_inverted_index",
)

#: Keyed relational fields: name -> (key token, type).
FIELDS = {
    "year": ("k_year", "int"),
    "venue": ("k_venue", "str"),
    "pages": ("k_pages", "int"),
    "score": ("k_score", "float"),
}

_VENUES = ("vldb", "icde", "sigmod", "ppopp", "sc", "hpdc", "asplos", "micro")
_SYLLABLES = (
    "ba be bi bo bu da de di do du ka ke ki ko ku la le li lo lu ma me mi mo mu "
    "na ne ni no nu pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu "
    "va ve vi vo vu za ze zi zo zu"
).split()

#: Sizes of each shape: (files, min tokens per file, max tokens per file).
#: "resident" corpora are served warm; "stream" corpora are the smaller,
#: always-fresh corpora of the cold-build workload.
SHAPES = {
    "resident": {
        "many-small": (48, 40, 90),
        "few-large": (4, 700, 900),
        "one-huge": (1, 3800, 4200),
    },
    "stream": {
        "many-small": (32, 30, 60),
        "few-large": (3, 500, 600),
        "one-huge": (1, 2200, 2400),
    },
}


class QuerySpec(NamedTuple):
    """One query as plain data.

    ``relational`` is ``(predicate, group_by, aggregates, order_by)`` with
    ``predicate`` a tuple of ``(field, op, value)`` and ``aggregates`` a
    tuple of ``(op, field-or-None)``; ``None`` for the classic tasks.
    """

    task: str
    top_k: Optional[int] = None
    files: Optional[Tuple[str, ...]] = None
    terms: Optional[Tuple[str, ...]] = None
    sequence_length: Optional[int] = None
    relational: Optional[tuple] = None


class CorpusSpec(NamedTuple):
    """A generated corpus: its name, shape and ordered ``{file: tokens}``."""

    name: str
    shape: str
    files: Dict[str, List[str]]

    @property
    def num_tokens(self) -> int:
        return sum(len(tokens) for tokens in self.files.values())

    def texts(self) -> Dict[str, str]:
        """Raw text per file, as a user would hand it to the library."""
        return {name: " ".join(tokens) for name, tokens in self.files.items()}


#: Seed of everything that sets what a run costs: the language (vocabulary
#: and phrase pool), file sizes, where documents reuse phrases, and the shape
#: of every request and mutation (corpus, batch size, task, which filters).
#: ``--seed`` picks the content within that frame: which words and phrases a
#: document uses, which files, terms and k a query names.  Different seeds
#: are different data under the same workload mix, so their timings compare.
_FRAME_SEED = 0x5EED


def _rng(seed: int, *stream: int) -> random.Random:
    """An independent generator for one purpose, mixed from integers only."""
    value = seed & 0xFFFFFFFF
    for part in stream:
        value = (value * 1_000_003 + part + 1) & 0xFFFFFFFFFFFF
    return random.Random(value)


class Draw:
    """The two generators of one purpose: ``frame`` (fixed) and ``pick`` (seeded)."""

    def __init__(self, seed: int, *stream: int) -> None:
        self.frame = _rng(_FRAME_SEED, *stream)
        self.pick = _rng(seed, *stream)


class Vocabulary:
    """Zipf-ranked words plus a pool of reusable phrases (the same for every seed)."""

    def __init__(self, size: int = 3000, phrases: int = 400) -> None:
        rng = _rng(_FRAME_SEED, 1)
        words: List[str] = []
        seen = set()
        while len(words) < size:
            word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self._cum = _zipf_cumulative(size, 1.1)
        self.phrases = [self.sample(rng, rng.randint(3, 10)) for _ in range(phrases)]
        self._phrase_cum = _zipf_cumulative(phrases, 0.9)

    def sample(self, rng: random.Random, count: int) -> List[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=count)

    def phrase(self, rng: random.Random) -> List[str]:
        return self.phrases[bisect.bisect_left(self._phrase_cum, rng.random() * self._phrase_cum[-1])]

    def document(self, draw: Draw, length: int) -> List[str]:
        """``length`` tokens: a keyed-field header, then phrases and free words."""
        tokens = _header(draw.pick)
        while len(tokens) < length:
            if draw.frame.random() < 0.45:
                tokens.extend(self.phrase(draw.pick))
            else:
                tokens.extend(self.sample(draw.pick, draw.frame.randint(1, 6)))
        return tokens[:length]


def _zipf_cumulative(size: int, exponent: float) -> List[float]:
    total = 0.0
    cumulative = []
    for rank in range(1, size + 1):
        total += 1.0 / rank**exponent
        cumulative.append(total)
    return cumulative


def _header(rng: random.Random) -> List[str]:
    tokens = ["k_year", str(rng.randint(1995, 2023)), "k_venue", rng.choice(_VENUES)]
    if rng.random() < 0.9:
        tokens += ["k_pages", str(rng.randint(1, 40))]
    score = f"{rng.randint(0, 9)}.{rng.randint(0, 9)}" if rng.random() < 0.9 else "n/a"
    return tokens + ["k_score", score]


class Inputs:
    """All generated inputs of one seed.

    Each method is a pure function of the seed and its own arguments, so a
    workload may ask for round ``r`` of a stream without generating the
    rounds before it.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.vocab = Vocabulary()

    def draw(self, *stream: int) -> Draw:
        return Draw(self.seed, *stream)

    # -- corpora -------------------------------------------------------------------
    def corpus(self, name: str, shape: str, size: str, stream: int) -> CorpusSpec:
        files_count, low, high = SHAPES[size][shape]
        lengths = _rng(_FRAME_SEED, 2, stream).choices(range(low, high + 1), k=files_count)
        files = {
            f"{name}-{index:03d}.txt": self.vocab.document(self.draw(2, stream, index), length)
            for index, length in enumerate(lengths)
        }
        return CorpusSpec(name=name, shape=shape, files=files)

    def resident(self, shapes: Sequence[str], offset: int = 0) -> List[CorpusSpec]:
        return [
            self.corpus(f"{shape}-{offset + index}", shape, "resident", offset + index)
            for index, shape in enumerate(shapes)
        ]

    def stream_round(self, round_index: int) -> List[CorpusSpec]:
        """One round of the cold-build stream: one fresh corpus per shape."""
        return [
            self.corpus(f"s{round_index}-{shape}", shape, "stream", 1000 + 3 * round_index + index)
            for index, shape in enumerate(SHAPES["stream"])
        ]

    def new_file(self, low: int, high: int, *stream: int) -> List[str]:
        """A file of ``low..high`` tokens for a mutation, one per ``stream``."""
        draw = self.draw(4, *stream)
        return self.vocab.document(draw, draw.frame.randint(low, high))

    # -- queries -------------------------------------------------------------------
    def hot_queries(self, corpus: CorpusSpec) -> List[QuerySpec]:
        """Queries that recur for the whole run (result-cache material)."""
        draw = self.draw(3, _stable_id(corpus.name))
        frequent = tuple(self.vocab.words[:40])
        return [
            QuerySpec("word_count", top_k=10),
            QuerySpec("sort", top_k=25),
            QuerySpec("sequence_count", top_k=10),
            QuerySpec("inverted_index", terms=tuple(draw.pick.sample(frequent, 6))),
            QuerySpec("ranked_inverted_index", top_k=3, terms=tuple(draw.pick.sample(frequent, 6))),
            QuerySpec("term_vector", top_k=5),
            QuerySpec("word_count"),
            _relational(draw, ("venue",), order=False),
        ]

    def cold_query(self, draw: Draw, corpus: CorpusSpec) -> QuerySpec:
        """A query drawn from a space large enough that it rarely repeats."""
        frame, pick = draw.frame, draw.pick
        names = list(corpus.files)
        files = None
        if len(names) > 1 and frame.random() < 0.4:
            count = frame.randint(1, min(4, len(names) - 1))
            files = tuple(sorted(pick.sample(names, count)))
        if frame.random() < 0.12:
            return _relational(draw, ("venue", "year", None), order=True, files=files)
        task = TASKS[frame.randrange(len(TASKS))]
        terms = None
        if frame.random() < 0.5:
            terms = tuple(dict.fromkeys(self.vocab.sample(pick, frame.randint(2, 8))))
        top_k = pick.randint(1, 40) if frame.random() < 0.7 else None
        if terms is None and files is None and top_k is None:
            top_k = pick.randint(1, 40)
        sequence_length = frame.choice((2, 3, 4)) if task == "sequence_count" else None
        return QuerySpec(task, top_k=top_k, files=files, terms=terms, sequence_length=sequence_length)

    def request(
        self, draw: Draw, corpus: CorpusSpec, hot: Sequence[QuerySpec], max_batch: int = 16
    ) -> List[QuerySpec]:
        """One ``run_batch`` request: 1..max_batch queries, about a third hot."""
        size = min(draw.frame.choice((1, 1, 2, 2, 3, 4, 6, 8, 12, 16)), max_batch)
        return [
            hot[draw.frame.randrange(len(hot))] if draw.frame.random() < 0.35 else self.cold_query(draw, corpus)
            for _ in range(size)
        ]


def _relational(
    draw: Draw,
    group_choices: Sequence[Optional[str]],
    *,
    order: bool,
    files: Optional[Tuple[str, ...]] = None,
) -> QuerySpec:
    frame, pick = draw.frame, draw.pick
    group_by = frame.choice(group_choices)
    predicate = []
    if frame.random() < 0.7:
        predicate.append(("year", frame.choice(("ge", "lt")), pick.randint(2000, 2018)))
    if frame.random() < 0.3:
        predicate.append(("score", "gt", pick.randint(2, 7) + 0.5))
    aggregates = [("count", None)]
    for op, field in (("sum", "pages"), ("avg", "score"), ("max", "pages"), ("min", "year")):
        if frame.random() < 0.5:
            aggregates.append((op, field))
    order_by = None
    if order and group_by is not None and frame.random() < 0.5:
        op, field = frame.choice(aggregates)
        order_by = op if field is None else f"{op}({field})"
    top_k = None
    if order and group_by is not None and frame.random() < 0.5:
        top_k = pick.randint(1, 6)
    return QuerySpec(
        "relational",
        top_k=top_k,
        files=files,
        relational=(tuple(predicate), group_by, tuple(aggregates), order_by),
    )


def _stable_id(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=4).digest(), "big")


def digest(corpora: Sequence[CorpusSpec], operations: Iterator[object]) -> str:
    """A short content hash of a run's inputs (corpora plus an op prefix)."""
    hasher = hashlib.blake2b(digest_size=12)
    for corpus in corpora:
        hasher.update(corpus.name.encode("utf-8"))
        for name, tokens in corpus.files.items():
            hasher.update(name.encode("utf-8"))
            hasher.update(" ".join(tokens).encode("utf-8"))
    for operation in operations:
        hasher.update(repr(operation).encode("utf-8"))
    return hasher.hexdigest()
