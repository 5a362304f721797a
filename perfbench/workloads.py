"""The four benchmark workloads and the metrics they report.

Every workload is driven by one client thread in a closed loop: the next
request is sent only after the previous one returned.  Requests are
``run_batch`` calls, never the threaded ``submit`` path, whose coalescing
window groups queries by thread timing; one caller's ``run_batch``
groups its queries the same way on every run, so micro-batches, cache
hits and kernel launch counts repeat exactly for a given seed.

Each timed request is measured on its own.  Its answers are checked
against the independent :class:`~perfbench.oracle.Oracle` right after
it returns, outside the timed interval, so checking costs no measured
time and no answer has to be kept (keeping them would inflate
``rss_peak_mb`` with the benchmark's own data).

A run: one set-up from raw text, an untimed warm-up that brings every
recurring query into the caches, then whole rounds of operations until
``seconds`` of rounds have passed, with ``SETUP_REPS - 1`` more set-ups on
throwaway instances spread between the rounds.  The traced run does all
its set-ups first and traces them.
"""

from __future__ import annotations

import gc
import math
import resource
from multiprocessing import resource_tracker
import statistics
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.query import Query
from repro.compression import compressor
from repro.compression.compressor import CompressedCorpus
from repro.core import plans
from repro.core.engine import GTadoc
from repro.core.session import DeviceSession
from repro.data.corpus import Corpus
from repro.perf.cost_model import GpuCostModel
from repro.perf.specs import TESLA_V100
from repro.relational.spec import Aggregate, Condition, FieldSpec, RelationalQuery, RowSchema
from repro.serve import service as service_module
from repro.serve import wire
from repro.serve.service import AnalyticsService
from repro.serve.sharding import ShardedAnalyticsService, ShardedServiceConfig
from repro.serve.transport import ProcessTransport

from perfbench.inputs import FIELDS, SHAPES, CorpusSpec, Inputs, QuerySpec, digest
from perfbench.oracle import Mismatch, Oracle
from perfbench.tracer import TAG, Tracer

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "run_workload"]

#: Set-ups per run; ``setup_s`` is their median.  The untraced run does the
#: first before its rounds and spreads the rest between them.
SETUP_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "compressed_bytes": "B",
    "rss_peak_mb": "MB",
}

PER_LAYER = {
    "build_tokens_per_s": "1/s",
    "compression.compress_ms": "ms",
    "compression.append_ms": "ms",
    "compression.rebuild_ms": "ms",
    "compression.rules": "count",
    "core.first_query_ms": "ms",
    "core.engine_ms": "ms",
    "core.sync_ms": "ms",
    "core.sync_delta": "count",
    "core.sync_rebuild": "count",
    "core.launches_per_query": "count",
    "gpusim.modelled_ms_per_query": "ms",
    "api.shape_ms": "ms",
    "analytics.derive_ms": "ms",
    "serve.result_cache_hit_ratio": "ratio",
    "serve.result_cache_lookups": "count",
    "serve.session_hit_ratio": "ratio",
    "serve.session_lookups": "count",
    "serve.mean_batch_size": "count",
    "serve.micro_batches": "count",
    "serve.epoch_expirations": "count",
    "serve.self_ms": "ms",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.bytes_per_query": "B",
    "wire.snapshot_bytes": "B",
    "transport.roundtrip_ms": "ms",
    "worker.spawn_s": "s",
    "mutation_p50_ms": "ms",
    "post_mutation_p50_ms": "ms",
}

_SCHEMA = RowSchema(
    fields=tuple(FieldSpec(name, kind, key=key) for name, (key, kind) in FIELDS.items())
)

_DERIVE_FUNCTIONS = (
    "decode_word_counts",
    "decode_per_file_counts",
    "decode_sequence_counts",
    "word_count_to_sort",
    "per_file_counts_to_term_vector",
    "per_file_counts_to_inverted_index",
    "per_file_counts_to_ranked_inverted_index",
)


def to_query(spec: QuerySpec) -> Query:
    """The library's :class:`Query` for a plain :class:`QuerySpec`."""
    extras = {}
    if spec.relational is not None:
        predicate, group_by, aggregates, order_by = spec.relational
        extras["relational"] = RelationalQuery(
            schema=_SCHEMA,
            predicate=tuple(Condition(field, op, value) for field, op, value in predicate),
            group_by=group_by,
            aggregates=tuple(Aggregate(op, field) for op, field in aggregates),
            order_by=order_by,
        )
    return Query(
        task=spec.task,
        top_k=spec.top_k,
        files=spec.files,
        terms=spec.terms,
        sequence_length=spec.sequence_length,
        extras=extras,
    )


def compressed_size(compressed: CompressedCorpus) -> int:
    """Bytes of the compressed form: 32-bit grammar symbols plus the dictionary."""
    dictionary = compressed.dictionary
    words = sum(len(dictionary.decode(i).encode("utf-8")) + 1 for i in range(dictionary.num_words))
    return 4 * compressed.grammar.total_symbols() + words


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class Sink:
    """Samples of one timed stretch of a run."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.post_mutation: List[float] = []
        self.mutations: List[float] = []
        self.queries = 0
        self.busy_s = 0.0
        self.build_tokens = 0
        self.build_s = 0.0
        self.compressed_bytes: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def run(self, workload: "Workload", round_index: int) -> None:
        workload.run_round(round_index, self)
        self.rounds += 1


class Workload:
    """Shared client machinery; subclasses define set-up and rounds."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.inputs = Inputs(seed)
        self.oracles: Dict[str, Oracle] = {}
        self.handles: Dict[str, CompressedCorpus] = {}
        self.service: Any = None
        self.mismatches: List[str] = []
        self.errors: List[str] = []
        self.setup_tokens = 0
        self._queries: Dict[QuerySpec, Query] = {}

    # -- client operations (the traced run wraps the three methods below) ------------
    def _request(self, compressed: CompressedCorpus, queries: List[Query]):
        return self.service.run_batch(queries, source=compressed)

    def _first_request(self, compressed: CompressedCorpus, queries: List[Query]):
        return self.service.run_batch(queries, source=compressed)

    def _mutate(self, compressed: CompressedCorpus, kind: str, name: str, text: Optional[str]) -> None:
        if kind == "append":
            compressed.append_files({name: text})
        elif kind == "replace":
            compressed.replace_file(name, text)
        else:
            compressed.remove_file(name)

    # -- timing and checking ---------------------------------------------------------
    def read(self, corpus: str, specs: List[QuerySpec], sink: Optional[Sink], first: bool = False) -> float:
        """One timed request to a resident corpus; returns its latency (-1.0 if it raised)."""
        send = self._first_request if first else self._request
        handle = self.handles[corpus]
        return self.timed(corpus, specs, sink, lambda queries: send(handle, queries))

    def timed(self, corpus: str, specs: List[QuerySpec], sink: Optional[Sink], call) -> float:
        """Time ``call(queries)``, count it in ``sink`` (if any), then check its answers."""
        queries = [self._query(spec) for spec in specs]
        if sink is not None:
            sink.attempted += 1
        start = time.perf_counter()
        try:
            outcomes = call(queries)
        except Exception as error:  # a failed timed operation is counted, not fatal
            if sink is None:
                raise
            sink.failed += 1
            self.errors.append(f"{corpus}: {error!r}")
            return -1.0
        elapsed = time.perf_counter() - start
        if sink is not None:
            sink.latencies.append(elapsed)
            sink.queries += len(queries)
            sink.busy_s += elapsed
        if len(outcomes) != len(specs):
            self.mismatches.append(f"{corpus}: {len(outcomes)} answers to {len(specs)} queries")
        oracle = self.oracles[corpus]
        for spec, outcome in zip(specs, outcomes):
            try:
                oracle.check(spec, outcome.result)
            except Mismatch as mismatch:
                self.mismatches.append(f"{corpus}: {mismatch}")
        return elapsed

    def _query(self, spec: QuerySpec) -> Query:
        query = self._queries.get(spec)
        if query is None:
            query = self._queries[spec] = to_query(spec)
        return query

    def build(self, specs: Sequence[CorpusSpec]) -> None:
        """Raw text -> compressed corpora, with a fresh oracle per corpus."""
        for spec in specs:
            corpus = Corpus.from_texts(spec.texts(), name=spec.name)
            self.handles[spec.name] = compressor.compress_corpus(corpus)
            self.oracles[spec.name] = Oracle(spec.files)

    def view(self, corpus: str) -> CorpusSpec:
        """The corpus as it is now (files change under mutation)."""
        return CorpusSpec(corpus, "", self.oracles[corpus].files)

    # -- hooks -----------------------------------------------------------------------
    def setup(self, rep: int) -> float:
        raise NotImplementedError

    def warmup(self) -> None:
        """Send every recurring query once so steady rounds find them cached."""
        for corpus, hot in self.hot.items():
            self.read(corpus, list(hot), None)

    def run_round(self, round_index: int, sink: Sink) -> None:
        raise NotImplementedError

    def input_digest(self) -> str:
        raise NotImplementedError

    def compressed_bytes(self, sink: Sink) -> float:
        raise NotImplementedError

    def build_tokens_per_s(self, sink: Sink, setup_times: Sequence[float]) -> float:
        return self.setup_tokens * len(setup_times) / sum(setup_times)

    def probe_setup(self, rep: int) -> float:
        """One more set-up on a throwaway instance; the live one is kept."""
        live = (self.service, self.handles, self.oracles)
        self.service, self.handles, self.oracles = None, {}, {}
        try:
            return self.setup(rep)
        finally:
            self.close()
            self.service, self.handles, self.oracles = live

    def close(self) -> None:
        close = getattr(self.service, "close", None)
        if close is not None:
            close()
        self.service = None


class _ResidentServing(Workload):
    """Resident corpora of the three shapes behind one serving front end."""

    shapes = ("many-small", "few-large", "one-huge")
    #: Offset of the corpus streams, so workloads can use different corpora.
    offset = 0
    weights = (0.4, 0.3, 0.3)
    round_requests = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.specs = self.inputs.resident(self.shapes, self.offset)
        self.by_name = {spec.name: spec for spec in self.specs}
        self.hot = {spec.name: self.inputs.hot_queries(spec) for spec in self.specs}
        self.setup_tokens = sum(spec.num_tokens for spec in self.specs)

    def make_service(self):
        return AnalyticsService()

    def setup(self, rep: int) -> float:
        self.close()
        start = time.perf_counter()
        self.service = self.make_service()
        self.build(self.specs)
        self.contact()
        for spec in self.specs:
            self.read(spec.name, self.hot[spec.name][:1], None, first=True)
        elapsed = time.perf_counter() - start
        self.setup_bytes = statistics.fmean(compressed_size(handle) for handle in self.handles.values())
        return elapsed

    def compressed_bytes(self, sink: Sink) -> float:
        return self.setup_bytes

    def contact(self) -> None:
        """Bring up whatever the front end needs before its first request."""

    def requests(self, round_index: int) -> List[Tuple[str, List[QuerySpec]]]:
        draw = self.inputs.draw(10, round_index)
        names = [spec.name for spec in self.specs]
        out = []
        for _ in range(self.round_requests):
            corpus = draw.frame.choices(names, weights=self.weights)[0]
            out.append((corpus, self.inputs.request(draw, self.by_name[corpus], self.hot[corpus])))
        return out

    def run_round(self, round_index: int, sink: Sink) -> None:
        for corpus, specs in self.requests(round_index):
            self.read(corpus, specs, sink)

    def input_digest(self) -> str:
        return digest(self.specs, (self.requests(r) for r in range(3)))


class WarmServe(_ResidentServing):
    name = "warm-serve"


class ShardServe(_ResidentServing):
    name = "shard-serve"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: One spawned worker: every request still crosses the router, the
        #: wire codec, the pipe transport and the worker process, and on a
        #: two-CPU host the client and its worker do not compete with a
        #: second worker for the CPUs.
        self.num_shards = 1

    def make_service(self):
        return ShardedAnalyticsService(
            sharded_config=ShardedServiceConfig(num_shards=self.num_shards, transport="process")
        )

    def contact(self) -> None:
        self._first_contact()

    def _first_contact(self) -> None:
        # A stats round trip reaches every shard, so each worker is spawned
        # and answering before any corpus is shipped.
        self.service.stats()


class ColdBuild(Workload):
    """A stream of fresh corpora, each built from raw text and answered once."""

    name = "cold-build"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.hot = {}

    def first_queries(self) -> List[QuerySpec]:
        words = self.inputs.vocab.words
        return [
            QuerySpec("sort", top_k=10),
            QuerySpec("inverted_index", terms=tuple(words[:5])),
            QuerySpec("term_vector", top_k=3),
        ]

    def build_and_answer(self, spec: CorpusSpec, sink: Optional[Sink]) -> float:
        """Text to first answer for one corpus; returns its latency."""
        texts = spec.texts()
        self.oracles = {spec.name: Oracle(spec.files)}
        elapsed = self.timed(
            spec.name, self.first_queries(), sink, lambda queries: self._build(spec.name, texts, queries)
        )
        if sink is not None and elapsed >= 0.0:
            sink.build_tokens += spec.num_tokens
            sink.build_s += elapsed
            sink.compressed_bytes.append(compressed_size(self.built))
        return elapsed

    def _build(self, name: str, texts: Dict[str, str], queries: List[Query]):
        corpus = Corpus.from_texts(texts, name=name)
        self.built = compressor.compress_corpus(corpus)
        return self._first_request(self.built, queries)

    def setup(self, rep: int) -> float:
        start = time.perf_counter()
        self.service = AnalyticsService()
        probe = self.inputs.corpus(f"probe-{rep}", "few-large", "stream", 900 + rep)
        self.build_and_answer(probe, None)
        return time.perf_counter() - start

    def warmup(self) -> None:
        """Cold-build has nothing to warm: every corpus is new by design."""

    def run_round(self, round_index: int, sink: Sink) -> None:
        for spec in self.inputs.stream_round(round_index):
            self.build_and_answer(spec, sink)

    def input_digest(self) -> str:
        rounds = [self.inputs.stream_round(r) for r in range(3)]
        return digest([spec for specs in rounds for spec in specs], iter(()))

    def compressed_bytes(self, sink: Sink) -> float:
        return statistics.fmean(sink.compressed_bytes)

    def build_tokens_per_s(self, sink: Sink, setup_times: Sequence[float]) -> float:
        return sink.build_tokens / sink.build_s


class LiveMutation(_ResidentServing):
    """Two corpora take appends, replaces and removes between reads; one never changes.

    Rounds alternate between the two mutable corpora.  A round gives its
    corpus three appends, one replace of an original file with new text
    of the same size range, and the three removes that take the appended
    files out again, so the corpora keep their size and every round of a
    corpus costs the same.  Every mutation is followed by a read of the
    mutated corpus (the post-mutation read), a read of the static corpus
    and one more read of a corpus picked at random.
    """

    name = "live-mutation"
    offset = 10
    #: Token range of an appended file, per shape.
    file_sizes = {"many-small": (40, 90), "few-large": (150, 250)}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # The many-small and few-large corpora mutate; one-huge never does.
        self.static = self.specs[2].name

    def mutations(self, round_index: int) -> List[Tuple[str, str, str, Optional[str]]]:
        """``(corpus, kind, file, text)`` of one round, in order."""
        spec = self.specs[round_index % 2]
        low, high = self.file_sizes[spec.shape]
        _files, replace_low, replace_high = SHAPES["resident"][spec.shape]
        added = [f"{spec.name}-r{round_index}-{i}.txt" for i in range(3)]
        ops = [
            (spec.name, "append", name, " ".join(self.inputs.new_file(low, high, round_index, i)))
            for i, name in enumerate(added)
        ]
        target = self.inputs.draw(11, round_index).pick.choice(list(spec.files))
        replacement = self.inputs.new_file(replace_low, replace_high, round_index, 3)
        ops.append((spec.name, "replace", target, " ".join(replacement)))
        return ops + [(spec.name, "remove", name, None) for name in added]

    def apply(self, corpus: str, kind: str, name: str, text: Optional[str], sink: Sink) -> None:
        sink.attempted += 1
        start = time.perf_counter()
        try:
            self._mutate(self.handles[corpus], kind, name, text)
        except Exception as error:
            sink.failed += 1
            self.errors.append(f"{corpus} {kind} {name}: {error!r}")
            return
        elapsed = time.perf_counter() - start
        sink.mutations.append(elapsed)
        sink.busy_s += elapsed
        oracle = self.oracles[corpus]
        if kind == "append":
            oracle.append({name: text.split()})
        elif kind == "replace":
            oracle.replace(name, text.split())
        else:
            oracle.remove(name)

    def run_round(self, round_index: int, sink: Sink) -> None:
        draw = self.inputs.draw(12, round_index)
        names = [spec.name for spec in self.specs]
        for corpus, kind, name, text in self.mutations(round_index):
            self.apply(corpus, kind, name, text, sink)
            for position, target in enumerate((corpus, self.static, draw.frame.choice(names))):
                specs = self.inputs.request(draw, self.view(target), self.hot[target], max_batch=8)
                latency = self.read(target, specs, sink)
                if position == 0 and latency >= 0.0:
                    sink.post_mutation.append(latency)

    def input_digest(self) -> str:
        return digest(self.specs, (self.mutations(r) for r in range(2)))


WORKLOADS = {cls.name: cls for cls in (WarmServe, ColdBuild, LiveMutation, ShardServe)}


# ----------------------------------------------------------------------------------------
# Running and reporting
# ----------------------------------------------------------------------------------------

def _serve_counters(stats: Any) -> Dict[str, float]:
    shards = getattr(stats, "shards", None) or (stats,)
    return {
        "queries": sum(s.queries for s in shards),
        "launches": sum(s.kernel_launches for s in shards),
        "executed": sum(s.executed_queries for s in shards),
        "batches": sum(s.micro_batches for s in shards),
        "result_hits": sum(s.result_cache.hits for s in shards),
        "result_lookups": sum(s.result_cache.lookups for s in shards),
        "session_hits": sum(s.session_cache.hits for s in shards),
        "session_lookups": sum(s.session_cache.lookups for s in shards),
        "expirations": sum(s.epoch_expirations for s in shards),
    }


def _rounds(workload: Workload, seconds: float, setup_times: List[float]) -> Sink:
    """Whole rounds for ``seconds``, with the remaining set-ups spread evenly
    between them.

    The host's speed swings over seconds, so set-ups done back to back all
    land in one swing; spread over the run, their median is steadier.  The
    time spent in them does not count against ``seconds``.
    """
    sink = Sink()
    first = len(setup_times)
    start = time.perf_counter()
    spent = 0.0
    while True:
        sink.run(workload, sink.rounds)
        elapsed = time.perf_counter() - start - spent
        due = (len(setup_times) - first + 1) * seconds / (SETUP_REPS - first + 1)
        if len(setup_times) < SETUP_REPS and elapsed >= due:
            began = time.perf_counter()
            gc.collect()
            setup_times.append(workload.probe_setup(len(setup_times)))
            spent += time.perf_counter() - began
        elif elapsed >= seconds and len(setup_times) == SETUP_REPS:
            return sink


def _traced_rounds(workload: Workload, tracer: Tracer, seconds: float) -> Tuple[Sink, Sink, Dict[str, float]]:
    """Alternate untraced and traced rounds; returns both sinks and the
    serving counters accumulated over the traced rounds.

    Alternating (rather than tracing one stretch) spreads both halves over
    the same part of the run, so their difference is the tracing overhead
    and not drift between the start and the end of the run.
    """
    plain, traced = Sink(), Sink()
    counters: Dict[str, float] = defaultdict(float)
    deadline = time.perf_counter() + seconds
    round_index = 0
    while True:
        if round_index % 2 == 0:
            plain.run(workload, round_index)
        else:
            before = _serve_counters(workload.service.stats())
            tracer.install()
            try:
                traced.run(workload, round_index)
            finally:
                tracer.uninstall()
            after = _serve_counters(workload.service.stats())
            for key, value in after.items():
                counters[key] += value - before[key]
        round_index += 1
        if round_index % 2 == 0 and time.perf_counter() >= deadline:
            return plain, traced, counters


def _stop_resource_tracker() -> None:
    """End the helper process that spawning a shard worker starts, and reap it.

    Left alone it outlives this process by a moment, as an orphan.
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def _rss_peak_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _plan_tracing(tracer: Tracer) -> None:
    def rules(span: list, args: tuple, result: Any) -> None:
        span[TAG] = len(result.grammar)

    def records(span: list, args: tuple, result: Any) -> None:
        found = [result.init_record, result.shared_record]
        for run in result.results.values():
            found += [run.init_record, run.traversal_record]
        span[TAG] = found

    def sync_kind(span: list, args: tuple, result: Any) -> None:
        span[TAG] = result

    def frame_out(span: list, args: tuple, result: Any) -> None:
        message = args[0]
        span[TAG] = (len(result), isinstance(message, tuple) and message[0] == "snapshot")

    def frame_in(span: list, args: tuple, result: Any) -> None:
        span[TAG] = (len(args[0]), False)

    tracer.plan(Workload, "_request", "serve.request", root=True)
    tracer.plan(Workload, "_first_request", "core.first_query", root=True)
    tracer.plan(Workload, "_mutate", "client.mutation", root=True)
    tracer.plan(ShardServe, "_first_contact", "worker.spawn", root=True)
    tracer.plan(ColdBuild, "_build", "client.build", root=True)
    tracer.plan(compressor, "compress_corpus", "compression.compress", after=rules)
    tracer.plan(CompressedCorpus, "append_files", "compression.append")
    tracer.plan(CompressedCorpus, "replace_file", "compression.rebuild")
    tracer.plan(CompressedCorpus, "remove_file", "compression.rebuild")
    tracer.plan(GTadoc, "run_batch", "core.engine", after=records)
    tracer.plan(GTadoc, "run_fused", "core.engine", after=records)
    tracer.plan(DeviceSession, "sync_with_corpus", "core.sync", after=sync_kind)
    tracer.plan(service_module, "shape_result", "api.shape")
    for name in _DERIVE_FUNCTIONS:
        tracer.plan(plans, name, "analytics.derive")
    tracer.plan(wire, "encode_frame", "wire.encode", after=frame_out)
    tracer.plan(wire, "decode_frame", "wire.decode", after=frame_in)
    tracer.plan(ProcessTransport, "_roundtrip", "transport.roundtrip")


def _per_layer(tracer: Tracer, workload: Workload, sink: Sink, delta: Dict[str, float]) -> Dict[str, float]:
    everywhere = tracer.stats(("setup", "warmup", "steady"))
    setup = tracer.stats(("setup",))
    steady = tracer.stats(("steady",))

    def mean_ms(table: Dict, name: str) -> float:
        entry = table.get(name)
        return entry.mean_ms if entry is not None else 0.0

    queries = delta["queries"]
    compressions = tracer.tagged("compression.compress", ("setup", "warmup", "steady"))
    syncs = [span for span in tracer.tagged("core.sync", ("steady",)) if span[TAG] != "none"]
    model = GpuCostModel(TESLA_V100)
    for span in tracer.tagged("core.engine", ("setup", "warmup", "steady")):
        span[TAG] = sum(model.time_seconds(record) for record in span[TAG])
    modelled_s = sum(span[TAG] for span in tracer.tagged("core.engine", ("steady",)))
    frames = tracer.tagged("wire.encode", ("steady",)) + tracer.tagged("wire.decode", ("steady",))
    snapshots = [span[TAG][0] for span in tracer.tagged("wire.encode", ("setup",)) if span[TAG][1]]
    spawn = setup.get("worker.spawn")
    requests = [steady[name] for name in ("serve.request", "core.first_query") if name in steady]
    request_calls = sum(entry.calls for entry in requests)
    return {
        "compression.compress_ms": mean_ms(everywhere, "compression.compress"),
        "compression.append_ms": mean_ms(steady, "compression.append"),
        "compression.rebuild_ms": mean_ms(steady, "compression.rebuild"),
        "compression.rules": statistics.fmean(span[TAG] for span in compressions) if compressions else 0.0,
        "core.first_query_ms": mean_ms(everywhere, "core.first_query"),
        "core.engine_ms": mean_ms(steady, "core.engine"),
        "core.sync_ms": 1000.0 * statistics.fmean(s[2] - s[1] for s in syncs) if syncs else 0.0,
        "core.sync_delta": sum(1 for span in syncs if span[TAG] == "delta"),
        "core.sync_rebuild": sum(1 for span in syncs if span[TAG] == "rebuild"),
        "core.launches_per_query": delta["launches"] / queries if queries else 0.0,
        "gpusim.modelled_ms_per_query": 1000.0 * modelled_s / queries if queries else 0.0,
        "api.shape_ms": mean_ms(steady, "api.shape"),
        "analytics.derive_ms": mean_ms(steady, "analytics.derive"),
        "serve.result_cache_hit_ratio": (
            delta["result_hits"] / delta["result_lookups"] if delta["result_lookups"] else 0.0
        ),
        "serve.result_cache_lookups": delta["result_lookups"],
        "serve.session_hit_ratio": (
            delta["session_hits"] / delta["session_lookups"] if delta["session_lookups"] else 0.0
        ),
        "serve.session_lookups": delta["session_lookups"],
        "serve.mean_batch_size": delta["executed"] / delta["batches"] if delta["batches"] else 0.0,
        "serve.micro_batches": delta["batches"],
        "serve.epoch_expirations": delta["expirations"],
        "serve.self_ms": (
            1000.0 * sum(entry.self_s for entry in requests) / request_calls if request_calls else 0.0
        ),
        "wire.encode_ms": mean_ms(steady, "wire.encode"),
        "wire.decode_ms": mean_ms(steady, "wire.decode"),
        "wire.bytes_per_query": sum(span[TAG][0] for span in frames) / queries if queries else 0.0,
        "wire.snapshot_bytes": sum(snapshots) / SETUP_REPS,
        "transport.roundtrip_ms": mean_ms(steady, "transport.roundtrip"),
        "worker.spawn_s": spawn.total_s / spawn.calls / workload.num_shards if spawn is not None else 0.0,
        "mutation_p50_ms": 1000.0 * statistics.median(sink.mutations) if sink.mutations else 0.0,
        "post_mutation_p50_ms": 1000.0 * statistics.median(sink.post_mutation) if sink.post_mutation else 0.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir=None) -> Dict[str, Any]:
    """Run one workload; returns the result object the command prints last."""
    workload = WORKLOADS[name](seed)
    print(f"workload {name} seed {seed}: input digest {workload.input_digest()}")
    tracer = Tracer() if trace else None
    if tracer is not None:
        _plan_tracing(tracer)
        tracer.install()
    try:
        setup_times = []
        for rep in range(1 if tracer is None else SETUP_REPS):
            gc.collect()
            setup_times.append(workload.setup(rep))
        gc.collect()
        if tracer is None:
            workload.warmup()
            sink = _rounds(workload, seconds, setup_times)
            timed = [sink]
        else:
            tracer.phase = "warmup"
            workload.warmup()
            tracer.uninstall()
            tracer.phase = "steady"
            plain, sink, counters = _traced_rounds(workload, tracer, seconds)
            timed = [plain, sink]
        resident_bytes = workload.compressed_bytes(sink)
    finally:
        if tracer is not None:
            tracer.uninstall()
        try:
            workload.close()
        finally:
            _stop_resource_tracker()
    attempted = sum(part.attempted for part in timed)
    failed = sum(part.failed for part in timed)
    for message in (workload.mismatches + workload.errors)[:5]:
        print(f"problem: {message}")
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "qps": sink.queries / sink.busy_s,
            "latency_p50_ms": 1000.0 * statistics.median(sink.latencies),
            "latency_p90_ms": 1000.0 * percentile(sink.latencies, 0.9),
            "compressed_bytes": resident_bytes,
            "rss_peak_mb": _rss_peak_mb(),
        }
        units = END_TO_END
        print(
            f"{sink.rounds} rounds, {len(sink.latencies)} requests, {sink.queries} queries, "
            f"{len(sink.mutations)} mutations; set-ups {', '.join(f'{t:.3f}' for t in setup_times)} s"
        )
    else:
        metrics = _per_layer(tracer, workload, sink, counters)
        metrics["build_tokens_per_s"] = workload.build_tokens_per_s(sink, setup_times)
        units = PER_LAYER
        print(tracer.table(("steady",)))
        print(
            f"tracing overhead: {1000 * sink.busy_s / sink.queries:.3f} ms per query over "
            f"{sink.rounds} traced rounds vs "
            f"{1000 * plain.busy_s / plain.queries:.3f} ms over {plain.rounds} untraced rounds "
            f"({(sink.busy_s / sink.queries) / (plain.busy_s / plain.queries) - 1:+.1%})"
        )
        if out_dir is not None:
            path = out_dir / f"spans-{name}-seed{seed}.jsonl"
            tracer.dump(path)
            print(f"spans written to {path}")
    return {
        "correct": not workload.mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": unit} for key, unit in units.items()},
    }
