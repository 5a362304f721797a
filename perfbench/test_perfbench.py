"""Checks of the benchmark itself: its checker, its inputs and its metric list.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analytics.base import Task  # noqa: E402
from repro.serve import service as service_module  # noqa: E402
from repro.serve.service import AnalyticsService  # noqa: E402

from perfbench.inputs import Inputs, QuerySpec  # noqa: E402
from perfbench.oracle import Mismatch, Oracle  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, run_workload, to_query  # noqa: E402
from repro import Corpus, compress_corpus  # noqa: E402


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_input_digest_is_the_same_under_different_hash_seeds():
    script = (
        "import sys; sys.path[:0] = ['src', '.'];"
        "from perfbench.workloads import WORKLOADS;"
        "print([[W(seed).input_digest() for W in WORKLOADS.values()] for seed in (7, 8)])"
    )
    digests = set()
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1
    seven, eight = ast.literal_eval(digests.pop())
    assert all(a != b for a, b in zip(seven, eight))


def _served(specs):
    inputs = Inputs(3)
    corpus = inputs.corpus("probe", "many-small", "stream", 5)
    compressed = compress_corpus(Corpus.from_texts(corpus.texts(), name=corpus.name))
    service = AnalyticsService()
    outcomes = service.run_batch([to_query(spec) for spec in specs], source=compressed)
    return Oracle(corpus.files), corpus, [outcome.result for outcome in outcomes]


def _corrupt(result):
    """Change one value of an answer the way a faulty engine might."""
    if isinstance(result, dict):
        key = next(iter(result))
        value = result[key]
        if isinstance(value, int):
            result[key] = value + 1
        elif isinstance(value, dict):
            _corrupt(value)
        elif value and isinstance(value[0], tuple):
            value[0] = (value[0][0], value[0][1] + 1)
        else:
            value.pop()
    elif result and isinstance(result[0][1], tuple):
        group, values = result[0]
        result[0] = (group, (values[0] + 1,) + tuple(values[1:]))
    else:
        word, count = result[0]
        result[0] = (word, count + 1)
    return result


def test_checker_accepts_engine_answers_and_rejects_corrupted_ones():
    inputs = Inputs(3)
    terms = tuple(inputs.vocab.words[:12])
    relational = ((("year", "ge", 2000),), "venue", (("count", None), ("sum", "pages"), ("avg", "score")), None)
    specs = [QuerySpec(task.value) for task in Task if task is not Task.RELATIONAL]
    specs += [QuerySpec(task.value, top_k=3) for task in Task if task is not Task.RELATIONAL]
    specs += [QuerySpec(task.value, terms=terms) for task in Task if task is not Task.RELATIONAL]
    specs += [
        QuerySpec("relational", relational=relational),
        QuerySpec("relational", top_k=2, relational=relational[:3] + ("count",)),
        QuerySpec("sequence_count", sequence_length=2, top_k=5),
    ]
    oracle, corpus, results = _served(specs)
    files = tuple(list(corpus.files)[:2])
    more_specs = [QuerySpec(task.value, files=files) for task in Task if task is not Task.RELATIONAL]
    _, _, more_results = _served(more_specs)
    for spec, result in zip(specs + more_specs, results + more_results):
        oracle.check(spec, result)
        if not result:
            continue
        with pytest.raises(Mismatch):
            oracle.check(spec, _corrupt(result))


def test_top_k_that_skips_a_higher_count_is_rejected():
    oracle = Oracle({"a.txt": "x x x y y z".split(), "b.txt": "z w".split()})
    spec = QuerySpec("word_count", top_k=2)
    oracle.check(spec, {"x": 3, "y": 2})
    oracle.check(spec, {"x": 3, "z": 2})  # a tie may break either way
    with pytest.raises(Mismatch):
        oracle.check(spec, {"x": 3, "w": 1})


def test_checker_follows_mutations():
    oracle = Oracle({"a.txt": ["x", "y"], "b.txt": ["y"]})
    oracle.append({"c.txt": ["z"]})
    oracle.replace("a.txt", ["y"])
    oracle.remove("b.txt")
    oracle.check(QuerySpec("word_count"), {"y": 1, "z": 1})
    with pytest.raises(Mismatch):
        oracle.check(QuerySpec("word_count"), {"x": 1, "y": 2, "z": 1})


def test_a_corrupted_answer_fails_the_run(monkeypatch):
    original = service_module.shape_result

    def corrupting(query, result, **kwargs):
        shaped = original(query, result, **kwargs)
        return _corrupt(shaped) if query.task is Task.SORT and shaped else shaped

    monkeypatch.setattr(service_module, "shape_result", corrupting)
    result = run_workload("cold-build", seed=5, seconds=0.2, trace=False)
    assert result["correct"] is False
    assert result["failed"] == 0
    assert result["attempted"] >= 3


def test_a_dropped_answer_fails_the_run(monkeypatch):
    original = AnalyticsService.run_batch

    def dropping(self, queries, **kwargs):
        return original(self, queries, **kwargs)[:-1]

    monkeypatch.setattr(AnalyticsService, "run_batch", dropping)
    result = run_workload("cold-build", seed=5, seconds=0.2, trace=False)
    assert result["correct"] is False
    assert result["failed"] == 0


def test_the_helper_process_of_a_spawned_worker_is_stopped_and_reaped():
    import multiprocessing
    from multiprocessing import resource_tracker

    from perfbench.workloads import _stop_resource_tracker

    process = multiprocessing.get_context("spawn").Process(target=int)
    process.start()
    process.join()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    _stop_resource_tracker()
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
