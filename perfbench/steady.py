"""Steadiness helper: run workloads over several seeds and summarize each metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload warm-serve --seeds 10
    python3 perfbench/steady.py --seeds 5 --first-seed 100 --trace 1

Each run is a separate ``perfbench/run.py`` process with its own seed.
For every metric the helper prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  For end-to-end
metrics it also prints the metric's bound from ``BENCHMARK.json`` and
whether the spread stays under a third of it (``setup_s`` included);
these tables are where the bounds come from.  The verdict also requires
every run to answer correctly with no failed operation.

``--save FILE`` keeps the runs; ``--against FILE`` then compares this
set's medians with those of a saved set of the same code and checks that
no end-to-end metric is worse by more than its bound::

    python3 perfbench/steady.py --save perfbench/out/set1.json
    python3 perfbench/steady.py --first-seed 11 --against perfbench/out/set1.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list, bounds: dict) -> bool:
    correct = all(r["correct"] for r in results)
    failed = sum(r["failed"] for r in results)
    steady = correct and failed == 0
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{workload}: {len(results)} runs, correct {correct}, {failed} failed operations, "
          f"failed share {sorted(shares)}")
    print(f"{'metric':<32}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  ok")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        ok = ""
        if bound is not None:
            ok = "yes" if spread < bound / 3 else "NO"
            steady &= ok == "yes"
        bound_text = f"{bound:.2f}" if bound is not None else ""
        print(f"{name:<32}{median:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{bound_text:>8}  {ok}")
    steady &= len(shares) == 1
    return steady


def compare(workload: str, results: list, earlier: list, spec: dict) -> bool:
    """Whether no end-to-end metric's median is worse than ``earlier``'s by more than its bound."""
    agree = True
    print(f"\n{workload}: median against the saved set")
    print(f"{'metric':<32}{'saved':>14}{'now':>14}{'worse by':>10}{'bound':>8}  ok")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        before = statistics.median(r["metrics"][name]["value"] for r in earlier)
        now = statistics.median(r["metrics"][name]["value"] for r in results)
        worse = (now - before) / before
        if metric["better"] == "higher":
            worse = -worse
        ok = worse <= metric["bound"]
        agree &= ok
        print(f"{name:<32}{before:>14.4f}{now:>14.4f}{worse:>+10.3f}{metric['bound']:>8.2f}  {'yes' if ok else 'NO'}")
    before_shares = {r["failed"] / r["attempted"] for r in earlier}
    now_shares = {r["failed"] / r["attempted"] for r in results}
    if before_shares != now_shares:
        print(f"failed share differs: {sorted(before_shares)} saved, {sorted(now_shares)} now")
        agree = False
    return agree


def main(argv=None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the runs to this JSON file")
    parser.add_argument("--against", type=Path, help="compare medians with runs saved by --save")
    args = parser.parse_args(argv)
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    bounds = {} if args.trace else {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = agree = True
    saved = {}
    for workload in workloads:
        results = saved[workload] = []
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            results.append(run_once(workload, seed, args.seconds, args.trace))
        steady &= summarize(workload, results, bounds)
        print(f"({time.perf_counter() - started:.0f} s for {args.seeds} runs)")
        if workload in earlier and not args.trace:
            agree &= compare(workload, results, earlier[workload], spec)
        if args.save is not None:
            args.save.parent.mkdir(parents=True, exist_ok=True)
            args.save.write_text(json.dumps(saved, indent=1), encoding="utf-8")
    print("\nevery run correct and every spread under a third of its bound" if steady else "\nNOT steady")
    if earlier:
        print("medians agree with the saved set within every bound" if agree else "medians DISAGREE with the saved set")
    return 0 if steady and agree else 1


if __name__ == "__main__":
    sys.exit(main())
