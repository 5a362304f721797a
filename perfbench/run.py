"""Run one benchmark workload and print its result as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-serve --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with the per-layer span recorder installed for every
other round of the timed phase (the untraced rounds between them give
the tracing overhead), prints the per-layer self-time table, writes the
spans to ``perfbench/out/`` and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The library is
imported from ``src/`` next to this directory; without it the command
fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"cannot find the library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir=HERE / "out"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
