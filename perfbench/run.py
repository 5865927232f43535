"""The repository's benchmark: one command per workload, seed and trace mode.

    python3 perfbench/run.py --workload scan_query --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.json and
perfbench/LAYERS.md for why each exists and which layer metrics should
move on it):

* ``scan_query`` — SQL scans over a transposed file, plain and 2-shard;
* ``analyst_lifecycle`` — one durable analyst: materialize, ask, re-ask,
  correct, undo, fit, checkpoint, recover;
* ``wire_mixed`` — the wire server in a child process under an 80/20
  read/write closed loop from 2 connections.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics, their times stated at a reference machine speed
(``common.Speed``); ``--trace 1`` runs the same workload, then a traced
pass, and reports the per-layer metrics, as measured.  Every run checks the program's answers.
Standard output ends with a ``report`` line (fingerprint, sizes, stream
hashes, failures) and then the result line the metrics are read from:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero, with no result line, when the program's source is missing or
the run cannot complete.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("scan_query", "analyst_lifecycle", "wire_mixed")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import fingerprint

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    module = importlib.import_module(args.workload)
    outcome = module.run(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        measured = outcome.per_layer
        measured["fail_ratio"] = outcome.failed / max(outcome.attempted, 1)
        catalogue = per_layer
    else:
        measured = outcome.end_to_end
        catalogue = end_to_end
    unknown = sorted(set(measured) - set(catalogue))
    if unknown:
        raise RuntimeError(f"workload reported metrics outside the catalogue: {unknown}")
    # Layers the workload leaves idle report 0: they should stay flat there.
    idle = [name for name in catalogue if name not in measured]
    if not args.trace and idle:
        raise RuntimeError(f"end-to-end metrics not measured: {idle}")
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in catalogue.items()
    }
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(ROOT, args.seed),
        "sizes": outcome.report,
        "idle_layers": idle,
        "errors": outcome.errors,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
