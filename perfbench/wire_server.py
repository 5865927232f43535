"""The wire_mixed server process: one durable DBMS served over TCP.

    python3 perfbench/wire_server.py --dir D --seed S --trace 0|1

Builds the view from seeded microdata (:func:`build_dbms`), serves it on a
free localhost port with one worker per core and prints ``{"port": P}``.
It serves until its standard input closes, then stops the server, closes
the WAL and prints ``{"peak_rss_mb": M}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from common import nproc, peak_rss_mb  # noqa: E402

from repro.concurrency.tracing import ConcurrentTracer  # noqa: E402
from repro.core.dbms import StatisticalDBMS  # noqa: E402
from repro.durability.manager import DurabilityManager  # noqa: E402
from repro.server.server import AnalystServer, ServerThread  # noqa: E402
from repro.views.materialize import SourceNode, ViewDefinition  # noqa: E402
from repro.workloads.census import generate_microdata  # noqa: E402
from repro.workspace.fleet import derive_seed  # noqa: E402

DATASET = "census_micro"
VIEW = "v"
VIEW_ROWS = 5_000


def build_dbms(directory: Path, seed: int, tracer=None) -> StatisticalDBMS:
    """A durable DBMS in ``directory`` holding the seeded ``VIEW_ROWS``-row
    microdata and the view ``VIEW`` over all of it."""
    manager = DurabilityManager(directory, tracer=tracer)
    dbms = StatisticalDBMS(durability=manager, tracer=tracer)
    dbms.load_raw(
        generate_microdata(VIEW_ROWS, seed=derive_seed(seed, "microdata"), name=DATASET)
    )
    dbms.create_view(ViewDefinition(VIEW, SourceNode(DATASET)))
    return dbms


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = ConcurrentTracer() if args.trace else None
    dbms = build_dbms(Path(args.dir), args.seed, tracer)
    server = AnalystServer(dbms, tracer=tracer, max_workers=nproc())
    thread = ServerThread(server).start()
    try:
        print(json.dumps({"port": thread.port}), flush=True)
        sys.stdin.read()
    finally:
        thread.stop()
        dbms.durability.close()
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
