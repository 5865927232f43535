"""scan_query: ad-hoc SQL over a transposed file, plain and 2-shard layouts.

One caller in a closed loop runs a fixed rotation of query classes
through ``sql.parse`` + ``planner.plan`` against the same microdata table,
stored once as a plain ``TransposedFile`` (the vectorized single stream)
and once as a 2-shard ``ShardedTransposedFile`` (scatter-gather): four
classes on the plain layout, the three join-free ones on the shards.  The
table is many times the 64-page buffer pool, so every scan reaches the
simulated disk.  The workload only reads: every answer is checked against
a row-engine reference computed once at set-up.  The Summary Database,
durability and the server stay idle.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any

from common import (
    FLOAT_RTOL,
    Outcome,
    Speed,
    deviation,
    log,
    median,
    peak_rss_mb,
    percentile,
    stream_hash,
    timed,
)

from repro.incremental.sketches import EPSILON_HLL, EPSILON_TDIGEST
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relational.catalog import Catalog
from repro.relational.planner import explain_analyze, plan
from repro.relational.relation import StoredRelation
from repro.relational.sharded import get_executor
from repro.relational.sql import parse
from repro.stats import descriptive
from repro.storage.disk import SimulatedDisk
from repro.storage.pager import BufferPool
from repro.storage.sharded import ShardedTransposedFile
from repro.storage.transposed import TransposedFile
from repro.workloads.census import generate_microdata, race_codebook
from repro.workspace.fleet import derive_seed

N_ROWS = 40_000
SHARDS = 2
BLOCK_SIZE = 4096
POOL_PAGES = 64
SETUP_REPEATS = 5


@dataclass(frozen=True)
class QueryClass:
    name: str
    sql: str
    #: How each output column of the 2-shard answer is compared with the
    #: reference: exact, float (reassociated sums), tdigest (rank error of
    #: the INCOME median) or hll (relative cardinality error).
    shard_checks: tuple[str, ...]
    #: Source columns the query reads (for the storage-only scan probe).
    columns: tuple[str, ...]


QUERIES = (
    QueryClass(
        "groupby",
        "SELECT REGION, count(INCOME) AS n, sum(INCOME) AS s, avg(INCOME) AS a, "
        "min(INCOME) AS lo, max(INCOME) AS hi FROM micro "
        "WHERE HOURS_WORKED > 20 GROUP BY REGION",
        ("exact", "exact", "float", "float", "exact", "exact"),
        ("REGION", "INCOME", "HOURS_WORKED"),
    ),
    QueryClass(
        "holistic",
        "SELECT RACE, median(INCOME) AS med, count(DISTINCT AGE) AS ages "
        "FROM micro GROUP BY RACE",
        ("exact", "tdigest", "hll"),
        ("RACE", "INCOME", "AGE"),
    ),
    QueryClass(
        "narrow",
        "SELECT PERSON_ID, INCOME FROM micro WHERE AGE > 60",
        ("exact", "exact"),
        ("PERSON_ID", "INCOME", "AGE"),
    ),
    QueryClass(
        "join",
        "SELECT VALUE, count(INCOME) AS n, avg(INCOME) AS a "
        "FROM micro JOIN race ON RACE = CATEGORY GROUP BY VALUE",
        ("exact", "exact", "exact"),
        ("RACE", "INCOME"),
    ),
)

LAYOUTS = ("plain", "sharded")
#: One rotation: every class on the plain layout, then the join-free ones
#: on the shards.  The join has no scatter-gather form and runs on the row
#: engine either way, so it runs once: 7 queries per rotation.
ROTATION = [("plain", q) for q in QUERIES] + [
    ("sharded", q) for q in QUERIES if q.name != "join"
]


class Tables:
    """The loaded table in both layouts, with a catalog for each."""

    def __init__(self, seed: int) -> None:
        data = generate_microdata(N_ROWS, seed=derive_seed(seed, "microdata"))
        self.schema = data.schema
        self.rows = list(data)
        pool = BufferPool(SimulatedDisk(block_size=BLOCK_SIZE), capacity=POOL_PAGES)
        plain = TransposedFile(pool, self.schema.types, name="micro")
        plain.append_rows(self.rows)
        pool.flush_all()
        sharded = ShardedTransposedFile(
            self.schema.types, shards=SHARDS, name="micro", block_size=BLOCK_SIZE
        )
        sharded.append_rows(self.rows)
        self.pool = pool
        self.plain = StoredRelation("micro", self.schema, plain)
        self.sharded = StoredRelation("micro", self.schema, sharded)
        self.executor = get_executor(sharded)
        codes = race_codebook().to_relation()
        self.catalogs = {}
        for layout, relation in (("plain", self.plain), ("sharded", self.sharded)):
            catalog = Catalog()
            catalog.register(relation)
            catalog.register(codes, "race")
            self.catalogs[layout] = catalog
        # Start the shard worker processes and ship each shard once, as a
        # user's first sharded query would.
        list(plan(parse(QUERIES[0].sql), self.catalogs["sharded"]))

    def close(self) -> None:
        self.executor.close()


def run_query(catalog: Catalog, sql: str) -> list[tuple[Any, ...]]:
    return list(plan(parse(sql), catalog))


class Checker:
    """Compares query answers with the set-up reference."""

    def __init__(self, tables: Tables) -> None:
        catalog = tables.catalogs["plain"]
        self.reference = {
            q.name: list(plan(parse(q.sql), catalog, use_vectorized=False))
            for q in QUERIES
        }
        # Sorted INCOME per RACE: the rank-error check of shard medians.
        race = tables.schema.index_of("RACE")
        income = tables.schema.index_of("INCOME")
        by_race: dict[int, list[float]] = {}
        for row in tables.rows:
            by_race.setdefault(row[race], []).append(row[income])
        self.sorted_income = {race: sorted(v) for race, v in by_race.items()}

    def check(self, outcome: Outcome, query: QueryClass, layout: str, got: list) -> None:
        want = self.reference[query.name]
        if layout == "plain" or all(kind == "exact" for kind in query.shard_checks):
            outcome.check(got == want, lambda: f"{layout} {query.name}: answer differs")
            return
        if not outcome.check(
            len(got) == len(want), lambda: f"{layout} {query.name}: row count differs"
        ):
            return
        for got_row, want_row in zip(got, want):
            for kind, g, w in zip(query.shard_checks, got_row, want_row):
                if not self._cell_ok(kind, g, w, got_row[0]):
                    outcome.fail(f"{layout} {query.name}: {kind} cell {g!r} vs {w!r}")
                    return

    def _cell_ok(self, kind: str, got: Any, want: Any, group: Any) -> bool:
        if kind == "exact":
            return got == want
        if kind == "float":
            return deviation(got, want) <= FLOAT_RTOL
        if kind == "hll":
            return abs(got - want) <= EPSILON_HLL * want
        values = self.sorted_income[group]
        lo = descriptive.quantile(values, max(0.0, 0.5 - EPSILON_TDIGEST))
        hi = descriptive.quantile(values, min(1.0, 0.5 + EPSILON_TDIGEST))
        return lo <= got <= hi


def _self_times(node: Any, into: dict[str, float]) -> None:
    child_time = sum(child.elapsed_s for child in node.children)
    into[node.label] = into.get(node.label, 0.0) + node.elapsed_s - child_time
    for child in node.children:
        _self_times(child, into)


def _timed_phase(tables: Tables, checker: Checker, outcome: Outcome, seconds: float):
    """Whole rotations until ``seconds`` passed, with a probe of the
    machine's speed before each query.  Returns each query's latency by
    layout and class, and each rotation's mean query latency, as measured
    and at the reference speed."""
    by_class: dict[str, list[float]] = {}
    rotation_means: list[float] = []
    scaled_means: list[float] = []
    started = time.perf_counter()
    while not rotation_means or time.perf_counter() - started < seconds:
        busy = 0.0
        speed = Speed()
        for layout, query in ROTATION:
            speed.probe()
            start = time.perf_counter()
            got = run_query(tables.catalogs[layout], query.sql)
            elapsed = time.perf_counter() - start
            outcome.attempted += 1
            busy += elapsed
            by_class.setdefault(f"{layout}.{query.name}", []).append(elapsed)
            checker.check(outcome, query, layout, got)
        rotation_means.append(busy / len(ROTATION))
        scaled_means.append(rotation_means[-1] * speed.factor())
    return by_class, rotation_means, scaled_means


def _layer_probe(tables: Tables, checker: Checker, outcome: Outcome, seconds: float):
    """Traced rotations through ``explain_analyze``, each query also run
    untraced just before it (the tracing overhead, free of drift between
    phases), plus benchmark-timed calls into storage and the
    parser/planner."""
    layer: dict[str, float] = {}
    tracer = Tracer()
    self_ms: dict[str, float] = {}
    rows_out = {q.name: 0 for q in QUERIES}
    untraced_s = traced_s = 0.0
    rotations = 0
    started = time.perf_counter()
    while rotations == 0 or time.perf_counter() - started < seconds:
        for layout, query in ROTATION:
            catalog = tables.catalogs[layout]
            tables.executor.tracer = NULL_TRACER
            start = time.perf_counter()
            got = run_query(catalog, query.sql)
            untraced_s += time.perf_counter() - start
            checker.check(outcome, query, layout, got)
            outcome.attempted += 1
            tables.executor.tracer = tracer
            start = time.perf_counter()
            result = explain_analyze(query.sql, catalog)
            traced_s += time.perf_counter() - start
            got = list(result.relation)
            checker.check(outcome, query, layout, got)
            outcome.attempted += 1
            times: dict[str, float] = {}
            _self_times(result.root, times)
            for label, value in times.items():
                key = f"{layout}.{label}"
                self_ms[key] = self_ms.get(key, 0.0) + value * 1e3
            if layout == "plain":
                rows_out[query.name] += len(got)
        rotations += 1
    tables.executor.tracer = NULL_TRACER
    per_rot = 1.0 / rotations
    layer["relational.vec_scan_self_ms"] = self_ms.get("plain.VecScan", 0.0) * per_rot
    layer["relational.vec_select_self_ms"] = self_ms.get("plain.VecSelect", 0.0) * per_rot
    layer["relational.vec_groupby_self_ms"] = self_ms.get("plain.VecGroupBy", 0.0) * per_rot
    layer["relational.vec_project_self_ms"] = self_ms.get("plain.VecProject", 0.0) * per_rot
    layer["relational.row_join_self_ms"] = self_ms.get("plain.HashJoin", 0.0) * per_rot
    layer["relational.row_groupby_self_ms"] = self_ms.get("plain.GroupBy", 0.0) * per_rot
    layer["relational.sharded_groupby_ms"] = self_ms.get("sharded.ShardedGroupBy", 0.0) * per_rot
    scans = [s for s in tracer.walk() if s.name == "shard.scan"]
    layer["relational.shard_scan_ms"] = sum(s.elapsed_s for s in scans) * 1e3 * per_rot
    layer["relational.shard_scatter"] = tracer.total("shard.scatter") * per_rot
    layer["relational.shard_gather"] = tracer.total("shard.gather") * per_rot
    for query in QUERIES:
        out = max(rows_out[query.name], 1)
        layer[f"relational.rows_in_per_row_out.{query.name}"] = N_ROWS * rotations / out

    # Storage alone: one rotation's columns through scan_column_chunks,
    # with no operator above, and the buffer pool's own counters.
    plain = tables.plain
    tables.pool.stats.reset()
    start = time.perf_counter()
    for query in QUERIES:
        indexes = [plain.schema.index_of(name) for name in query.columns]
        for _ in plain.scan_column_chunks(indexes):
            pass
    layer["storage.scan_ms"] = (time.perf_counter() - start) * 1e3
    stats = tables.pool.stats
    layer["storage.pages_read"] = float(stats.misses)
    layer["storage.pool_hit_ratio"] = stats.hit_ratio

    parse_plan = []
    for query in QUERIES:
        for layout in LAYOUTS:
            start = time.perf_counter()
            plan(parse(query.sql), tables.catalogs[layout])
            parse_plan.append(time.perf_counter() - start)
    layer["relational.parse_plan_ms"] = median(parse_plan) * 1e3

    start = time.perf_counter()
    tracer.counter_totals()
    layer["obs.stats_call_ms"] = (time.perf_counter() - start) * 1e3
    layer["obs.trace_overhead"] = untraced_s / traced_s
    return layer


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setup_times = []
    tables = None
    for _ in range(SETUP_REPEATS):
        if tables is not None:
            tables.close()
            tables = None
        elapsed, tables = timed(lambda: Tables(seed))
        setup_times.append(elapsed)
    log(f"scan_query: set-up at the reference speed {setup_times}")
    try:
        checker = Checker(tables)
        outcome.report.update(
            rows=N_ROWS,
            shards=SHARDS,
            pages=tables.plain.storage.page_count,
            pool_pages=POOL_PAGES,
            shard_mode=tables.executor.resolved_mode,
            stream_hash=stream_hash((layout, q.sql) for layout, q in ROTATION),
            data_hash=stream_hash(tables.rows[:1000]),
        )
        gc.collect()
        by_class, rotation_means, scaled_means = _timed_phase(
            tables, checker, outcome, seconds
        )
        latencies = [x for values in by_class.values() for x in values]
        outcome.report.update(
            rotations=len(rotation_means),
            class_p50_ms={name: median(v) * 1e3 for name, v in by_class.items()},
            measured_read_p50_ms=median(rotation_means) * 1e3,
        )
        # Every class adds to a rotation's mean latency, and the median
        # rotation is not moved by a slow spell of the machine during one
        # rotation.  One caller runs the queries back to back, so its
        # throughput is the reciprocal of that mean.
        read_ms = median(scaled_means) * 1e3
        outcome.end_to_end = {
            "setup_s": median(setup_times),
            "ops_per_s": 1e3 / read_ms,
            "read_p50_ms": read_ms,
            "peak_rss_mb": peak_rss_mb(),
        }
        if trace:
            layer = _layer_probe(tables, checker, outcome, seconds)
            # A rotation holds 7 queries, so the p95 is the slowest class.
            layer["read_p95_ms"] = percentile(latencies, 0.95) * 1e3
            layer["rows_per_s"] = N_ROWS * len(latencies) / sum(latencies)
            outcome.per_layer = layer
    finally:
        tables.close()
    return outcome
