"""analyst_lifecycle: one durable analyst over concrete views (no query engine).

Raw microdata sits on the simulated tape.  Each episode materializes a
``REGION <= k`` view, runs the exploratory script (first asks: cache
misses, full computes), the confirmatory script (re-asks: Summary
Database hits), 100 cell corrections with an ``undo(3)`` after every
tenth (each a WAL transaction with an fsync, propagated through finite
differencing), the confirmatory script again, an OLS fit, and a
checkpoint except after the last episode.  Episodes run in whole cycles
over the view sizes in :data:`K_CYCLE`, so every run has the same mix.
At the end the durable directory is recovered and compared with the
state before the restart.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from common import (
    Outcome,
    Speed,
    WorkDir,
    deviation,
    log,
    median,
    peak_rss_mb,
    percentile,
    rtol_for,
    stream_hash,
    timed,
)

from repro.core.dbms import StatisticalDBMS
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import recover
from repro.obs.tracer import Tracer
from repro.relational.expressions import col
from repro.stats.histogram import build_histogram
from repro.stats.models import IncrementalLinearRegression
from repro.views.materialize import SelectNode, SourceNode, ViewDefinition
from repro.workloads.census import generate_microdata
from repro.workloads.sessions import cda_script, eda_script
from repro.workloads.updates import correction_stream
from repro.workspace.fleet import derive_seed

RAW_ROWS = 20_000
DATASET = "census_micro"
#: View sizes per cycle: REGION <= k keeps about k tenths of the rows.
K_CYCLE = (2, 5, 8)
ATTRS = ("INCOME", "AGE", "HOURS_WORKED", "YEARS_EDUCATION")
CORRECTED = ("INCOME", "HOURS_WORKED")
UPDATES = 100
UNDO_EVERY = 10
UNDO_COUNT = 3
MODEL = ("INCOME", ("AGE", "YEARS_EDUCATION", "HOURS_WORKED"))
#: Views kept alive; older ones are dropped so checkpoints stay one size.
LIVE_VIEWS = 2
SETUP_REPEATS = 9
RECOVERIES = 3


@dataclass
class Record:
    """Latencies and layer counters of one sequence of episodes."""

    reads: list[float] = field(default_factory=list)
    hits: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    materialize: list[float] = field(default_factory=list)
    fits: list[float] = field(default_factory=list)
    checkpoints: list[float] = field(default_factory=list)
    drops: list[float] = field(default_factory=list)
    batch_compute: list[float] = field(default_factory=list)
    wal_bytes: int = 0
    entries_visited: int = 0
    incremental_updates: int = 0
    regenerations: int = 0
    queries: int = 0
    cache_hits: int = 0
    streams: list[Any] = field(default_factory=list)
    episodes: int = 0
    histogram_geometry_mismatches: int = 0
    #: Largest relative difference between a cached entry and a fresh compute.
    max_deviation: float = 0.0
    #: ops ÷ time spent in ops, per cycle of episodes, as measured and at
    #: the reference speed; reads at the reference speed.
    measured_cycle_rates: list[float] = field(default_factory=list)
    cycle_rates: list[float] = field(default_factory=list)
    scaled_reads: list[float] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(
            sum(x)
            for x in (
                self.reads,
                self.writes,
                self.materialize,
                self.fits,
                self.checkpoints,
                self.drops,
            )
        )

    @property
    def ops(self) -> int:
        return (
            len(self.reads)
            + len(self.writes)
            + len(self.materialize)
            + len(self.fits)
            + len(self.checkpoints)
            + len(self.drops)
        )


class Analyst:
    """A durable DBMS with the raw data loaded, driven episode by episode."""

    def __init__(self, directory: Path, seed: int, tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.directory = directory
        raw = generate_microdata(
            RAW_ROWS, seed=derive_seed(seed, "microdata"), name=DATASET
        )
        self.manager = DurabilityManager(directory, tracer=tracer)
        self.dbms = StatisticalDBMS(durability=self.manager, tracer=tracer)
        self.dbms.load_raw(raw)

    def close(self) -> None:
        self.manager.close()

    def episode(
        self, index: int, checkpoint: bool, rec: Record, outcome: Outcome, speed: Speed
    ) -> None:
        """One episode, with a probe of the machine's speed before each step."""
        dbms = self.dbms
        k = K_CYCLE[index % len(K_CYCLE)]
        name = f"e{index}"
        definition = ViewDefinition(
            name, SelectNode(SourceNode(DATASET), col("REGION") <= k)
        )
        speed.probe()
        start = time.perf_counter()
        dbms.create_view(definition, allow_duplicate=True)
        rec.materialize.append(time.perf_counter() - start)
        session = dbms.session(name)

        speed.probe()
        for event in eda_script(ATTRS) + cda_script(ATTRS):
            self._read(session, event.function, event.attribute, rec, outcome)

        corrections = self._corrections(session, index)
        rec.streams.append([name, k, corrections])
        wal = self.manager.wal
        speed.probe()
        for i, (attribute, row, value) in enumerate(corrections):
            before = wal.size_bytes
            start = time.perf_counter()
            report = session.update_cells(attribute, [(row, value)])
            rec.writes.append(time.perf_counter() - start)
            rec.wal_bytes += wal.size_bytes - before
            self._propagated(report, rec)
            outcome.attempted += 1
            if i % UNDO_EVERY == UNDO_EVERY - 1:
                before = wal.size_bytes
                start = time.perf_counter()
                report = session.undo(UNDO_COUNT)
                rec.writes.append(time.perf_counter() - start)
                rec.wal_bytes += wal.size_bytes - before
                self._propagated(report, rec)
                outcome.attempted += 1

        speed.probe()
        for event in cda_script(ATTRS):
            self._read(session, event.function, event.attribute, rec, outcome)
        speed.probe()
        start = time.perf_counter()
        session.fit_model(MODEL[0], list(MODEL[1]))
        rec.fits.append(time.perf_counter() - start)
        outcome.attempted += 1

        speed.probe()
        if index >= LIVE_VIEWS:
            start = time.perf_counter()
            dbms.drop_view(f"e{index - LIVE_VIEWS}")
            rec.drops.append(time.perf_counter() - start)
            outcome.attempted += 1
        if checkpoint:
            start = time.perf_counter()
            dbms.checkpoint()
            rec.checkpoints.append(time.perf_counter() - start)
            outcome.attempted += 1

        rec.queries += session.stats.queries
        rec.cache_hits += session.stats.cache_hits
        rec.episodes += 1
        self._check_cache(session, rec, outcome)

    def _read(self, session, function: str, attribute: str, rec: Record, outcome: Outcome) -> None:
        hits = session.stats.cache_hits
        start = time.perf_counter()
        session.compute(function, attribute)
        elapsed = time.perf_counter() - start
        rec.reads.append(elapsed)
        if session.stats.cache_hits > hits:
            rec.hits.append(elapsed)
        outcome.attempted += 1

    def _corrections(self, session, index: int) -> list[tuple[str, int, float]]:
        """The episode's cell corrections, alternating the corrected
        attributes, each stream from the program's ``correction_stream``."""
        per_attribute = [
            list(
                correction_stream(
                    session.view.column(attribute),
                    UPDATES // len(CORRECTED),
                    noise_sd=25.0,
                    seed=derive_seed(self.seed, "corrections", index, attribute),
                )
            )
            for attribute in CORRECTED
        ]
        out = []
        for updates in zip(*per_attribute):
            for attribute, update in zip(CORRECTED, updates):
                out.append((attribute, update.row, round(update.value, 6)))
        return out

    @staticmethod
    def _propagated(report, rec: Record) -> None:
        rec.entries_visited += report.entries_visited
        rec.incremental_updates += report.incremental_updates

    def _check_cache(self, session, rec: Record, outcome: Outcome) -> None:
        """Every fresh cached entry equals a from-scratch compute over the
        view column (to :func:`common.rtol_for`), or lies within its
        stamped epsilon."""
        view = session.view
        functions = self.dbms.management.functions
        batch = 0.0
        for entry in list(view.summary.entries()):
            regenerations = getattr(getattr(entry.maintainer, "stats", None), "regenerations", 0)
            rec.regenerations += regenerations
            if entry.stale:
                continue
            function, attributes = entry.key.function, entry.key.attributes
            if function == "ols_model":
                fresh = IncrementalLinearRegression(k=len(attributes) - 1)
                fresh.initialize(view.rows_provider(attributes)())
                want = fresh.value
            else:
                values = view.column(attributes[0])
                start = time.perf_counter()
                want = functions.get(function).compute(values)
                batch += time.perf_counter() - start
            if function == "histogram" and deviation(entry.result, want) > 0:
                # A maintained histogram keeps the geometry its maintainer
                # chose (20 equal bins), while a fresh compute picks bins
                # by Sturges' rule: the two disagree on edges by design of
                # the program.  Its counts must still be exact for its own
                # edges; the geometry mismatch is reported, not failed.
                rec.histogram_geometry_mismatches += 1
                edges, counts = entry.result
                want = (
                    edges,
                    build_histogram(
                        values, bins=len(counts), lo=edges[0], hi=edges[-1]
                    ).counts,
                )
            found = deviation(entry.result, want)
            rtol = entry.epsilon if entry.epsilon is not None else rtol_for(function)
            if found <= rtol:
                rec.max_deviation = max(rec.max_deviation, found)
            else:
                outcome.fail(f"{view.name}: cached {entry.key} differs from a fresh compute")
        rec.batch_compute.append(batch)


def _cached(dbms: StatisticalDBMS) -> dict[str, tuple[list, dict]]:
    state = {}
    for name in dbms.registry.names():
        view = dbms.view(name)
        entries = {
            (entry.key.function, entry.key.attributes): entry.result
            for entry in view.summary.entries()
            if not entry.stale
        }
        state[name] = (list(view.relation), entries)
    return state


def _check_recovered(before: dict, dbms: StatisticalDBMS, outcome: Outcome) -> int:
    """Same views and rows; every recovered cache entry equals the
    pre-restart value.  Returns the number of entries compared."""
    after = _cached(dbms)
    outcome.check(
        sorted(after) == sorted(before),
        lambda: f"recovered views {sorted(after)} != {sorted(before)}",
    )
    compared = 0
    for name, (rows, entries) in after.items():
        if name not in before:
            continue
        old_rows, old_entries = before[name]
        outcome.check(rows == old_rows, f"recovered view {name}: rows differ")
        for key, value in entries.items():
            outcome.check(
                key in old_entries
                and deviation(value, old_entries[key]) <= rtol_for(key[0]),
                f"recovered view {name}: cached {key} differs",
            )
            compared += 1
    outcome.attempted += 1
    return compared


def _run_cycles(analyst: Analyst, seconds: float | None, outcome: Outcome) -> Record:
    """Whole cycles until ``seconds`` passed (one cycle when ``None``)."""
    rec = Record()
    started = time.perf_counter()
    index = 0
    while True:
        ops, busy, scaled_busy = rec.ops, rec.busy_s, 0.0
        for position in range(len(K_CYCLE)):
            last_of_cycle = position == len(K_CYCLE) - 1
            done = seconds is None or time.perf_counter() - started >= seconds
            episode_busy, reads, speed = rec.busy_s, len(rec.reads), Speed()
            analyst.episode(index, not (last_of_cycle and done), rec, outcome, speed)
            factor = speed.factor()
            scaled_busy += (rec.busy_s - episode_busy) * factor
            rec.scaled_reads.extend(x * factor for x in rec.reads[reads:])
            index += 1
        rec.measured_cycle_rates.append((rec.ops - ops) / (rec.busy_s - busy))
        rec.cycle_rates.append((rec.ops - ops) / scaled_busy)
        if seconds is None or time.perf_counter() - started >= seconds:
            return rec


def _recover_copies(directory: Path, work: Path, before: dict, outcome: Outcome, times: int):
    elapsed, reports = [], []
    for attempt in range(times):
        copy = work / f"recover-{attempt}"
        shutil.copytree(directory, copy)
        start = time.perf_counter()
        dbms, report = recover(copy)
        elapsed.append(time.perf_counter() - start)
        reports.append(report)
        compared = _check_recovered(before, dbms, outcome)
        dbms.durability.close()
        shutil.rmtree(copy)
    return elapsed, reports[-1], compared


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    with WorkDir("analyst_lifecycle") as work:
        setup_times = []
        analyst = None
        for attempt in range(SETUP_REPEATS):
            if analyst is not None:
                analyst.close()
            elapsed, analyst = timed(lambda: Analyst(work / f"dbms-{attempt}", seed))
            setup_times.append(elapsed)
        log(f"analyst_lifecycle: set-up at the reference speed {setup_times}")
        gc.collect()
        rec = _run_cycles(analyst, seconds, outcome)
        before = _cached(analyst.dbms)
        analyst.close()
        _, report, compared = _recover_copies(analyst.directory, work, before, outcome, 1)
        outcome.report.update(
            raw_rows=RAW_ROWS,
            k_cycle=list(K_CYCLE),
            episodes=rec.episodes,
            # Runs complete different numbers of cycles; the first cycle's
            # corrections identify the input.
            stream_hash=stream_hash(rec.streams[: len(K_CYCLE)]),
            flush_policy="fsync per WAL commit",
            recovered=report.summary(),
            recovered_entries_compared=compared,
            histogram_geometry_mismatches=rec.histogram_geometry_mismatches,
            max_rel_deviation=rec.max_deviation,
            measured_ops_per_s=median(rec.measured_cycle_rates),
            measured_read_p50_ms=median(rec.reads) * 1e3,
        )
        # Write latency is a per-layer metric (see LAYERS.md); like the
        # tails, it comes from the untraced phase of the traced run.
        writes_and_tails = {
            "read_p95_ms": percentile(rec.reads, 0.95) * 1e3,
            "write_p50_ms": median(rec.writes) * 1e3,
            "write_p95_ms": percentile(rec.writes, 0.95) * 1e3,
        }
        outcome.end_to_end = {
            "setup_s": median(setup_times),
            # The median cycle: a slow spell of the machine during one
            # cycle does not move it.
            "ops_per_s": median(rec.cycle_rates),
            "read_p50_ms": median(rec.scaled_reads) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        if trace:
            outcome.per_layer = {**writes_and_tails, **_layer_probe(work, seed, outcome)}
    return outcome


def _layer_probe(work: Path, seed: int, outcome: Outcome) -> dict[str, float]:
    """One traced cycle on a fresh DBMS (so the counts repeat exactly at
    one seed) between two untraced ones (the tracing overhead), then timed
    recoveries of the traced directory."""

    def one_cycle(name: str, tracer: Tracer | None = None):
        analyst = Analyst(work / name, seed, tracer=tracer)
        rec = _run_cycles(analyst, None, outcome)
        state = _cached(analyst.dbms)
        analyst.close()
        return analyst, rec, state

    _, first, _ = one_cycle("untraced-before")
    tracer = Tracer()
    analyst, rec, before = one_cycle("traced", tracer)
    _, last, _ = one_cycle("untraced-after")
    untraced_ops_per_s = (first.ops + last.ops) / (first.busy_s + last.busy_s)
    start = time.perf_counter()
    tracer.counter_totals()
    stats_call_ms = (time.perf_counter() - start) * 1e3
    propagate_s = sum(s.elapsed_s for s in tracer.walk() if s.name == "propagate")
    # Commit fsyncs charged to the write spans (view creation, drops and
    # checkpoints sync too, but are not writes).
    write_fsyncs = sum(
        s.counters.get("wal.fsync", 0)
        for s in tracer.walk()
        if s.name in ("update_cells", "undo")
    )
    writes = len(rec.writes)
    recover_times, report, _ = _recover_copies(
        analyst.directory, work, before, outcome, RECOVERIES
    )
    recover_s = median(recover_times)
    return {
        "recover_s": recover_s,
        "views.materialize_ms": median(rec.materialize) * 1e3,
        "stats.batch_compute_ms": median(rec.batch_compute) * 1e3,
        "stats.fit_model_ms": median(rec.fits) * 1e3,
        "summary.hit_ratio": rec.cache_hits / rec.queries,
        "summary.hit_us": median(rec.hits) * 1e6,
        "core.propagate_ms": propagate_s * 1e3 / writes,
        "incremental.incremental_ratio": rec.incremental_updates / max(rec.entries_visited, 1),
        "incremental.window_regenerations": rec.regenerations / rec.episodes,
        "durability.wal_bytes_per_write": rec.wal_bytes / writes,
        "durability.fsyncs_per_write": write_fsyncs / writes,
        "durability.checkpoint_ms": median(rec.checkpoints) * 1e3,
        "durability.replay_ops_per_s": (
            report.operations_replayed + report.undos_replayed
        ) / recover_s,
        "obs.stats_call_ms": stats_call_ms,
        "obs.trace_overhead": (rec.ops / rec.busy_s) / untraced_ops_per_s,
    }
