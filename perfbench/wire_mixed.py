"""wire_mixed: the wire server in a child process under a mixed closed loop.

The server (``wire_server.py``) serves one durable 5k-row view with group
commit on and its worker pool at ``nproc``.  This process opens one
connection per core, at most 2, and drives each in a closed loop: 80%
``query`` of mean/var/sum/median, 15% ``update ... where PERSON_ID = k``
and 5% ``undo``.  Storage and the query engine stay idle; admission,
executor handoff, MVCC publication, locks and group commit do the work.

Every answer is checked afterwards.  The writes are replayed in version
order over the column values read at set-up; undo does not advance the
view version, so a query answered at version V must equal a fresh compute
over one of the states the view passed through at V.  The replayed final
state must equal a ``columns`` read pinned at the final version.
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from common import (
    Outcome,
    Speed,
    WorkDir,
    deviation,
    log,
    median,
    nproc,
    percentile,
    probe,
    rtol_for,
    stream_hash,
    timed,
)

from wire_server import VIEW, VIEW_ROWS, build_dbms

from repro.core.errors import ProtocolError, ServerError
from repro.concurrency.transactions import TransactionCoordinator
from repro.metadata.functions import FunctionRegistry
from repro.relational.expressions import col
from repro.server.client import ServerClient
from repro.workspace.fleet import derive_seed

HERE = Path(__file__).resolve().parent
READ_SHARE = 0.80
UPDATE_SHARE = 0.15  # the remaining 5% are undos
FUNCTIONS = ("mean", "var", "sum", "median")
ATTRIBUTES = ("INCOME", "HOURS_WORKED")
SETUP_REPEATS = 7
#: Ops pre-built per connection and second of the run; the closed loop
#: stops early (and says so in the report) if a stream runs out.
OPS_PER_SECOND_CAP = 2_000
#: Completed ops per block of one connection's throughput.
BLOCK = 200
#: Seconds of closed loop between two probes of the machine's speed.
SEGMENT_S = 1.0
#: Probes taken between two segments.
SEGMENT_PROBES = 3
#: The server's answers to overload and expired deadlines: counted as
#: failed operations, but not as wrong ones.
LEGIT_CODES = frozenset({"busy", "timeout"})


def build_streams(seed: int, connections: int, length: int) -> list[list[tuple]]:
    streams = []
    for connection in range(connections):
        rng = random.Random(derive_seed(seed, "wire", connection))
        ops: list[tuple] = []
        for _ in range(length):
            draw = rng.random()
            if draw < READ_SHARE:
                ops.append(("query", rng.choice(FUNCTIONS), rng.choice(ATTRIBUTES)))
            elif draw < READ_SHARE + UPDATE_SHARE:
                attribute = rng.choice(ATTRIBUTES)
                if attribute == "INCOME":
                    value = round(rng.lognormvariate(10.4, 0.7), 2)
                else:
                    value = round(rng.uniform(0.0, 80.0), 2)
                ops.append(("update", attribute, rng.randrange(VIEW_ROWS), value))
            else:
                ops.append(("undo",))
        streams.append(ops)
    return streams


class ServerProcess:
    """The server child: started on construction, stopped by :meth:`stop`."""

    def __init__(self, directory: Path, seed: int, trace: bool) -> None:
        self.directory = directory
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "wire_server.py"),
                "--dir", str(directory),
                "--seed", str(seed),
                "--trace", str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server exited with {self.proc.returncode} before serving")
        self.port = json.loads(line)["port"]

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        self.proc.stdin.close()
        lines = self.proc.stdout.read().splitlines()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return float(json.loads(lines[-1])["peak_rss_mb"])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


class Session:
    """A served DBMS with its connections opened and its summaries warm."""

    def __init__(self, directory: Path, seed: int, trace: bool) -> None:
        self.server = ServerProcess(directory, seed, trace)
        self.clients: list[ServerClient] = []
        try:
            for index in range(min(2, nproc())):
                client = ServerClient(port=self.server.port, timeout_s=60)
                self.clients.append(client)
                client.handshake(f"analyst{index}")
                client.open_view(VIEW)
            # Touch every query once, so the timed loop starts from the
            # steady state (a summary snapshot published with every key).
            for function in FUNCTIONS:
                for attribute in ATTRIBUTES:
                    self.clients[0].query(VIEW, function, attribute)
        except BaseException:
            self.close()
            self.server.kill()
            raise

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []


def _issue(client: ServerClient, op: tuple) -> dict[str, Any]:
    if op[0] == "query":
        return client.query(VIEW, op[1], op[2])
    if op[0] == "update":
        return client.update(
            VIEW, {op[1]: op[3]}, where={"attribute": "PERSON_ID", "equals": op[2]}
        )
    return client.undo(VIEW, count=1)


def _drive(client: ServerClient, ops: Iterator[tuple], deadline: float, out: list) -> None:
    """One connection's closed loop until ``deadline``; appends (op,
    latency, result, code, completion time)."""
    try:
        for op in ops:
            start = time.perf_counter()
            try:
                result, code = _issue(client, op), None
            except ServerError as exc:
                result, code = None, exc.code
            done = time.perf_counter()
            out.append((op, done - start, result, code, done))
            if done >= deadline:
                return
    except (ProtocolError, OSError) as exc:
        out.append((("disconnected",), 0.0, None, f"disconnected: {exc}", 0.0))


def _closed_loop(session: Session, streams: list[list[tuple]], seconds: float):
    """The connections' closed loops for ``seconds``, paused every
    :data:`SEGMENT_S` for probes of the machine's speed.  Returns every
    record, each connection's records, and their latencies at the
    reference speed (a segment's speed is the median of the probes on both
    sides of it)."""
    ops = [iter(stream) for stream in streams]
    outs: list[list] = [[] for _ in session.clients]
    scaled: list[list[float]] = [[] for _ in session.clients]
    end = time.perf_counter() + seconds
    before = [probe() for _ in range(SEGMENT_PROBES)]
    while time.perf_counter() < end:
        deadline = min(time.perf_counter() + SEGMENT_S, end)
        segment: list[list] = [[] for _ in session.clients]
        threads = [
            threading.Thread(target=_drive, args=(client, it, deadline, out))
            for client, it, out in zip(session.clients, ops, segment)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(SEGMENT_S + 120)
            if thread.is_alive():
                raise RuntimeError("a load connection did not finish")
        after = [probe() for _ in range(SEGMENT_PROBES)]
        factor = Speed(before + after).factor()
        before = after
        for out, scaled_out, records in zip(outs, scaled, segment):
            out.extend(records)
            scaled_out.extend(r[1] * factor for r in records)
        if not all(segment) or any(r[0] == ("disconnected",) for seg in segment for r in seg):
            break
    return [record for out in outs for record in out], outs, scaled


def _connection_rate(out: list, scaled: list[float]) -> float:
    """One connection's throughput at the reference speed: the median over
    blocks of :data:`BLOCK` completed ops of ops ÷ time spent in them, so
    a slow spell of the machine during one block does not move it."""
    latencies = [x for record, x in zip(out, scaled) if record[3] is None]
    blocks = [latencies[i : i + BLOCK] for i in range(0, len(latencies) - BLOCK + 1, BLOCK)]
    if not blocks:
        raise RuntimeError(f"a connection completed fewer than {BLOCK} ops")
    return median([BLOCK / sum(block) for block in blocks])


def _account(records: list, outcome: Outcome) -> dict[str, int]:
    """Count every op; classify failures by the server's error code."""
    codes: dict[str, int] = {}
    for op, _, _, code, _ in records:
        outcome.attempted += 1
        if code is None:
            continue
        codes[code] = codes.get(code, 0) + 1
        if code in LEGIT_CODES:
            outcome.failed += 1
        else:
            outcome.fail(f"{op[0]} answered error {code!r}")
    return codes


def _read_state(client: ServerClient) -> tuple[int, dict[str, list]]:
    result = client.columns(VIEW, ["PERSON_ID", *ATTRIBUTES])
    return result["version"], result["columns"]


def verify(initial: tuple, final: tuple, records: list, outcome: Outcome) -> dict[str, int]:
    """Replay the writes in version order; check every query answer
    against the states the view passed through at its version, to the
    tolerance of a maintained statistic (:func:`common.rtol_for`)."""
    version0, columns0 = initial
    outcome.check(
        columns0["PERSON_ID"] == list(range(VIEW_ROWS)),
        "view rows are not ordered by PERSON_ID",
    )
    state = {a: list(columns0[a]) for a in ATTRIBUTES}
    updates: dict[int, tuple] = {}
    undos: dict[int, int] = {}
    queries: dict[int, list] = {}
    for op, _, result, code, _ in records:
        if code is not None:
            continue
        if op[0] == "update":
            version = result["version"]
            outcome.check(version not in updates, f"two updates answered version {version}")
            updates[version] = op
        elif op[0] == "undo":
            undos[result["version"]] = undos.get(result["version"], 0) + result["undone"]
        else:
            queries.setdefault(result["version"], []).append((op, result["value"]))
    functions = FunctionRegistry()
    history: list[tuple[str, int, Any]] = []
    checked = 0
    worst = 0.0
    last = max([version0, *updates, *undos, *queries])
    for version in range(version0, last + 1):
        if version > version0:
            op = updates.get(version)
            if not outcome.check(op is not None, f"no update answered version {version}"):
                return {"queries_checked": checked}
            _, attribute, row, value = op
            history.append((attribute, row, state[attribute][row]))
            state[attribute][row] = value
        pending = list(queries.get(version, []))
        for undo in range(undos.get(version, 0) + 1):
            if undo:
                if not outcome.check(bool(history), f"undo at version {version} with no history"):
                    return {"queries_checked": checked}
                attribute, row, old = history.pop()
                state[attribute][row] = old
            expected: dict[tuple, Any] = {}
            still = []
            for (kind, function, attribute), value in pending:
                key = (function, attribute)
                if key not in expected:
                    expected[key] = functions.get(function).compute(state[attribute])
                found = deviation(value, expected[key])
                if found <= rtol_for(function):
                    worst = max(worst, found)
                else:
                    still.append(((kind, function, attribute), value))
            checked += len(pending) - len(still)
            pending = still
        for (_, function, attribute), value in pending:
            outcome.fail(f"query {function}({attribute}) at v{version} = {value!r} matches no state")
    version_f, columns_f = final
    outcome.check(version_f == last, f"final version {version_f} != replayed {last}")
    for attribute in ATTRIBUTES:
        outcome.check(
            columns_f[attribute] == state[attribute],
            f"final {attribute} column differs from the replayed writes",
        )
    outcome.attempted += 1  # the final columns read
    return {
        "queries_checked": checked,
        "writes_replayed": len(updates) + sum(undos.values()),
        "max_rel_deviation": worst,
    }


def _measure(session: Session, seed: int, seconds: float, outcome: Outcome):
    """The closed loop plus its checks: read and write latencies, read
    latencies and completed ops per second at the reference speed, and
    the report details."""
    streams = build_streams(seed, len(session.clients), int(seconds * OPS_PER_SECOND_CAP) + 100)
    initial = _read_state(session.clients[0])
    gc.collect()
    records, outs, scaled = _closed_loop(session, streams, seconds)
    final = _read_state(session.clients[0])
    codes = _account(records, outcome)
    checks = verify(initial, final, records, outcome)
    ok = [r for r in records if r[3] is None]
    reads = [latency for op, latency, _, _, _ in ok if op[0] == "query"]
    writes = [latency for op, latency, _, _, _ in ok if op[0] != "query"]
    ops_per_s = sum(_connection_rate(out, sc) for out, sc in zip(outs, scaled))
    scaled_reads = [
        x
        for out, sc in zip(outs, scaled)
        for record, x in zip(out, sc)
        if record[3] is None and record[0][0] == "query"
    ]
    exhausted = any(len(out) == len(ops) for out, ops in zip(outs, streams))
    info = {
        "measured_ops_per_s": sum(_connection_rate(out, [r[1] for r in out]) for out in outs),
        "measured_read_p50_ms": median(reads) * 1e3,
        "stream_hashes": [stream_hash(ops) for ops in streams],
        "error_codes": codes,
        "stream_exhausted": exhausted,
        **checks,
    }
    return reads, scaled_reads, writes, ops_per_s, info


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    with WorkDir("wire_mixed") as work:
        setup_times = []
        session = None
        for attempt in range(SETUP_REPEATS):
            if session is not None:
                session.close()
                session.server.stop()
            elapsed, session = timed(lambda: Session(work / f"server-{attempt}", seed, False))
            setup_times.append(elapsed)
        log(f"wire_mixed: set-up at the reference speed {setup_times}")
        try:
            reads, scaled_reads, writes, ops_per_s, info = _measure(
                session, seed, seconds, outcome
            )
            session.close()
            rss = session.server.stop()
        except BaseException:
            session.close()
            session.server.kill()
            raise
        outcome.report.update(
            view_rows=VIEW_ROWS,
            connections=min(2, nproc()),
            server_workers=nproc(),
            flush_policy="group commit",
            mix={"query": READ_SHARE, "update": UPDATE_SHARE, "undo": 1 - READ_SHARE - UPDATE_SHARE},
            reads=len(reads),
            writes=len(writes),
            **info,
        )
        # Write latency is a per-layer metric (see LAYERS.md); like the
        # tails, it comes from the untraced phase of the traced run.
        writes_and_tails = {
            "read_p95_ms": percentile(reads, 0.95) * 1e3,
            "write_p50_ms": median(writes) * 1e3,
            "write_p95_ms": percentile(writes, 0.95) * 1e3,
        }
        outcome.end_to_end = {
            "setup_s": median(setup_times),
            "ops_per_s": ops_per_s,
            "read_p50_ms": median(scaled_reads) * 1e3,
            "peak_rss_mb": rss,
        }
        if trace:
            outcome.per_layer = {
                **writes_and_tails,
                **_layer_probe(work, seed, seconds, reads, ops_per_s, outcome),
            }
    return outcome


def _layer_probe(work: Path, seed: int, seconds: float, wire_reads, untraced_ops_per_s, outcome):
    """A traced server under the same streams, its counters read through
    the ``stats`` op; then the stream replayed in-process."""
    session = Session(work / "traced", seed, trace=True)
    try:
        start = time.perf_counter()
        before = session.clients[0].stats()["counters"]
        stats_call_ms = (time.perf_counter() - start) * 1e3
        wal = work / "traced" / "log.wal"
        wal_before = wal.stat().st_size
        reads, _, writes, traced_ops_per_s, _ = _measure(session, seed, seconds, outcome)
        after = session.clients[0].stats()["counters"]
        wal_bytes = wal.stat().st_size - wal_before
        session.close()
        session.server.stop()
    except BaseException:
        session.close()
        session.server.kill()
        raise
    c = {name: after.get(name, 0) - before.get(name, 0) for name in after}
    n_writes = max(len(writes), 1)
    n_reads = max(len(reads), 1)
    copied, shared = c.get("mvcc.cow_copied", 0), c.get("mvcc.cow_shared", 0)
    batches = c.get("wal.group_commit.batches", 0)
    inproc_reads, inproc_writes = _in_process(work / "in_process", seed, seconds)
    return {
        "durability.wal_bytes_per_write": wal_bytes / n_writes,
        "durability.fsyncs_per_write": c.get("wal.fsync", 0) / n_writes,
        "durability.group_commit_batch": c.get("wal.group_commit.txns", 0) / max(batches, 1),
        "concurrency.lock_wait_ms": c.get("lock.wait_s", 0) * 1e3 / n_writes,
        "concurrency.lock_grants_per_write": c.get("lock.grant", 0) / n_writes,
        "concurrency.publish_per_write": c.get("mvcc.publish", 0) / n_writes,
        "concurrency.cow_copied_ratio": copied / max(copied + shared, 1),
        "concurrency.warm_per_write": c.get("mvcc.warm", 0) / n_writes,
        "server.inline_ratio": c.get("server.read_inline", 0) / n_reads,
        "server.rejects": c.get("server.reject", 0),
        "server.timeouts": c.get("server.timeout", 0),
        "server.errors": c.get("server.error", 0),
        "server.wire_overhead_ms": (median(wire_reads) - median(inproc_reads)) * 1e3,
        "views.predicate_update_ms": median(inproc_writes) * 1e3,
        "obs.stats_call_ms": stats_call_ms,
        "obs.trace_overhead": traced_ops_per_s / untraced_ops_per_s,
    }


def _in_process(directory: Path, seed: int, seconds: float):
    """The same streams, interleaved, through ``TransactionCoordinator``
    in this process: read = pin + compute, write = the predicate update."""
    dbms = build_dbms(directory, seed)
    coordinator = TransactionCoordinator(dbms)
    streams = build_streams(seed, 2, int(seconds * OPS_PER_SECOND_CAP) + 100)
    reads, writes = [], []
    deadline = time.perf_counter() + seconds
    try:
        for pair in zip(*streams):
            for op in pair:
                if op[0] == "undo":
                    continue  # the in-process replay times reads and updates
                start = time.perf_counter()
                if op[0] == "query":
                    with coordinator.read("s1", VIEW) as reader:
                        reader.compute(op[1], op[2])
                    reads.append(time.perf_counter() - start)
                else:
                    with coordinator.write("s1", VIEW) as session:
                        session.update(col("PERSON_ID") == op[2], {op[1]: op[3]})
                    writes.append(time.perf_counter() - start)
            if time.perf_counter() >= deadline:
                break
    finally:
        dbms.durability.close()
    return reads, writes
