"""Shared pieces of the benchmark: timing, seeds, tolerances, fingerprint.

Nothing here imports the program under test at module load, so ``run.py``
can report a missing source tree as a plain error before any workload runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

#: Relative tolerance between two sums of the same values added in another
#: order (shard partials merged against one stream).  Set from float64
#: rounding over at most ~1e5 terms.
FLOAT_RTOL = 1e-9

#: Relative tolerance between a statistic maintained by downdating
#: (variance, standard deviation, fitted models) and a fresh compute: the
#: comparison the program's own tests make (``pytest.approx``).
#: Downdating loses digits in proportion to the values removed, and the
#: microdata carries deliberate outliers (incomes of 9.9e9): replacing one
#: left a maintained variance 3e-8 away from a fresh one.  Sums, means and
#: order statistics are maintained without that loss and keep
#: :data:`FLOAT_RTOL`, so an answer one correction behind is caught even
#: when an outlier dominates the sum.  The largest deviation seen is
#: reported with every run.
MAINTAINED_RTOL = 1e-6
DOWNDATED = frozenset({"var", "std", "ols_model"})


def rtol_for(function: str) -> float:
    """The tolerance for a maintained ``function`` against a fresh compute."""
    return MAINTAINED_RTOL if function in DOWNDATED else FLOAT_RTOL


def stream_hash(records: Iterable[Any]) -> str:
    """sha256 of a stream's canonical JSON form (first 16 hex digits)."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, separators=(",", ":"), sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


#: What one :func:`probe` takes, median, on the 2-core x86-64 VM (Python
#: 3.11.7, numpy 2.4.6) the bounds were set on: the speed the end-to-end
#: times are stated at.
PROBE_REFERENCE_S = 0.0012

_PROBE_KEYS = [(i * 7919) % 1009 for i in range(4000)]
_probe_array = None


def _kernel() -> None:
    global _probe_array
    if _probe_array is None:
        import numpy

        _probe_array = numpy.random.default_rng(0).random(50_000)
    groups: dict[int, int] = {}
    for i, v in enumerate(_PROBE_KEYS):
        key = v % 16
        groups[key] = groups.get(key, 0) + v * i
    sorted(_PROBE_KEYS)
    _probe_array.copy().sort()


def probe() -> float:
    """Seconds a fixed kernel takes now: an interpreter loop over a dict, a
    list sort and a numpy sort, the three kinds of work the program does.
    It allocates too little to start the garbage collector, and is timed
    on its second run, with its data in cache whatever ran before it."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


@dataclass
class Speed:
    """The machine's speed over one stretch of a run (a rotation, an
    episode, a segment of the closed loop, a set-up), from probes taken
    during it or on both sides of it.

    A shared virtual machine can swing by a third in speed within
    minutes, and for as little as a few milliseconds, for every process
    on it alike.  A time multiplied by :meth:`factor` is that time at the reference speed
    (:data:`PROBE_REFERENCE_S`), so runs taken at different moments
    compare; a change to the program moves it as much as the raw time."""

    probes: list[float] = field(default_factory=list)

    def probe(self) -> None:
        self.probes.append(probe())

    def factor(self) -> float:
        return PROBE_REFERENCE_S / median(self.probes)


#: Probes on each side of one set-up.
SETUP_PROBES = 3


def timed(action: Callable[[], Any]) -> tuple[float, Any]:
    """Run ``action`` between probes on a fresh :class:`Speed`; returns
    its time at the reference speed and its result (for set-ups)."""
    speed = Speed()
    for _ in range(SETUP_PROBES):
        speed.probe()
    start = time.perf_counter()
    result = action()
    elapsed = time.perf_counter() - start
    for _ in range(SETUP_PROBES):
        speed.probe()
    return elapsed * speed.factor(), result


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def deviation(got: Any, want: Any) -> float:
    """Largest relative difference between two results (recursing into
    tuples, lists and dicts); ``inf`` when they differ in shape, type or a
    non-float value."""
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return math.inf
        return max((deviation(got[k], want[k]) for k in got), default=0.0)
    if isinstance(got, (list, tuple)) and isinstance(want, (list, tuple)):
        if len(got) != len(want):
            return math.inf
        return max((deviation(g, w) for g, w in zip(got, want)), default=0.0)
    if isinstance(got, float) or isinstance(want, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return math.inf
        if math.isnan(got) or math.isnan(want):
            return 0.0 if math.isnan(got) and math.isnan(want) else math.inf
        return abs(got - want) / max(abs(got), abs(want), 1.0)
    return 0.0 if got == want else math.inf


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    report: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Record a wrong or failed operation; any one fails the run."""
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, message: Callable[[], str] | str) -> bool:
        if not ok:
            self.fail(message() if callable(message) else message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.errors


#: The repository root this benchmark runs in.
ROOT = Path(__file__).resolve().parents[1]


class WorkDir:
    """A scratch directory inside the repository, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc: Any) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = self.path.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def source_digest(src: Path) -> str:
    """sha256 over the program's source files: identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def fingerprint(root: Path, seed: int) -> dict[str, Any]:
    """Machine and code identity recorded with every result."""
    import numpy

    return {
        "commit": commit_sha(root),
        "source_sha256": source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def nproc() -> int:
    return max(1, os.cpu_count() or 1)


def log(message: str) -> None:
    """Progress on stderr; stdout carries only the report and result lines."""
    print(message, file=sys.stderr, flush=True)
