"""Hand-built incremental aggregates (Koenig & Paige's totals/averages and

friends).  These are specialized, numerically careful implementations of the
forms :mod:`repro.incremental.differencing` can also generate; min/max get
the support structure the algebra cannot express (a value multiset, so that
deleting the current extreme finds the next one without a full rescan —
most updates "will not affect the min or max values" per SS4.2, and those
that do cost O(distinct values) instead of O(N))."""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Iterable

from repro.core.errors import StatisticsError
from repro.incremental.differencing import Delta, IncrementalComputation
from repro.relational.types import NA, is_na


def _signed_batch(deltas: Iterable[Delta]) -> tuple[int, list[float]]:
    """Flatten a burst into (net count change, signed non-NA terms).

    Updates contribute as delete-old + insert-new; NA values carry no
    numeric weight, matching the per-change paths exactly.
    """
    dn = 0
    terms: list[float] = []
    for delta in deltas:
        for value in delta.inserts:
            if not is_na(value):
                dn += 1
                terms.append(float(value))
        for value in delta.deletes:
            if not is_na(value):
                dn -= 1
                terms.append(-float(value))
        for old, new in delta.updates:
            if not is_na(old):
                dn -= 1
                terms.append(-float(old))
            if not is_na(new):
                dn += 1
                terms.append(float(new))
    return dn, terms


class IncrementalCount(IncrementalComputation):
    """Count of non-NA values; O(1) per change."""

    supports_partials = True

    def __init__(self) -> None:
        self._n = 0
        self._na = 0

    def partial_state(self) -> tuple[int, int]:
        return (self._n, self._na)

    def merge_partial(self, state: tuple[int, int]) -> None:
        n, na = state
        self._n += n
        self._na += na

    def initialize(self, values: Iterable[Any]) -> None:
        self._n = 0
        self._na = 0
        for value in values:
            self.on_insert(value)

    def on_insert(self, value: Any) -> None:
        if is_na(value):
            self._na += 1
        else:
            self._n += 1

    def absorb(self, values: Iterable[Any]) -> None:
        na_marker = NA
        total = na = 0
        for value in values:
            total += 1
            if value is na_marker or (isinstance(value, float) and value != value):
                na += 1
        self._na += na
        self._n += total - na

    def on_delete(self, value: Any) -> None:
        if is_na(value):
            self._na -= 1
        else:
            self._n -= 1

    def apply_batch(self, deltas: Iterable[Delta]) -> int:
        """Batch math: two counter bumps for the whole burst."""
        dn = dna = 0
        for delta in deltas:
            for value in delta.inserts:
                if is_na(value):
                    dna += 1
                else:
                    dn += 1
            for value in delta.deletes:
                if is_na(value):
                    dna -= 1
                else:
                    dn -= 1
            for old, new in delta.updates:
                if is_na(old):
                    dna -= 1
                else:
                    dn -= 1
                if is_na(new):
                    dna += 1
                else:
                    dn += 1
        self._n += dn
        self._na += dna
        return self._n

    @property
    def value(self) -> int:
        return self._n

    @property
    def na_count(self) -> int:
        """How many NA values are present (marked-invalid observations)."""
        return self._na


class IncrementalSum(IncrementalComputation):
    """Neumaier-compensated running sum; O(1) per change.

    Neumaier's variant (unlike plain Kahan) stays exact even when an
    addend exceeds the running sum in magnitude.
    """

    supports_partials = True

    def __init__(self) -> None:
        self._sum = 0.0
        self._comp = 0.0
        self._n = 0

    def partial_state(self) -> tuple[int, float, float]:
        return (self._n, self._sum, self._comp)

    def merge_partial(self, state: tuple[int, float, float]) -> None:
        n, total, comp = state
        self._n += n
        self._add(total)
        self._add(comp)

    def initialize(self, values: Iterable[Any]) -> None:
        self._sum = 0.0
        self._comp = 0.0
        self._n = 0
        for value in values:
            self.on_insert(value)

    def _add(self, x: float) -> None:
        t = self._sum + x
        if abs(self._sum) >= abs(x):
            self._comp += (self._sum - t) + x
        else:
            self._comp += (x - t) + self._sum
        self._sum = t

    def on_insert(self, value: Any) -> None:
        if is_na(value):
            return
        self._n += 1
        self._add(float(value))

    def on_delete(self, value: Any) -> None:
        if is_na(value):
            return
        self._n -= 1
        self._add(-float(value))

    def apply_batch(self, deltas: Iterable[Delta]) -> Any:
        """Batch math: exact-sum the burst, then one compensated add."""
        dn, terms = _signed_batch(deltas)
        self._n += dn
        if terms:
            self._add(math.fsum(terms))
        return self.value

    @property
    def value(self) -> Any:
        return NA if self._n == 0 else self._sum + self._comp


class IncrementalMean(IncrementalComputation):
    """Running mean via Welford-style updates; O(1) per change."""

    supports_partials = True

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0

    def partial_state(self) -> tuple[int, float]:
        return (self._n, self._mean)

    def merge_partial(self, state: tuple[int, float]) -> None:
        n, mean = state
        if n == 0:
            return
        total = math.fsum([self._mean * self._n, mean * n])
        self._n += n
        self._mean = total / self._n

    def initialize(self, values: Iterable[Any]) -> None:
        self._n = 0
        self._mean = 0.0
        for value in values:
            self.on_insert(value)

    def on_insert(self, value: Any) -> None:
        if is_na(value):
            return
        self._n += 1
        self._mean += (float(value) - self._mean) / self._n

    def on_delete(self, value: Any) -> None:
        if is_na(value):
            return
        if self._n <= 1:
            self._n = 0
            self._mean = 0.0
            return
        self._mean = (self._mean * self._n - float(value)) / (self._n - 1)
        self._n -= 1

    def apply_batch(self, deltas: Iterable[Delta]) -> Any:
        """Batch math: (n·mean + S) / (n + dn) — one division per burst."""
        dn, terms = _signed_batch(deltas)
        m = self._n + dn
        if m <= 0:
            self._n = 0
            self._mean = 0.0
            return self.value
        total = math.fsum([self._mean * self._n, *terms])
        self._n = m
        self._mean = total / m
        return self.value

    @property
    def value(self) -> Any:
        return NA if self._n == 0 else self._mean

    @property
    def count(self) -> int:
        """Number of non-NA values contributing."""
        return self._n


class IncrementalVariance(IncrementalComputation):
    """Sample variance (ddof=1) via Welford with exact downdating."""

    supports_partials = True

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def partial_state(self) -> tuple[int, float, float]:
        return (self._n, self._mean, self._m2)

    def merge_partial(self, state: tuple[int, float, float]) -> None:
        """Chan et al.'s pairwise combine of (n, mean, M2) states."""
        n, mean, m2 = state
        if n == 0:
            return
        if self._n == 0:
            self._n, self._mean, self._m2 = n, mean, m2
            return
        total = self._n + n
        delta = mean - self._mean
        self._m2 += m2 + delta * delta * self._n * n / total
        if self._m2 < 0:  # guard tiny negative residue from roundoff
            self._m2 = 0.0
        self._mean = math.fsum([self._n * self._mean, n * mean]) / total
        self._n = total

    def initialize(self, values: Iterable[Any]) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        for value in values:
            self.on_insert(value)

    def on_insert(self, value: Any) -> None:
        if is_na(value):
            return
        x = float(value)
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)

    def on_delete(self, value: Any) -> None:
        if is_na(value):
            return
        x = float(value)
        if self._n == 0:
            # Consistent with IncrementalMinMax: deleting from an empty
            # state is a caller bug, not a quiet reset.
            raise StatisticsError(
                f"deleting value {value!r} from an empty variance state"
            )
        if self._n == 1:
            # Only a legitimate last-value delete resets the state; with
            # one value tracked, the running mean *is* that value (up to
            # roundoff accumulated by earlier downdates).
            if not math.isclose(x, self._mean, rel_tol=1e-6, abs_tol=1e-9):
                raise StatisticsError(
                    f"deleting absent value {value!r} "
                    f"(the single tracked value is {self._mean!r})"
                )
            self._n = 0
            self._mean = 0.0
            self._m2 = 0.0
            return
        old_mean = (self._n * self._mean - x) / (self._n - 1)
        self._m2 -= (x - self._mean) * (x - old_mean)
        if self._m2 < 0:  # guard tiny negative residue from roundoff
            self._m2 = 0.0
        self._mean = old_mean
        self._n -= 1

    def apply_batch(self, deltas: Iterable[Delta]) -> Any:
        """Batch math over the power sums.

        Recover sum = n·mean and sumsq = m2 + n·mean², fold in the burst's
        signed Σx and Σx², then rebuild (mean, m2) once — a constant number
        of state updates regardless of burst size.
        """
        dn = 0
        s_terms: list[float] = []
        q_terms: list[float] = []

        def account(value: Any, sign: float) -> int:
            if is_na(value):
                return 0
            x = float(value)
            s_terms.append(sign * x)
            q_terms.append(sign * x * x)
            return 1

        for delta in deltas:
            for value in delta.inserts:
                dn += account(value, 1.0)
            for value in delta.deletes:
                dn -= account(value, -1.0)
            for old, new in delta.updates:
                dn -= account(old, -1.0)
                dn += account(new, 1.0)
        m = self._n + dn
        if m < 0:
            raise StatisticsError(
                f"batch deletes {-m} more values than the state tracks"
            )
        if m == 0:
            self._n = 0
            self._mean = 0.0
            self._m2 = 0.0
            return self.value
        total = math.fsum([self._n * self._mean, *s_terms])
        sumsq = math.fsum([self._m2 + self._n * self._mean * self._mean, *q_terms])
        self._n = m
        self._mean = total / m
        self._m2 = sumsq - m * self._mean * self._mean
        if self._m2 < 0:  # guard tiny negative residue from roundoff
            self._m2 = 0.0
        return self.value

    @property
    def value(self) -> Any:
        if self._n < 2:
            return NA
        return self._m2 / (self._n - 1)

    @property
    def mean(self) -> Any:
        """The running mean (shared with the variance state)."""
        return NA if self._n == 0 else self._mean


class IncrementalStd(IncrementalComputation):
    """Sample standard deviation built on :class:`IncrementalVariance`."""

    supports_partials = True

    def __init__(self) -> None:
        self._var = IncrementalVariance()

    def partial_state(self) -> tuple[int, float, float]:
        return self._var.partial_state()

    def merge_partial(self, state: tuple[int, float, float]) -> None:
        self._var.merge_partial(state)

    def initialize(self, values: Iterable[Any]) -> None:
        self._var.initialize(values)

    def on_insert(self, value: Any) -> None:
        self._var.on_insert(value)

    def on_delete(self, value: Any) -> None:
        self._var.on_delete(value)

    def apply_batch(self, deltas: Iterable[Delta]) -> Any:
        """Batch math via the underlying variance state."""
        self._var.apply_batch(deltas)
        return self.value

    @property
    def value(self) -> Any:
        var = self._var.value
        return NA if is_na(var) else math.sqrt(var)


class IncrementalMinMax(IncrementalComputation):
    """Min and max with a value-multiset support structure.

    Inserts are O(1) comparisons.  Deleting a non-extreme value is O(1);
    deleting the current extreme rescans the multiset's distinct values
    (O(U)), still avoiding the O(N) data pass the paper wants to skip.
    """

    supports_partials = True

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._min: Any = NA
        self._max: Any = NA

    def partial_state(self) -> dict[Any, int]:
        return dict(self._counts)

    def merge_partial(self, state: dict[Any, int]) -> None:
        """Union the value multisets; extremes follow from the counts."""
        if not state:
            return
        self._counts.update(state)
        lo, hi = min(state), max(state)
        if is_na(self._min) or lo < self._min:
            self._min = lo
        if is_na(self._max) or hi > self._max:
            self._max = hi

    def initialize(self, values: Iterable[Any]) -> None:
        self._counts = Counter()
        self._min = NA
        self._max = NA
        for value in values:
            self.on_insert(value)

    def on_insert(self, value: Any) -> None:
        if is_na(value):
            return
        self._counts[value] += 1
        if is_na(self._min) or value < self._min:
            self._min = value
        if is_na(self._max) or value > self._max:
            self._max = value

    def absorb(self, values: Iterable[Any]) -> None:
        na_marker = NA
        clean = [
            v
            for v in values
            if not (v is na_marker or (isinstance(v, float) and v != v))
        ]
        if not clean:
            return
        self._counts.update(clean)  # Counter's C-level multiset union
        lo, hi = min(clean), max(clean)
        if is_na(self._min) or lo < self._min:
            self._min = lo
        if is_na(self._max) or hi > self._max:
            self._max = hi

    def on_delete(self, value: Any) -> None:
        if is_na(value):
            return
        if self._counts[value] <= 0:
            raise StatisticsError(f"deleting absent value {value!r}")
        self._counts[value] -= 1
        if self._counts[value] == 0:
            del self._counts[value]
            if not self._counts:
                self._min = NA
                self._max = NA
                return
            if value == self._min:
                self._min = min(self._counts)
            if value == self._max:
                self._max = max(self._counts)

    @property
    def value(self) -> tuple[Any, Any]:
        return (self._min, self._max)

    @property
    def min(self) -> Any:
        """Current minimum (NA when empty)."""
        return self._min

    @property
    def max(self) -> Any:
        """Current maximum (NA when empty)."""
        return self._max


class IncrementalMin(IncrementalMinMax):
    """Just the minimum."""

    @property
    def value(self) -> Any:
        return self._min


class IncrementalMax(IncrementalMinMax):
    """Just the maximum."""

    @property
    def value(self) -> Any:
        return self._max


class IncrementalWeightedMean(IncrementalComputation):
    """Weighted mean over (value, weight) pairs; O(1) per change.

    Supports the paper's SS2.2 derived data set: when populations change,
    the weighted average salary updates without revisiting every partition.
    """

    supports_partials = True

    def __init__(self) -> None:
        self._num = 0.0
        self._den = 0.0

    def partial_state(self) -> tuple[float, float]:
        return (self._num, self._den)

    def merge_partial(self, state: tuple[float, float]) -> None:
        num, den = state
        self._num += num
        self._den += den

    def initialize(self, values: Iterable[Any]) -> None:
        self._num = 0.0
        self._den = 0.0
        for pair in values:
            self.on_insert(pair)

    def on_insert(self, value: Any) -> None:
        v, w = value
        if is_na(v) or is_na(w):
            return
        self._num += float(v) * float(w)
        self._den += float(w)

    def absorb(self, values: Iterable[Any]) -> None:
        num = den = 0.0
        for v, w in values:
            if is_na(v) or is_na(w):
                continue
            num += float(v) * float(w)
            den += float(w)
        self._num += num
        self._den += den

    def on_delete(self, value: Any) -> None:
        v, w = value
        if is_na(v) or is_na(w):
            return
        self._num -= float(v) * float(w)
        self._den -= float(w)

    @property
    def value(self) -> Any:
        return NA if self._den == 0 else self._num / self._den
