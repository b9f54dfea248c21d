"""Mergeable quantile sketches for constant-memory latency summaries.

At Azure-trace scale (thousands of functions, 10^7+ requests) keeping a
Python list of every latency sample is what breaks first; production
serving stacks stream their percentiles through mergeable sketches
instead.  :class:`QuantileSketch` is an HDR-histogram-style logarithmic
sketch with three properties the campaign layer leans on:

* **deterministic** -- bucketing uses ``frexp`` (exact integer
  arithmetic on the float's exponent/mantissa; ``math.frexp`` per
  value, ``np.frexp`` in :meth:`QuantileSketch.add_many`), never
  ``log``, so the same inputs land in the same bins on every platform
  and run;
* **partition-independent merging** -- every derived statistic
  (quantiles, mean, min, max, count) is a pure function of the merged
  bins, and bins merge by integer addition, so sharding a workload
  across any number of workers/shards and merging yields *byte
  identical* serialized results;
* **bounded relative error** -- with ``subbuckets`` linear divisions
  per power of two, every bin spans at most ``1/subbuckets`` relative
  width and the reported midpoint is within ``1/(2*subbuckets)`` of any
  sample in the bin (~0.2% at the default 256), far inside the 1%
  envelope the scale-out reports promise.

Memory is O(bins touched): latencies spanning microseconds to hours
touch at most a few thousand bins regardless of sample count.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Dict, Iterable, Optional

import numpy as np

#: sketch serialization schema version.
SKETCH_SCHEMA = 1

#: default linear subdivisions per power of two (~0.2% midpoint error).
DEFAULT_SUBBUCKETS = 256


def _check_entry(value: float, count) -> None:
    """Reject what :meth:`QuantileSketch.add` may not record.

    The value is checked even when ``count`` is zero (nothing is
    silently accepted), and a count must be a non-negative integer: a
    fractional bin would not survive :meth:`QuantileSketch.to_dict`.
    """
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(
            f"sketch values must be finite and non-negative, got {value!r}"
        )
    _check_count(count)


def _check_count(count) -> int:
    """``count`` as an int, if it is a non-negative integer."""
    # The exact-type test skips the slow ABC check for plain ints.
    if not (type(count) is int or isinstance(count, Integral)) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count}")
    return int(count)


class QuantileSketch:
    """A mergeable, deterministic log-histogram quantile sketch.

    Values must be finite and non-negative (they are latencies).  Zeros
    get a dedicated bin; positive values are bucketed by ``frexp``:
    ``v = m * 2**e`` with ``m in [0.5, 1)`` maps to bin ``e *
    subbuckets + floor((m - 0.5) * 2 * subbuckets)``.
    """

    __slots__ = ("subbuckets", "_bins", "_zeros", "_min", "_max")

    def __init__(self, subbuckets: int = DEFAULT_SUBBUCKETS) -> None:
        if subbuckets < 1:
            raise ValueError("subbuckets must be >= 1")
        self.subbuckets = int(subbuckets)
        self._bins: Dict[int, int] = {}
        self._zeros = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times."""
        value = float(value)
        _check_entry(value, count)
        if not count:
            return
        count = int(count)
        if value == 0.0:
            self._zeros += count
        else:
            index = self._index(value)
            self._bins[index] = self._bins.get(index, 0) + count
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def add_many(self, values, counts) -> None:
        """Record ``values[i]`` ``counts[i]`` times, for every ``i``.

        The result is bit-identical to calling :meth:`add` on each pair
        in order, and invalid input raises the error that loop would
        raise first; unlike the loop, nothing is recorded then.  An
        integer array of counts takes the vectorised path (counts must
        fit in int64).
        """
        raw_counts = counts
        values = np.asarray(values, dtype=np.float64)
        counts = np.asarray(counts)
        if values.ndim != 1 or counts.shape != values.shape:
            raise ValueError(
                "values and counts must be 1-D and of equal length, got"
                f" shapes {values.shape} and {counts.shape}"
            )
        if counts.dtype.kind not in "iu":
            # Not an integer array: check entry by entry, as add() would.
            for value, count in zip(values.tolist(), raw_counts):
                _check_entry(value, count)
            counts = counts.astype(np.int64)
        bad = ~np.isfinite(values) | (values < 0.0) | (counts < 0)
        if bad.any():
            first = int(np.argmax(bad))
            _check_entry(float(values[first]), counts[first])
        live = counts > 0
        values = values[live]
        counts = counts[live].astype(np.int64)
        if not values.size:
            return
        positive = values > 0.0
        self._zeros += int(counts[~positive].sum())
        if positive.any():
            self._add_bins(values[positive], counts[positive])
        # argmin/argmax take the first of equal values, as the strict
        # comparisons in add() keep the first one seen.
        low = float(values[np.argmin(values)])
        high = float(values[np.argmax(values)])
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

    def _add_bins(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Bin positive ``values`` exactly as :meth:`_index` does."""
        # frexp is exact, and the truncating cast rounds the subbucket
        # as int() does.
        mantissa, exponent = np.frexp(values)
        sub = ((mantissa - 0.5) * 2.0 * self.subbuckets).astype(np.int64)
        np.minimum(sub, self.subbuckets - 1, out=sub)
        indices = exponent.astype(np.int64) * self.subbuckets + sub
        # One dict update per distinct bin: sort, then sum each run.
        order = np.argsort(indices)
        indices = indices[order]
        starts = np.flatnonzero(np.diff(indices, prepend=indices[0] - 1))
        totals = np.add.reduceat(counts[order], starts)
        bins = self._bins
        for index, count in zip(indices[starts].tolist(), totals.tolist()):
            bins[index] = bins.get(index, 0) + count

    def _index(self, value: float) -> int:
        mantissa, exponent = math.frexp(value)  # value = m * 2**e, m in [0.5, 1)
        sub = int((mantissa - 0.5) * 2.0 * self.subbuckets)
        if sub >= self.subbuckets:  # guard the m -> 1.0 float edge
            sub = self.subbuckets - 1
        return exponent * self.subbuckets + sub

    def _midpoint(self, index: int) -> float:
        exponent, sub = divmod(index, self.subbuckets)
        mantissa = 0.5 + (sub + 0.5) / (2.0 * self.subbuckets)
        return math.ldexp(mantissa, exponent)

    # ------------------------------------------------------------------
    # queries (all pure functions of the merged bins)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._zeros + sum(self._bins.values())

    @property
    def min(self) -> float:
        return 0.0 if self._min is None else self._min

    @property
    def max(self) -> float:
        return 0.0 if self._max is None else self._max

    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative distance from a bin midpoint to a sample."""
        return 1.0 / (2.0 * self.subbuckets)

    def quantile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]), midpoint-estimated.

        Follows :func:`numpy.percentile`'s rank convention (``rank = q
        / 100 * (n - 1)``) so exact-mode and sketch-mode reports answer
        the same question; the tails return the exact tracked min/max.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must lie in [0, 100]")
        n = self.count
        if n == 0:
            return 0.0
        rank = q / 100.0 * (n - 1)
        if rank <= 0:
            return self.min
        if rank >= n - 1:
            return self.max
        cumulative = self._zeros
        if rank < cumulative:
            return 0.0
        for index in sorted(self._bins):
            cumulative += self._bins[index]
            if rank < cumulative:
                estimate = self._midpoint(index)
                return min(max(estimate, self.min), self.max)
        return self.max  # unreachable; defensive

    def mean(self) -> float:
        """Bin-midpoint mean (partition-independent, <= bound error)."""
        n = self.count
        if n == 0:
            return 0.0
        total = math.fsum(
            self._bins[index] * self._midpoint(index)
            for index in sorted(self._bins)
        )
        return total / n

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place); returns self."""
        if other.subbuckets != self.subbuckets:
            raise ValueError(
                f"cannot merge sketches with {other.subbuckets} and"
                f" {self.subbuckets} subbuckets"
            )
        self._zeros += other._zeros
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        return self

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]) -> "QuantileSketch":
        """A fresh sketch holding the union of ``sketches``."""
        result: Optional[QuantileSketch] = None
        for sketch in sketches:
            if result is None:
                result = cls(sketch.subbuckets)
            result.merge(sketch)
        return result if result is not None else cls()

    # ------------------------------------------------------------------
    # serialization (exact: counts are ints, min/max survive JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view; round-trips bit-exactly."""
        payload: Dict[str, object] = {
            "schema": SKETCH_SCHEMA,
            "subbuckets": self.subbuckets,
            "zeros": self._zeros,
            "bins": {str(index): self._bins[index] for index in sorted(self._bins)},
        }
        if self._min is not None:
            payload["min"] = self._min
            payload["max"] = self._max
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        schema = payload.get("schema", SKETCH_SCHEMA)
        if schema != SKETCH_SCHEMA:
            raise ValueError(
                f"unsupported sketch schema {schema!r}"
                f" (this build reads schema {SKETCH_SCHEMA})"
            )
        sketch = cls(int(payload.get("subbuckets", DEFAULT_SUBBUCKETS)))
        sketch._zeros = _check_count(payload.get("zeros", 0))
        sketch._bins = {
            int(index): _check_count(count)
            for index, count in payload.get("bins", {}).items()
        }
        if "min" in payload:
            sketch._min = float(payload["min"])
            sketch._max = float(payload["max"])
        return sketch

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(count={self.count}, bins={len(self._bins)},"
            f" subbuckets={self.subbuckets})"
        )
