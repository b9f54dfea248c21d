"""Tests for the mergeable quantile sketch (repro.simulation.sketches)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import QuantileSketch


def exact_quantile(values, q):
    return float(np.percentile(np.asarray(values), q))


class TestAccuracy:
    def test_relative_error_bound_constant(self):
        sketch = QuantileSketch(subbuckets=256)
        assert sketch.relative_error_bound == pytest.approx(1 / 512)

    @given(
        seed=st.integers(0, 2**31 - 1),
        scale=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantiles_within_bound(self, seed, scale):
        """The reported quantile is within the relative-error bound of
        the order statistics bracketing its rank (np.percentile
        interpolates *between* observations, so the contract is stated
        against the bracketing values, not the interpolated point)."""
        rng = np.random.default_rng(seed)
        values = np.sort(rng.lognormal(mean=0.0, sigma=2.0, size=500) * scale)
        sketch = QuantileSketch()
        for value in values:
            sketch.add(float(value))
        bound = sketch.relative_error_bound
        n = len(values)
        for q in (10.0, 50.0, 90.0, 99.0):
            rank = q / 100.0 * (n - 1)
            lo = float(values[int(np.floor(rank))])
            hi = float(values[int(np.ceil(rank))])
            approx = sketch.quantile(q)
            assert lo * (1.0 - bound) <= approx <= hi * (1.0 + bound)

    def test_tails_are_exact(self):
        values = [0.013, 0.2, 1.7, 42.0]
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)
        assert sketch.quantile(0.0) == 0.013
        assert sketch.quantile(100.0) == 42.0
        assert sketch.min == 0.013
        assert sketch.max == 42.0

    def test_mean_within_bound(self):
        # The sketch mean is over bin midpoints, so it carries the
        # same relative-error bound as the quantiles.  (Reports in
        # sketch mode use an exact streaming latency sum instead.)
        rng = np.random.default_rng(5)
        values = rng.uniform(0.001, 3.0, size=1000)
        sketch = QuantileSketch()
        for value in values:
            sketch.add(float(value))
        assert sketch.mean() == pytest.approx(
            float(np.mean(values)), rel=sketch.relative_error_bound
        )

    def test_zero_values_counted(self):
        sketch = QuantileSketch()
        for value in (0.0, 0.0, 1.0):
            sketch.add(value)
        assert sketch.count == 3
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(100.0) == 1.0

    def test_rejects_negative_and_non_finite(self):
        sketch = QuantileSketch()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sketch.add(bad)


class TestMerge:
    @given(
        seed=st.integers(0, 2**31 - 1),
        parts=st.integers(1, 7),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_independence(self, seed, parts):
        """Sharding the stream any way merges to the same sketch."""
        rng = np.random.default_rng(seed)
        values = rng.lognormal(sigma=1.5, size=300)
        bulk = QuantileSketch()
        for value in values:
            bulk.add(float(value))
        shards = [QuantileSketch() for _ in range(parts)]
        for index, value in enumerate(values):
            shards[index % parts].add(float(value))
        merged = QuantileSketch.merged(shards)
        assert merged.to_dict() == bulk.to_dict()

    def test_merge_order_irrelevant(self):
        a, b, c = QuantileSketch(), QuantileSketch(), QuantileSketch()
        for sketch, value in ((a, 0.1), (b, 2.0), (c, 30.0)):
            sketch.add(value)
        forward = QuantileSketch.merged([a, b, c])
        backward = QuantileSketch.merged([c, b, a])
        assert forward.to_dict() == backward.to_dict()

    def test_mismatched_resolution_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(subbuckets=128).merge(QuantileSketch(subbuckets=256))

    def test_merge_empty(self):
        merged = QuantileSketch.merged([])
        assert merged.count == 0


class TestSerialization:
    def test_round_trip(self):
        sketch = QuantileSketch()
        for value in (0.0, 0.004, 0.02, 1.5, 1.5, 900.0):
            sketch.add(value)
        restored = QuantileSketch.from_dict(sketch.to_dict())
        assert restored.to_dict() == sketch.to_dict()
        for q in (0.0, 50.0, 99.0, 100.0):
            assert restored.quantile(q) == sketch.quantile(q)

    def test_dict_is_json_plain(self):
        import json

        sketch = QuantileSketch()
        sketch.add(0.125)
        payload = json.loads(json.dumps(sketch.to_dict()))
        assert QuantileSketch.from_dict(payload).count == 1

    def test_empty_round_trip(self):
        restored = QuantileSketch.from_dict(QuantileSketch().to_dict())
        assert restored.count == 0
        assert restored.quantile(50.0) == 0.0


class TestValidation:
    def test_fractional_counts_rejected(self):
        # A fractional bin would not survive to_dict/from_dict.
        sketch = QuantileSketch()
        for bad in (2.5, 0.5, 2.0, np.float64(3.0)):
            with pytest.raises(ValueError, match="non-negative integer"):
                sketch.add(0.1, bad)
        assert sketch.to_dict() == QuantileSketch().to_dict()

    def test_integer_counts_round_trip_exactly(self):
        sketch = QuantileSketch()
        sketch.add(0.1, 2)
        sketch.add(0.1, np.int64(3))
        payload = json.dumps(sketch.to_dict())
        restored = QuantileSketch.from_dict(json.loads(payload))
        assert json.dumps(restored.to_dict()) == payload
        assert restored.count == 5

    def test_value_checked_even_with_zero_count(self):
        sketch = QuantileSketch()
        for bad in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError, match="finite and non-negative"):
                sketch.add(bad, 0)
            with pytest.raises(ValueError, match="finite and non-negative"):
                sketch.add_many([0.5, bad], [1, 0])
        assert sketch.count == 0

    def test_add_many_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            QuantileSketch().add_many([0.1, 0.2], [1])


def _loop_add(sketch, values, counts):
    for value, count in zip(values, counts):
        sketch.add(value, count)


def _outcome(action):
    try:
        action()
    except Exception as error:  # compared with the loop, not swallowed
        return type(error), str(error)
    return None


#: mantissas right next to 1.0 (the subbucket guard's edge), powers of
#: two and their neighbours, zeros, and ordinary latencies.
SKETCH_VALUES = st.one_of(
    st.just(0.0),
    st.builds(
        math.ldexp,
        st.sampled_from([0.5, math.nextafter(0.5, 1.0),
                         math.nextafter(1.0, 0.0), 0.75]),
        st.integers(-30, 30),
    ),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(1e-300, 1e-3),
)
GOOD_COUNTS = st.integers(0, 5)


class TestAddMany:
    @given(
        prefix=st.lists(st.tuples(SKETCH_VALUES, st.integers(1, 3)), max_size=4),
        entries=st.lists(st.tuples(SKETCH_VALUES, GOOD_COUNTS), max_size=40),
        subbuckets=st.sampled_from([1, 7, 256]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_loop_of_add(self, prefix, entries, subbuckets):
        looped = QuantileSketch(subbuckets)
        bulk = QuantileSketch(subbuckets)
        for sketch in (looped, bulk):
            for value, count in prefix:
                sketch.add(value, count)
        values = [value for value, _count in entries]
        counts = [count for _value, count in entries]
        _loop_add(looped, values, counts)
        bulk.add_many(np.array(values, dtype=float), np.array(counts, dtype=int))
        assert json.dumps(bulk.to_dict()) == json.dumps(looped.to_dict())

    @given(
        entries=st.lists(
            st.tuples(
                st.one_of(
                    SKETCH_VALUES,
                    st.sampled_from([-1.0, -0.5, float("nan"), float("inf")]),
                ),
                st.one_of(
                    GOOD_COUNTS,
                    st.integers(-3, -1),
                    st.sampled_from([0.5, 2.5, 1.0]),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
        as_array=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_invalid_input_raises_what_the_loop_raises(self, entries, as_array):
        values = [value for value, _count in entries]
        counts = [count for _value, count in entries]
        if as_array:
            counts = np.array(counts)
        expected = _outcome(lambda: _loop_add(QuantileSketch(), values, counts))
        bulk = QuantileSketch()
        assert _outcome(lambda: bulk.add_many(values, counts)) == expected
        if expected is not None:
            # All or nothing: a rejected batch records nothing.
            assert bulk.to_dict() == QuantileSketch().to_dict()
