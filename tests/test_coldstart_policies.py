"""Unit tests for keep-alive policies: fixed, HHP and LSTH."""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FixedKeepAlive,
    HybridHistogramPolicy,
    LongShortTermHistogram,
    build_coldstart_policy,
)
from repro.core.coldstart import ColdStartDecision
from repro.core.histogram import IdleTimeHistogram


def lsth(**kwargs):
    """LSTH via the registry (same object as direct construction)."""
    return build_coldstart_policy("lsth", **kwargs)


class TestColdStartDecision:
    def test_negative_windows_rejected(self):
        with pytest.raises(ValueError):
            ColdStartDecision(prewarm_s=-1.0, keepalive_s=10.0)

    def test_warm_window_without_prewarm(self):
        decision = ColdStartDecision(prewarm_s=0.0, keepalive_s=100.0)
        assert decision.is_warm_at(50.0)
        assert not decision.is_warm_at(101.0)

    def test_warm_window_with_prewarm(self):
        decision = ColdStartDecision(prewarm_s=60.0, keepalive_s=100.0)
        assert not decision.is_warm_at(59.0)  # image not reloaded yet
        assert decision.is_warm_at(60.0)
        assert decision.is_warm_at(160.0)
        assert not decision.is_warm_at(161.0)

    def test_reserved_waste_covers_gap(self):
        decision = ColdStartDecision(prewarm_s=0.0, keepalive_s=100.0)
        assert decision.wasted_loaded_time(40.0) == 40.0

    def test_reserved_waste_capped_by_keepalive(self):
        decision = ColdStartDecision(prewarm_s=0.0, keepalive_s=100.0)
        assert decision.wasted_loaded_time(500.0) == 100.0

    def test_prewarmed_gap_frees_quota(self):
        decision = ColdStartDecision(prewarm_s=60.0, keepalive_s=100.0)
        assert decision.wasted_loaded_time(90.0) == 0.0


class TestIdleTimeHistogram:
    def test_percentile_of_window(self):
        hist = IdleTimeHistogram(duration_s=100.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.record(now=10.0, idle_time_s=value)
        assert hist.percentile(now=10.0, q=50.0) == pytest.approx(2.5)

    def test_old_observations_evicted(self):
        hist = IdleTimeHistogram(duration_s=10.0)
        hist.record(now=0.0, idle_time_s=1.0)
        hist.record(now=20.0, idle_time_s=9.0)
        assert hist.window_values(now=20.0) == [9.0]

    def test_empty_window_has_no_percentile(self):
        hist = IdleTimeHistogram(duration_s=10.0)
        assert hist.percentile(now=0.0, q=50.0) is None

    def test_head_tail_pair(self):
        hist = IdleTimeHistogram(duration_s=100.0)
        for value in range(1, 101):
            hist.record(now=1.0, idle_time_s=float(value))
        head, tail = hist.head_tail(now=1.0)
        assert head < tail

    def test_max_observations_bound(self):
        hist = IdleTimeHistogram(duration_s=1e9, max_observations=5)
        for i in range(10):
            hist.record(now=float(i), idle_time_s=1.0)
        assert hist.count(now=9.0) == 5

    def test_negative_idle_rejected(self):
        hist = IdleTimeHistogram(duration_s=10.0)
        with pytest.raises(ValueError):
            hist.record(now=0.0, idle_time_s=-1.0)

    def test_invalid_percentile_rejected(self):
        hist = IdleTimeHistogram(duration_s=10.0)
        with pytest.raises(ValueError):
            hist.percentile(now=0.0, q=150.0)

    def test_cv_zero_for_constant_series(self):
        hist = IdleTimeHistogram(duration_s=100.0)
        for _ in range(5):
            hist.record(now=0.0, idle_time_s=10.0)
        assert hist.coefficient_of_variation(now=0.0) == pytest.approx(0.0)

    @given(values=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_percentiles_bounded_by_extremes(self, values):
        hist = IdleTimeHistogram(duration_s=1e6)
        for value in values:
            hist.record(now=1.0, idle_time_s=value)
        head, tail = hist.head_tail(now=1.0)
        assert min(values) - 1e-9 <= head <= tail <= max(values) + 1e-9


class TestFixedKeepAlive:
    def test_constant_windows(self):
        policy = FixedKeepAlive(300.0)
        decision = policy.windows("fn", now=123.0)
        assert decision == ColdStartDecision(0.0, 300.0)

    def test_ignores_history(self):
        policy = FixedKeepAlive(300.0)
        policy.record_invocation("fn", 0.0)
        policy.record_invocation("fn", 10.0)
        assert policy.windows("fn", 10.0).keepalive_s == 300.0

    def test_negative_keepalive_rejected(self):
        with pytest.raises(ValueError):
            FixedKeepAlive(-1.0)


def feed_regular(policy, name, period, count, start=0.0):
    t = start
    for _ in range(count):
        policy.record_invocation(name, t)
        t += period
    return t - period


class TestHybridHistogramPolicy:
    def test_default_until_representative(self):
        policy = HybridHistogramPolicy()
        feed_regular(policy, "fn", 10.0, 5)
        assert policy.windows("fn", 40.0) == policy.DEFAULT_DECISION

    def test_tail_covers_observed_idles(self):
        policy = HybridHistogramPolicy()
        last = feed_regular(policy, "fn", 30.0, 50)
        decision = policy.windows("fn", last)
        assert decision.prewarm_s + decision.keepalive_s >= 29.0

    def test_regular_pattern_earns_prewarm(self):
        policy = HybridHistogramPolicy()
        last = feed_regular(policy, "fn", 600.0, 20)
        decision = policy.windows("fn", last)
        assert decision.prewarm_s > 0

    def test_irregular_pattern_gets_no_prewarm(self):
        policy = HybridHistogramPolicy()
        t = 0.0
        for i in range(30):
            policy.record_invocation("fn", t)
            t += 5.0 if i % 2 else 1000.0  # CV far above the gate
        decision = policy.windows("fn", t)
        assert decision.prewarm_s == 0.0

    def test_window_eviction_forgets_old_pattern(self):
        policy = HybridHistogramPolicy(duration_s=3600.0)
        last = feed_regular(policy, "fn", 300.0, 20)
        # Ten hours later the window is empty again -> defaults.
        assert policy.windows("fn", last + 36000.0) == policy.DEFAULT_DECISION

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            HybridHistogramPolicy(duration_s=0.0)


class TestLongShortTermHistogram:
    def test_registry_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            registry = lsth(gamma=0.5)
            direct = LongShortTermHistogram(gamma=0.5)
        # Both ways in build the same policy.
        assert type(registry) is type(direct)
        assert vars(registry) == vars(direct)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            lsth(gamma=1.5)

    def test_duration_ordering_validation(self):
        with pytest.raises(ValueError):
            lsth(short_duration_s=7200.0, long_duration_s=3600.0)

    def test_default_until_any_history(self):
        policy = lsth()
        assert policy.windows("fn", 0.0) == policy.DEFAULT_DECISION

    def test_blends_short_and_long_views(self):
        policy = lsth(gamma=0.5)
        long_only = lsth(gamma=1.0)
        # Long history of 600 s gaps, then >1 h of recent 100 s gaps.
        for target in (policy, long_only):
            t = feed_regular(target, "fn", 600.0, 120)
            t = feed_regular(target, "fn", 100.0, 45, start=t + 100.0)
        blended = policy.windows("fn", t)
        pure_long = long_only.windows("fn", t)
        # The blended warm horizon shrinks toward the recent short
        # gaps, below what the long-term view alone would keep.
        blended_horizon = blended.prewarm_s + blended.keepalive_s
        long_horizon = pure_long.prewarm_s + pure_long.keepalive_s
        assert blended_horizon < long_horizon

    def test_remembers_beyond_hhp_window(self):
        long_short = lsth()
        hhp = HybridHistogramPolicy(duration_s=4 * 3600.0)
        for policy in (long_short, hhp):
            feed_regular(policy, "fn", 1800.0, 40)  # 20 hours of history
        now = 40 * 1800.0 + 5 * 3600.0  # five quiet hours later
        assert hhp.windows("fn", now) == hhp.DEFAULT_DECISION
        assert long_short.windows("fn", now) != long_short.DEFAULT_DECISION

    def test_short_window_activates_on_three_observations(self):
        policy = lsth()
        last = feed_regular(policy, "fn", 900.0, 4)
        decision = policy.windows("fn", last)
        assert decision != policy.DEFAULT_DECISION

    def test_name_includes_gamma(self):
        assert lsth(gamma=0.7).name == "lsth-g0.7"
