"""Unit tests for the analytic operator cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ops.costmodel import (
    CostModel,
    HardwareSpec,
    is_pow2,
    log2_int,
    max_batch_for_model,
    proportional_cpu_quota,
    round_up_pow2,
)
from repro.ops.operator import OperatorSpec

MATMUL = OperatorSpec("MatMul", gflops_per_item=1.0)
RELU = OperatorSpec("Relu", gflops_per_item=1.0)


@pytest.fixture(scope="module")
def model():
    return CostModel()


class TestOperatorTime:
    def test_more_cpu_is_faster(self, model):
        assert model.operator_time(MATMUL, 1, 8, 0) < model.operator_time(
            MATMUL, 1, 1, 0
        )

    def test_more_gpu_is_faster(self, model):
        assert model.operator_time(MATMUL, 8, 1, 50) < model.operator_time(
            MATMUL, 8, 1, 10
        )

    def test_bigger_batch_takes_longer(self, model):
        assert model.operator_time(MATMUL, 16, 2, 20) > model.operator_time(
            MATMUL, 1, 2, 20
        )

    def test_bigger_batch_improves_throughput_on_gpu(self, model):
        small = model.throughput_items_per_s(MATMUL, 1, 1, 20)
        large = model.throughput_items_per_s(MATMUL, 16, 1, 20)
        assert large > small

    def test_memory_bound_op_caps_cpu_scaling(self, model):
        # Beyond the bandwidth cap, more cores change nothing.
        assert model.operator_time(RELU, 4, 8, 0) == pytest.approx(
            model.operator_time(RELU, 4, 16, 0)
        )

    def test_memory_bound_op_caps_gpu_scaling(self, model):
        assert model.operator_time(RELU, 4, 1, 50) == pytest.approx(
            model.operator_time(RELU, 4, 1, 100)
        )

    def test_dense_op_keeps_scaling(self, model):
        assert model.operator_time(MATMUL, 4, 1, 100) < model.operator_time(
            MATMUL, 4, 1, 50
        )

    def test_calls_multiply_dispatch_overhead(self, model):
        one = OperatorSpec("MatMul", gflops_per_item=1e-9, calls=1)
        many = OperatorSpec("MatMul", gflops_per_item=1e-9, calls=10)
        assert model.operator_time(many, 1, 1, 0) == pytest.approx(
            10 * model.operator_time(one, 1, 1, 0), rel=1e-3
        )

    def test_zero_batch_rejected(self, model):
        with pytest.raises(ValueError):
            model.operator_time(MATMUL, 0, 1, 0)

    def test_no_resources_rejected(self, model):
        with pytest.raises(ValueError):
            model.operator_time(MATMUL, 1, 0, 0)

    def test_gpu_only_instance_allowed(self, model):
        assert model.operator_time(MATMUL, 1, 0, 50) > 0

    @given(batch=st.integers(1, 64), cpu=st.integers(1, 16), gpu=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_time_always_positive(self, model, batch, cpu, gpu):
        assert model.operator_time(MATMUL, batch, cpu, gpu) > 0

    @pytest.mark.parametrize("spec", [MATMUL, RELU, OperatorSpec("Add", 0.3, calls=7)])
    def test_grid_equals_scalar_calls_bit_for_bit(self, model, spec):
        # Fractional quotas (the Lambda baseline), GPU-only, CPU-only and
        # a negative GPU share (treated as none) in one grid.
        batch = np.array([1, 4, 32, 2, 8, 16])
        cpu = np.array([0.5, 0.0, 8.0, 1.7, 16.0, 3.0])
        gpu = np.array([0, 50, 100, 10, -10, 30])
        grid = model.operator_time(spec, batch, cpu, gpu)
        scalars = [
            model.operator_time(spec, int(b), float(c), int(g))
            for b, c, g in zip(batch, cpu, gpu)
        ]
        assert isinstance(scalars[0], float)
        assert grid.tolist() == scalars
        assert scalars[4] == model.operator_time(spec, 8, 16.0, 0)

    def test_grid_checks_every_element(self, model):
        ok = np.array([1, 2])
        with pytest.raises(ValueError):
            model.operator_time(MATMUL, np.array([1, 0]), ok, ok)
        with pytest.raises(ValueError):
            model.operator_time(MATMUL, ok, np.array([1, 0]), np.array([0, 0]))


class TestServingOverhead:
    def test_grows_linearly_with_batch(self, model):
        base = model.serving_overhead(1)
        assert model.serving_overhead(9) == pytest.approx(
            base + 8 * model.hardware.serving_per_item_s
        )


class TestNoise:
    def test_zero_sigma_is_identity(self):
        silent = CostModel(HardwareSpec(noise_sigma=0.0))
        rng = np.random.default_rng(0)
        assert silent.sample_time(0.5, rng) == 0.5

    def test_noise_has_unit_mean(self, model):
        rng = np.random.default_rng(1)
        samples = [model.sample_time(1.0, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.01)

    def test_noise_is_seed_deterministic(self, model):
        a = model.sample_time(1.0, np.random.default_rng(7))
        b = model.sample_time(1.0, np.random.default_rng(7))
        assert a == b

    def test_array_draws_the_scalar_stream(self, model):
        means = np.arange(1.0, 13.0).reshape(2, 3, 2)
        scalar_rng, array_rng = np.random.default_rng(3), np.random.default_rng(3)
        expected = [model.sample_time(mean, scalar_rng) for mean in means.ravel().tolist()]
        assert model.sample_time(means, array_rng).ravel().tolist() == expected
        assert array_rng.random() == scalar_rng.random()


class TestLambdaQuota:
    def test_one_vcpu_at_1769mb(self):
        assert proportional_cpu_quota(1769.0) == pytest.approx(1.0)

    def test_scales_linearly(self):
        assert proportional_cpu_quota(3538.0) == pytest.approx(2.0)

    def test_rejects_non_positive_memory(self):
        with pytest.raises(ValueError):
            proportional_cpu_quota(0.0)


class TestBatchHelpers:
    @pytest.mark.parametrize(
        "gflops,expected", [(25.0, 8), (5.0, 16), (3.9, 32), (0.01, 32)]
    )
    def test_max_batch_tiers(self, gflops, expected):
        assert max_batch_for_model(gflops) == expected

    def test_max_batch_rejects_zero(self):
        with pytest.raises(ValueError):
            max_batch_for_model(0.0)

    @pytest.mark.parametrize("value,expected", [(1, 1), (3, 4), (8, 8), (9, 16)])
    def test_round_up_pow2(self, value, expected):
        assert round_up_pow2(value) == expected

    def test_round_up_pow2_rejects_zero(self):
        with pytest.raises(ValueError):
            round_up_pow2(0)

    def test_is_pow2(self):
        assert is_pow2(1) and is_pow2(32)
        assert not is_pow2(0) and not is_pow2(12)

    def test_log2_int(self):
        assert log2_int(32) == 5

    def test_log2_int_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            log2_int(12)

    @given(st.integers(1, 1 << 20))
    def test_round_up_pow2_properties(self, value):
        rounded = round_up_pow2(value)
        assert rounded >= value
        assert is_pow2(rounded)
        assert rounded < 2 * value + 1
