"""Offline operator profiler.

Measures every operator kind across the discrete configuration grid --
against the noisy ground-truth cost model, which stands in for running
the operator on the testbed -- and fills the profile database.  Per the
paper this is done once, ahead of function deployment; models deployed
later reuse the shared operator profiles (Observation 6).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.ops.catalog import OPERATOR_CATALOG
from repro.ops.costmodel import CostModel, DEFAULT_HARDWARE, HardwareSpec
from repro.ops.operator import OperatorProfile, OperatorSpec
from repro.profiling.configspace import (
    ConfigSpace,
    DEFAULT_INPUT_SIZES,
)
from repro.profiling.database import ConfigKey, ProfileDatabase


class OperatorProfiler:
    """Populates a :class:`ProfileDatabase` by measuring operator kinds.

    Args:
        hardware: the simulated hardware to measure against.
        config_space: the (b, c, g) grid to cover.
        input_sizes: GFLOPs-per-call grid; model operator work is
            interpolated between these points at prediction time.
        repetitions: measurements averaged per grid point (more
            repetitions shrink noise in the stored profile, like longer
            profiling runs would on real hardware).
        seed: measurement-noise seed, distinct from the runtime
            executor's so profiles and executions are independent draws.
    """

    def __init__(
        self,
        hardware: HardwareSpec = DEFAULT_HARDWARE,
        config_space: Optional[ConfigSpace] = None,
        input_sizes: Sequence[float] = DEFAULT_INPUT_SIZES,
        repetitions: int = 3,
        seed: int = 7,
    ) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.hardware = hardware
        self.cost_model = CostModel(hardware)
        self.config_space = config_space or ConfigSpace()
        self.input_sizes = tuple(input_sizes)
        self.repetitions = repetitions
        self._rng = np.random.default_rng(seed)

    def _measure_grid(
        self,
        operators: Sequence[str],
        configs: Sequence[ConfigKey],
        input_sizes: Sequence[float],
    ) -> np.ndarray:
        """Measured times over ``operators`` x ``configs`` x ``input_sizes``.

        Returns an array of shape ``(operator, config, input size)``, each the
        average of ``repetitions`` noisy runs.  The noise for the whole
        grid is one draw in the C order of ``(operator, config, input
        size, repetition)`` -- the order of measuring point by point --
        so the values and the generator's state afterwards are the same.
        """
        batch, cpu, gpu = np.asarray(configs).reshape(-1, 3).T
        means = np.empty((len(operators), len(configs), len(input_sizes)))
        for i, operator in enumerate(operators):
            for k, input_size in enumerate(input_sizes):
                spec = OperatorSpec(
                    kind_name=operator, gflops_per_item=input_size, calls=1
                )
                means[i, :, k] = self.cost_model.operator_time(spec, batch, cpu, gpu)
        # A contiguous repetition axis: np.mean then sums each point's
        # repetitions in the order it sums a list of them (even without
        # noise, (x + x + x) / 3 need not equal x).
        repeated = np.repeat(means[..., np.newaxis], self.repetitions, axis=-1)
        samples = self.cost_model.sample_time(repeated, self._rng)
        return np.mean(samples, axis=-1)

    def measure(
        self, operator: str, input_size: float, batch: int, cpu: int, gpu: int
    ) -> OperatorProfile:
        """Measure one grid point (average of ``repetitions`` runs)."""
        times = self._measure_grid([operator], [(batch, cpu, gpu)], [input_size])
        return OperatorProfile(
            operator=operator,
            input_size=input_size,
            batch=batch,
            cpu=cpu,
            gpu=gpu,
            time_s=float(times[0, 0, 0]),
        )

    def _config_keys(self) -> List[ConfigKey]:
        return [
            (config.batch, config.cpu, config.gpu)
            for config in self.config_space.all_configs()
        ]

    def profile_operator(self, operator: str) -> List[OperatorProfile]:
        """All grid points for one operator kind."""
        keys = self._config_keys()
        times = self._measure_grid([operator], keys, self.input_sizes)
        return [
            OperatorProfile(
                operator=operator,
                input_size=input_size,
                batch=batch,
                cpu=cpu,
                gpu=gpu,
                time_s=time_s,
            )
            for (batch, cpu, gpu), row in zip(keys, times[0].tolist())
            for input_size, time_s in zip(self.input_sizes, row)
        ]

    def build_database(
        self, operators: Optional[Iterable[str]] = None
    ) -> ProfileDatabase:
        """Profile the given operators (default: the whole catalog)."""
        names = sorted(OPERATOR_CATALOG) if operators is None else list(operators)
        keys = self._config_keys()
        times = self._measure_grid(names, keys, self.input_sizes)
        # Index the size tuple itself, so every series shares its float
        # objects instead of holding one copy per point.
        size_objects = np.asarray(self.input_sizes, dtype=object)
        size_values = np.broadcast_to(np.asarray(self.input_sizes), times.shape[1:])
        database = ProfileDatabase()
        for name, op_times in zip(names, times):
            # Each series sorted by (input size, time), as insort leaves it.
            order = np.lexsort((op_times, size_values), axis=-1)
            database.load_sorted(
                name,
                {
                    key: list(zip(size_row, time_row))
                    for key, size_row, time_row in zip(
                        keys,
                        size_objects[order].tolist(),
                        np.take_along_axis(op_times, order, axis=-1).tolist(),
                    )
                },
            )
        return database
