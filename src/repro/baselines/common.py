"""Shared machinery for the uniform-scaling baseline platforms.

OpenFaaS+ and BATCH differ from INFless in the same structural ways
(Table 3): every instance of a function gets the *same* configuration,
scaling is a simple target-count computation, placement ignores
fragmentation (first-fit), and retired instances sit in a fixed
keep-alive pool.  This base class implements that shared shape; the
concrete baselines override configuration selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster, Placement
from repro.cluster.resources import ResourceVector
from repro.core.autoscaler import ScalingStats
from repro.core.batching import RateBounds
from repro.core.function import FunctionSpec
from repro.core.instance import Instance, InstanceState
from repro.faults.resilience import backlog_sheds
from repro.profiling.configspace import InstanceConfig
from repro.profiling.predictor import LatencyPredictor
from repro.telemetry.tracer import NULL_TRACER, Tracer


@dataclass
class _WarmEntry:
    instance: Instance
    expires_at: float
    entered_at: float


@dataclass
class BaselineAction:
    """Control-step result (mirrors ScalingAction's useful fields)."""

    launched: int = 0
    reclaimed: int = 0
    released: int = 0
    target: int = 0
    scheduling_overhead_s: float = 0.0


class UniformScalingPlatform:
    """Base class for uniform-scaling serving platforms.

    Args:
        cluster: the cluster to place instances on.
        predictor: latency estimates used for capacity planning (the
            baselines profile functions as a whole; reusing the COP
            predictor only makes them *stronger* baselines).
        name: platform label for reports.
        seed: seed for the uniform request router.
        keepalive_s: fixed keep-alive window for retired instances.
        headroom: target utilisation of each instance's ``r_up`` when
            sizing the fleet (scaling out at 100% would leave no slack).
    """

    #: extra delay requests spend outside the platform (OTP designs).
    ingress_delay_s = 0.0
    #: bounded per-instance batch-queue depth (OpenFaaS+ overrides).
    waiting_batches = 2
    #: shed threshold in units of ``capacity_rps * slo_s``.
    shed_slo_factor = 2.0

    def __init__(
        self,
        cluster: Cluster,
        predictor: LatencyPredictor,
        *,
        name: str = "uniform",
        seed: int = 321,
        keepalive_s: float = 300.0,
        headroom: float = 0.85,
    ) -> None:
        if not 0.0 < headroom <= 1.0:
            raise ValueError("headroom must lie in (0, 1]")
        self.cluster = cluster
        self.predictor = predictor
        self.keepalive_s = keepalive_s
        self.headroom = headroom
        self.name = name
        self.stats = ScalingStats()
        self._functions: Dict[str, FunctionSpec] = {}
        self._active: Dict[str, List[Instance]] = {}
        self._warm: Dict[str, List[_WarmEntry]] = {}
        self._rng = np.random.default_rng(seed)
        # name -> (state version, valid-until, pool).  The router's
        # candidate pool only changes at control steps / failures
        # (version bump) or when a cold start finishes (valid-until).
        self._route_cache: Dict[str, tuple] = {}
        self._route_version = 0
        #: telemetry hooks, so baselines emit traces comparable to
        #: INFless's (attached by the serving runtime when recording).
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # to be provided by subclasses
    # ------------------------------------------------------------------
    def select_config(self, function: FunctionSpec, rps: float) -> InstanceConfig:
        """The uniform configuration for new instances of a function."""
        raise NotImplementedError

    def timeout_slack_s(self, function: FunctionSpec) -> float:
        """Latency budget consumed outside the platform (OTP buffer)."""
        return 0.0

    # ------------------------------------------------------------------
    # platform protocol
    # ------------------------------------------------------------------
    def deploy(self, function: FunctionSpec) -> None:
        if function.name in self._functions:
            raise ValueError(f"function {function.name!r} already deployed")
        self._functions[function.name] = function
        self._active[function.name] = []
        self._warm[function.name] = []

    def function(self, name: str) -> FunctionSpec:
        return self._functions[name]

    @property
    def functions(self) -> List[FunctionSpec]:
        return list(self._functions.values())

    def instances(self, name: str) -> List[Instance]:
        return list(self._active.get(name, []))

    def record_invocation(self, name: str, now: float) -> None:
        """Fixed keep-alive platforms keep no invocation history."""

    def route(self, name: str, now: float) -> Optional[Instance]:
        """Uniform platforms spread load evenly over ready instances.

        The pool is cached between control steps (see INFless's router
        for the invalidation rule); the uniform RNG draw still happens
        once per request so seeded replays stay bit-identical.
        """
        cached = self._route_cache.get(name)
        if (
            cached is not None
            and cached[0] == self._route_version
            and now < cached[1]
        ):
            pool = cached[2]
        else:
            candidates = [
                inst
                for inst in self._active.get(name, [])
                if inst.is_dispatchable()
            ]
            valid_until = min(
                (inst.ready_at for inst in candidates if inst.ready_at > now),
                default=float("inf"),
            )
            if candidates:
                ready = [inst for inst in candidates if now >= inst.ready_at]
                pool = ready or candidates
            else:
                pool = None
            self._route_cache[name] = (self._route_version, valid_until, pool)
        if pool is None:
            return None
        return pool[int(self._rng.integers(len(pool)))]

    # ------------------------------------------------------------------
    # capacity planning
    # ------------------------------------------------------------------
    def _instance_capacity(self, function: FunctionSpec, config: InstanceConfig):
        t_exec = self.predictor.predict(
            function.model, config.batch, config.cpu, config.gpu
        )
        # Exact (un-floored) sustainable rate: the per-second floor both
        # zeroes out for t_exec >= 1s and over-reports capacity through
        # the max(1, .) clamp, skewing the fleet-size computation.
        r_up = config.batch / t_exec
        bounds = RateBounds(r_low=0.0, r_up=float(r_up))
        return t_exec, bounds

    def _target_count(self, rps: float, r_up: float) -> int:
        if rps <= 0:
            return 0
        return max(1, math.ceil(rps / (r_up * self.headroom)))

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _place(self, resources: ResourceVector) -> Optional[Placement]:
        """First-fit placement: the uniform platforms' scheduler."""
        for server in self.cluster.servers:
            if server.can_fit(resources):
                return self.cluster.allocate(server.server_id, resources)
        return None

    def _make_instance(
        self, function: FunctionSpec, config: InstanceConfig, now: float
    ) -> Optional[Instance]:
        memory = int(round(function.model.memory_mb(config.batch)))
        placement = self._place(config.resources(memory_mb=memory))
        if placement is None:
            return None
        t_exec, bounds = self._instance_capacity(function, config)
        instance = Instance(
            function=function,
            config=config,
            t_exec_pred=t_exec,
            bounds=bounds,
            placement=placement,
            state=InstanceState.COLD_STARTING,
            timeout_slack_s=self.timeout_slack_s(function),
        )
        instance.ready_at = now + function.model.cold_start_s
        return instance

    # ------------------------------------------------------------------
    # warm pool
    # ------------------------------------------------------------------
    def _expire_warm(self, now: float) -> None:
        for name, entries in self._warm.items():
            kept = []
            for entry in entries:
                if now >= entry.expires_at:
                    self._unload(entry, until=entry.expires_at)
                else:
                    kept.append(entry)
            self._warm[name] = kept

    def _unload(self, entry: _WarmEntry, until: float) -> None:
        held = max(0.0, until - entry.entered_at)
        weighted = entry.instance.config.weighted_cost(self.cluster.beta)
        self.stats.reserved_idle_resource_s += held * weighted
        if entry.instance.placement is not None:
            self.cluster.release(entry.instance.placement)
            entry.instance.placement = None
        entry.instance.state = InstanceState.TERMINATED

    def _reclaim_warm(
        self, name: str, config: InstanceConfig, now: float
    ) -> Optional[Instance]:
        entries = self._warm[name]
        for index, entry in enumerate(entries):
            if entry.instance.config == config and now < entry.expires_at:
                del entries[index]
                held = max(0.0, now - entry.entered_at)
                weighted = entry.instance.config.weighted_cost(self.cluster.beta)
                self.stats.reserved_idle_resource_s += held * weighted
                entry.instance.state = InstanceState.ACTIVE
                entry.instance.ready_at = now
                return entry.instance
        return None

    # ------------------------------------------------------------------
    # the control step
    # ------------------------------------------------------------------
    def control(self, name: str, rps: float, now: float) -> BaselineAction:
        self._route_version += 1
        self._expire_warm(now)
        function = self._functions[name]
        active = self._active[name]
        action = BaselineAction()

        config = self.select_config(function, rps)
        required = rps / self.headroom

        # Scale out against the fleet's *actual* capacity: instances
        # launched at earlier load levels may carry older uniform
        # configurations (the platform does not re-configure in place).
        def capacity() -> float:
            return sum(inst.r_up for inst in active)

        shortfall_rps = max(0.0, required - capacity())
        while capacity() < required:
            instance = self._reclaim_warm(name, config, now)
            if instance is not None:
                self.stats.warm_reuses += 1
                action.reclaimed += 1
            else:
                instance = self._make_instance(function, config, now)
                if instance is None:
                    break  # cluster full
                self.stats.cold_starts += 1
                action.launched += 1
                if self.tracer.enabled:
                    self.tracer.cold_start(
                        name,
                        instance.instance_id,
                        now,
                        instance.ready_at,
                        (config.batch, config.cpu, config.gpu),
                    )
            self.stats.launches += 1
            active.append(instance)
        if self.tracer.enabled and (action.launched or action.reclaimed):
            self.tracer.scale_up(
                name, now, action.launched, action.reclaimed, shortfall_rps
            )

        # Scale in while the remaining fleet still covers the load.
        while len(active) > (1 if rps > 0 else 0):
            victim = self._pick_victim(active)
            if victim is None or capacity() - victim.r_up < required:
                break
            active.remove(victim)
            self._retire(name, victim, now)
            action.released += 1
        if self.tracer.enabled and action.released:
            self.tracer.scale_down(name, now, action.released)
        action.target = len(active)

        share = rps / len(active) if active else 0.0
        for instance in active:
            instance.assigned_rate = share
            if (
                instance.state == InstanceState.COLD_STARTING
                and now >= instance.ready_at
            ):
                instance.state = InstanceState.ACTIVE
        return action

    def _pick_victim(self, active: List[Instance]) -> Optional[Instance]:
        """The least throughput-dense idle instance retires first."""
        idle = [
            inst
            for inst in active
            if not inst.busy and (inst.queue is None or len(inst.queue) == 0)
        ]
        if not idle:
            return None
        beta = self.cluster.beta
        return min(
            idle, key=lambda inst: inst.r_up / inst.config.weighted_cost(beta)
        )

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def on_server_failure(self, server_id: int, now: float) -> List[Instance]:
        """Terminate instances lost with a failed machine."""
        self._route_version += 1
        lost_ids = {
            placement.placement_id
            for placement in self.cluster.fail_server(server_id)
        }
        lost: List[Instance] = []
        for name, group in self._active.items():
            kept = []
            for instance in group:
                placement = instance.placement
                if placement is not None and placement.placement_id in lost_ids:
                    instance.placement = None
                    instance.state = InstanceState.TERMINATED
                    lost.append(instance)
                else:
                    kept.append(instance)
            self._active[name] = kept
        for name, entries in self._warm.items():
            kept_entries = []
            for entry in entries:
                placement = entry.instance.placement
                if placement is not None and placement.placement_id in lost_ids:
                    entry.instance.placement = None
                    entry.instance.state = InstanceState.TERMINATED
                else:
                    kept_entries.append(entry)
            self._warm[name] = kept_entries
        return lost

    def should_shed(self, name: str, now: float, pending: int) -> bool:
        """Shed when the backlog exceeds the ready fleet's SLO budget."""
        function = self._functions.get(name)
        if function is None:
            return False
        return backlog_sheds(
            self._active.get(name, []),
            pending,
            now,
            function.slo_s,
            self.shed_slo_factor,
        )

    def kill_instance(self, name: str, now: float) -> Optional[Instance]:
        """Terminate one instance of ``name`` (container-crash fault)."""
        group = self._active.get(name)
        if not group:
            return None
        victim = max(group, key=lambda inst: inst.instance_id)
        group.remove(victim)
        if victim.placement is not None:
            self.cluster.release(victim.placement)
            victim.placement = None
        victim.state = InstanceState.TERMINATED
        victim.assigned_rate = 0.0
        self.stats.failures += 1
        self._route_version += 1
        return victim

    def _retire(self, name: str, instance: Instance, now: float) -> None:
        instance.state = InstanceState.WARM_IDLE
        instance.assigned_rate = 0.0
        self.stats.releases += 1
        self._warm[name].append(
            _WarmEntry(
                instance=instance,
                expires_at=now + self.keepalive_s,
                entered_at=now,
            )
        )
