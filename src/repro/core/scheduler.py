"""Algorithm 1: greedy batch / resource / placement scheduling.

Given the residual RPS toward a function, the scheduler repeatedly
launches the most resource-efficient feasible instance until the load
is covered:

1. explore batchsizes in *descending* order (batching contributes most
   to throughput, section 5.2);
2. ``AvailableConfig`` keeps only configurations whose predicted
   ``t_exec`` satisfies the SLO (``t_exec <= t_slo`` for ``b = 1``,
   ``t_exec <= t_slo/2`` *and* ``R_k >= r_low`` otherwise, so batches
   saturate before the waiting deadline);
3. score every (configuration, server) pair with Eq. 10's e_ij and
   place the argmax;
4. subtract the instance's ``r_up`` from the residual and repeat.

The search is exactly the paper's; the only engineering addition is a
best-fit shortcut: for a fixed configuration, e_ij is maximised by the
feasible server with the least weighted free capacity, so instead of
scoring all ``m`` servers per configuration, one vectorised query
(:meth:`~repro.cluster.cluster.Cluster.best_fit`) finds that server for
every candidate configuration of a placement at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.fleet import GpuProfile, profile_map
from repro.cluster.resources import ResourceVector
from repro.core import efficiency as _efficiency
from repro.core.batching import InfeasibleBatchError, RateBounds, rate_bounds
from repro.core.efficiency import rps_per_resource
from repro.core.function import FunctionSpec
from repro.core.instance import Instance, InstanceState
from repro.profiling.configspace import ConfigSpace, InstanceConfig, batch_choices
from repro.profiling.predictor import LatencyPredictor
from repro.specs import check_choice


class SchedulingError(RuntimeError):
    """No feasible configuration fits anywhere in the cluster."""


@dataclass
class SchedulingOutcome:
    """Result of covering (part of) a function's residual RPS."""

    instances: List[Instance] = field(default_factory=list)
    leftover_rps: float = 0.0
    #: wall-clock seconds spent inside Schedule() (Fig. 17a metric).
    overhead_s: float = 0.0

    @property
    def placed_capacity(self) -> float:
        """Total RPS capacity (sum of ``r_up``) of the placed instances."""
        return sum(inst.r_up for inst in self.instances)


#: alias kept for the public API: a scheduled instance IS an Instance.
ScheduledInstance = Instance


class GreedyScheduler:
    """The Schedule() procedure of Algorithm 1.

    Args:
        cluster: the cluster to place instances on.
        predictor: the COP latency predictor supplying
            ``t_exec = f(b, c, g)``.
        config_space: discrete ``<b, c, g>`` choices to explore.
    """

    def __init__(
        self,
        cluster: Cluster,
        predictor: LatencyPredictor,
        config_space: Optional[ConfigSpace] = None,
        dynamic_beta: bool = True,
        selection: str = "efficiency",
    ) -> None:
        check_choice("selection", selection, ("efficiency", "max_rps", "max_density"))
        self.cluster = cluster
        self.predictor = predictor
        self.config_space = config_space or ConfigSpace()
        #: "efficiency" is Algorithm 1's Eq. 10 scoring; "max_rps" is
        #: the RS-ablation of Fig. 11 ("selecting only the resource
        #: configuration with the maximum throughput").
        self.selection = selection
        #: (function, model, slo, batch) -> feasible (config, t_exec,
        #: bounds) rows independent of the residual-load filter;
        #: predictions do not change between scheduling calls, so this
        #: is safe to cache.  The key must carry the SLO and the model
        #: identity, not just the function name: ablation sweeps reuse
        #: a scheduler across specs that share a name but differ in
        #: either, and a name-only key hands them each other's rows.
        self._config_cache: Dict[Tuple[str, str, float, int], List[Tuple]] = {}
        #: (model, b, c, g) -> ResourceVector; the memory footprint of
        #: a configuration is a pure function of its key.
        self._resources_cache: Dict[Tuple, ResourceVector] = {}
        self._beta_cache: Tuple[int, float] = (-1, 0.0)
        #: re-price the CPU/GPU conversion factor by *remaining*
        #: cluster resources at each placement: when GPUs deplete,
        #: beta falls and CPU-lean/CPU-only configurations win the
        #: efficiency race (and vice versa).  This is the scheduler's
        #: reading of the paper's "evaluate the best beta" -- a static
        #: FLOPS ratio strands whichever resource runs out first.
        self.dynamic_beta = dynamic_beta
        #: server_id -> non-default GPU generation.  Empty on the
        #: homogeneous baseline fleet, which keeps every default code
        #: path (cache keys, scan order) bit-identical.
        self._gpu_profiles: Dict[int, GpuProfile] = profile_map(cluster)
        self._hetero = bool(self._gpu_profiles)
        #: distinct non-default generations, name-sorted for
        #: deterministic candidate enumeration; the leading ``None``
        #: stands for the calibration baseline and also supplies the
        #: generation-independent CPU-only rows.
        profiles: Dict[str, GpuProfile] = {
            p.name: p for p in self._gpu_profiles.values()
        }
        self._profile_order: List[Optional[GpuProfile]] = [None] + [
            profiles[name] for name in sorted(profiles)
        ]
        #: best-fit server masks: row 0 admits every server (CPU-only
        #: rows), row k the servers of ``_profile_order[k - 1]``.
        names = {sid: p.name for sid, p in self._gpu_profiles.items()}
        ids = [server.server_id for server in cluster.servers]
        self._generation_masks = np.array([cluster.server_mask(ids)] + [
            cluster.server_mask(
                sid for sid in ids
                if names.get(sid) == getattr(profile, "name", None)
            )
            for profile in self._profile_order
        ])
        #: optional :class:`~repro.workflows.coplace.CoPlacementHint`:
        #: when attached (workflow runs), placement prefers servers
        #: already hosting adjacent DAG stages, accepting them only
        #: within the hint's Eq. 10 score tolerance and never relaxing
        #: feasibility.  None (the default) keeps every existing code
        #: path bit-identical.
        self.coplacement = None

    def gpu_profile_for(self, server_id: int) -> Optional[GpuProfile]:
        """The server's non-default GPU generation (None = baseline)."""
        return self._gpu_profiles.get(server_id)

    def _efficiency_beta(self) -> float:
        """The beta used inside Eq. 10 at the current cluster state."""
        if not self.dynamic_beta:
            return self.cluster.beta
        version, cached = self._beta_cache
        if version == self.cluster.version:
            return cached
        # O(1): the cluster maintains these totals incrementally (they
        # span all servers, healthy or not, exactly like the per-server
        # sum they replace).
        free_cpu = self.cluster.free_cpu_total
        free_gpu = self.cluster.free_gpu_total
        beta = 1e4 if free_cpu <= 0 else max(0.05, min(1e4, free_gpu / free_cpu))
        self._beta_cache = (self.cluster.version, beta)
        return beta

    # ------------------------------------------------------------------
    # AvailableConfig (Algorithm 1, lines 16-27)
    # ------------------------------------------------------------------
    def available_configs(
        self,
        function: FunctionSpec,
        batch: int,
        residual_rps: float,
        gpu_profile: Optional[GpuProfile] = None,
    ) -> List[Tuple[InstanceConfig, float, RateBounds]]:
        """Feasible ``<b, c, g>`` configurations for one batchsize.

        Returns (config, t_exec, bounds) triples that satisfy the SLO
        constraints and, for ``b > 1``, can be saturated by the
        residual load (``R_k >= r_low``).  With ``gpu_profile`` set the
        rows are priced for that GPU generation (and CPU-only pairs are
        skipped -- they are generation-independent and already covered
        by the profile-free rows).
        """
        if gpu_profile is None:
            cache_key = (
                function.name, function.model.name, function.slo_s, batch,
            )
        else:
            cache_key = (
                function.name, function.model.name, function.slo_s, batch,
                gpu_profile.name,
            )
        rows = self._config_cache.get(cache_key)
        if rows is None:
            rows = []
            t_slo = function.slo_s
            for cpu, gpu in self.config_space.resource_pairs():
                config = InstanceConfig(batch=batch, cpu=cpu, gpu=gpu)
                if gpu_profile is None:
                    t_exec = self.predictor.predict(
                        function.model, batch, cpu, gpu
                    )
                else:
                    if gpu == 0:
                        continue
                    t_exec = self.predictor.predict(
                        function.model, batch, cpu, gpu,
                        gpu_profile=gpu_profile,
                    )
                try:
                    bounds = rate_bounds(t_exec, t_slo, batch)
                except InfeasibleBatchError:
                    continue
                rows.append((config, t_exec, bounds))
            self._config_cache[cache_key] = rows
        return [
            row
            for row in rows
            if batch == 1 or residual_rps >= row[2].r_low
        ]

    # ------------------------------------------------------------------
    # placement helpers
    # ------------------------------------------------------------------
    def _instance_resources(
        self, function: FunctionSpec, config: InstanceConfig
    ) -> ResourceVector:
        key = (function.model.name, config.batch, config.cpu, config.gpu)
        cached = self._resources_cache.get(key)
        if cached is None:
            memory = int(round(function.model.memory_mb(config.batch)))
            cached = config.resources(memory_mb=memory)
            self._resources_cache[key] = cached
        return cached

    def _best_fit(self, requests, server_masks=None, allowed=None):
        """:meth:`Cluster.best_fit` ranked at the efficiency beta.

        Keyed with the *efficiency* beta so the best-fit shortcut ranks
        servers exactly as Eq. 10 would score them; under dynamic beta
        the static ``cluster.beta`` ordering can disagree with the
        argmax once the free CPU/GPU ratio drifts.
        """
        return self.cluster.best_fit(
            requests, self._efficiency_beta(), server_masks, allowed
        )

    # ------------------------------------------------------------------
    # Schedule() (Algorithm 1, lines 1-15)
    # ------------------------------------------------------------------
    def schedule(
        self,
        function: FunctionSpec,
        residual_rps: float,
        allow_partial: bool = True,
        max_instances: Optional[int] = None,
    ) -> SchedulingOutcome:
        """Launch instances covering ``residual_rps`` for the function.

        Args:
            function: the function to scale out.
            residual_rps: the load existing instances cannot absorb.
            allow_partial: when the cluster fills up, return what was
                placed (with ``leftover_rps`` set) instead of raising.

        Raises:
            SchedulingError: cluster exhausted and ``allow_partial`` is
                False.
        """
        if residual_rps < 0:
            raise ValueError("residual_rps must be non-negative")
        started = time.perf_counter()
        outcome = SchedulingOutcome()
        remaining = residual_rps
        batches = [
            b
            for b in sorted(batch_choices(self.config_space.max_batch), reverse=True)
            if b <= function.model.max_batch
        ]

        while remaining > 1e-9:
            if max_instances is not None and len(outcome.instances) >= max_instances:
                break
            placed = self._schedule_one(function, remaining, batches)
            if placed is None:
                if allow_partial:
                    break
                raise SchedulingError(
                    f"{function.name}: no feasible placement for residual"
                    f" {remaining:.1f} RPS"
                )
            outcome.instances.append(placed)
            remaining = max(0.0, remaining - placed.r_up)

        outcome.leftover_rps = remaining
        outcome.overhead_s = time.perf_counter() - started
        return outcome

    def _schedule_one(
        self,
        function: FunctionSpec,
        remaining: float,
        batches: Sequence[int],
    ) -> Optional[Instance]:
        """One iteration of the outer while loop: place one instance."""
        for batch in batches:
            if self._hetero and self.selection == "efficiency":
                best = self._select_placement_hetero(function, batch, remaining)
                if best is None:
                    continue
            else:
                candidates = self.available_configs(function, batch, remaining)
                if not candidates:
                    continue  # try the next largest batchsize
                best = self._select_placement(function, candidates, remaining)
                if best is None:
                    continue
            config, t_exec, bounds, server_id = best
            resources = self._instance_resources(function, config)
            placement = self.cluster.allocate(server_id, resources)
            if self.coplacement is not None:
                self.coplacement.record(function.name, server_id)
            return Instance(
                function=function,
                config=config,
                t_exec_pred=t_exec,
                bounds=bounds,
                placement=placement,
                state=InstanceState.COLD_STARTING,
            )
        return None

    def _select_placement(self, function, candidates, remaining):
        """Argmax of e_ij over feasible (config, server) pairs.

        The Eq. 2 objective minimises the resources used for the
        *given* workload, so an instance's useful rate is capped at the
        residual it will actually serve: ``min(r_up, R_k)``.  Under
        stress this is exactly ``r_up``; at low load it steers the
        metric toward the smallest configuration that covers the
        residual instead of an over-sized high-capacity one.
        """
        if self.selection == "max_rps":
            return self._select_greedy(
                function, candidates, key=lambda row: row[2].r_up,
            )
        if self.selection == "max_density":
            beta = self.cluster.beta
            return self._select_greedy(
                function, candidates,
                key=lambda row: rps_per_resource(
                    min(row[2].r_up, remaining), row[0].cpu, row[0].gpu, beta
                ),
            )
        beta = self._efficiency_beta()
        densities = [
            rps_per_resource(
                min(bounds.r_up, remaining), config.cpu, config.gpu, beta
            )
            for config, _t, bounds in candidates
        ]
        normaliser = max(densities)
        # Eq. 10 inlined: the density term was already computed for the
        # normaliser above, so the per-pair score only needs the
        # fragmentation denominator.  Identical float-op order to
        # resource_efficiency() -- scores (and therefore placements)
        # are bit-identical; the module attribute is still read per
        # call so ablations may vary FRAGMENTATION_FLOOR.
        floor = _efficiency.FRAGMENTATION_FLOOR
        requests = [
            self._instance_resources(function, config)
            for config, _t, _bounds in candidates
        ]
        servers, server_costs = self._best_fit(requests)
        hint = self.coplacement
        preferred = (
            hint.preferred_servers(function.name)
            if hint is not None and hint.tracks(function.name)
            else ()
        )
        if preferred:
            pref_servers, pref_costs = self._best_fit(
                requests, allowed=self.cluster.server_mask(preferred)
            )
        best_score = -1.0
        best = None
        pref_score = -1.0
        pref_best = None
        for index, ((config, t_exec, bounds), density) in enumerate(
            zip(candidates, densities)
        ):
            server_id = servers[index]
            if server_id < 0:
                continue
            instance_cost = beta * config.cpu + config.gpu
            scaled = min(1.0, density / normaliser)
            score = scaled / max(
                1.0 - instance_cost / server_costs[index], floor
            )
            if score > best_score:
                best_score = score
                best = (config, t_exec, bounds, server_id)
            if preferred and server_id not in preferred:
                pref_id = pref_servers[index]
                if pref_id >= 0:
                    p_score = scaled / max(
                        1.0 - instance_cost / pref_costs[index], floor
                    )
                    if p_score > pref_score:
                        pref_score = p_score
                        pref_best = (config, t_exec, bounds, pref_id)
        if preferred and best is not None:
            # Prefer a server hosting an adjacent stage when its score
            # stays within the tolerance of the unconstrained argmax.
            if best[3] in preferred:
                hint.observe(True)
            elif (
                pref_best is not None
                and pref_score >= hint.tolerance * best_score
            ):
                hint.observe(True)
                best = pref_best
            else:
                hint.observe(False)
        return best

    def _select_placement_hetero(self, function, batch, remaining):
        """Eq. 10 argmax over (config, generation, server) triples.

        Each GPU generation prices the same ``<b, c, g>`` grid
        differently, so candidates are enumerated per generation
        (profile-free rows cover CPU-only configs and baseline-rate
        servers) and a row may only land on servers of its generation.
        The densities are normalised across the *union* of rows so
        Eq. 10 still compares generations against each other.
        """
        beta = self._efficiency_beta()
        rows = []
        generations = []
        for generation, profile in enumerate(self._profile_order, start=1):
            for row in self.available_configs(
                function, batch, remaining, gpu_profile=profile
            ):
                rows.append(row)
                # CPU-only rows are generation-independent: they may
                # land anywhere (mask 0), including GPU-less and
                # non-baseline servers.
                generations.append(
                    0 if profile is None and row[0].gpu == 0 else generation
                )
        if not rows:
            return None
        densities = [
            rps_per_resource(
                min(row[2].r_up, remaining), row[0].cpu, row[0].gpu, beta
            )
            for row in rows
        ]
        normaliser = max(densities)
        # Eq. 10 inlined exactly as in _select_placement.
        floor = _efficiency.FRAGMENTATION_FLOOR
        servers, server_costs = self._best_fit(
            [self._instance_resources(function, row[0]) for row in rows],
            server_masks=self._generation_masks[generations],
        )
        best_score = -1.0
        best = None
        for (config, t_exec, bounds), density, server_id, server_cost in zip(
            rows, densities, servers, server_costs
        ):
            if server_id < 0:
                continue
            instance_cost = beta * config.cpu + config.gpu
            scaled = min(1.0, density / normaliser)
            score = scaled / max(1.0 - instance_cost / server_cost, floor)
            if score > best_score:
                best_score = score
                best = (config, t_exec, bounds, server_id)
        return best

    def _select_greedy(self, function, candidates, key):
        """Packing-blind selection used by the RS ablations of Fig. 11.

        Config choice ignores Eq. 10 and placement degrades to
        first-fit (uniform platforms' behaviour) -- both halves of the
        resource-scheduling component are off.
        """
        for config, t_exec, bounds in sorted(candidates, key=key, reverse=True):
            resources = self._instance_resources(function, config)
            for server in self.cluster.servers:
                if server.can_fit(resources):
                    return (config, t_exec, bounds, server.server_id)
        return None

    # ------------------------------------------------------------------
    # release
    # ------------------------------------------------------------------
    def release(self, instance: Instance) -> None:
        """Return an instance's resources to the cluster."""
        if instance.placement is not None:
            if self.coplacement is not None:
                self.coplacement.forget(
                    instance.function.name, instance.placement.server_id
                )
            self.cluster.release(instance.placement)
            instance.placement = None
        instance.state = InstanceState.TERMINATED

