"""INFlessEngine: the public facade of the reproduction.

Wires together the pieces of Fig. 4: the COP predictor (model
profiles), the greedy scheduler (batch/resource/placement decisions),
the batch-aware dispatcher with non-uniform scaling, and the LSTH
cold-start manager.  The simulation runtime and the examples talk to
this class only.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.autoscaler import AutoScaler, HybridAutoScaler, ScalingAction
from repro.core.coldstart import KeepAlivePolicy, build_coldstart_policy
from repro.core.dispatcher import ALPHA_DEFAULT
from repro.core.function import FunctionSpec
from repro.core.instance import Instance
from repro.core.scheduler import GreedyScheduler
from repro.faults.resilience import backlog_sheds
from repro.profiling.configspace import ConfigSpace
from repro.profiling.predictor import LatencyPredictor, build_default_predictor
from repro.specs import check_choice

#: ``autoscaler=`` values: scale-out only, or vertical growth first.
AUTOSCALERS = ("horizontal", "hybrid")


class INFlessEngine:
    """The native serverless inference platform.

    ``invariant_slo_check = "exact"``: the audit layer may recompute
    Eq. 1 for every placed instance and expect its stored bounds to
    match -- INFless configures instances per the paper exactly.

    Args:
        cluster: the cluster to manage.
        predictor: COP latency predictor; profiled on first use when
            omitted.
        name: platform name used in reports and benchmarks.
        seed: seed for the weighted request router.
        policy: keep-alive policy object (defaults to LSTH with
            gamma = 0.5); mutually exclusive with ``coldstart``.
        coldstart: cold-start policy registry name
            (:data:`repro.core.coldstart.COLDSTART_POLICIES`).
        autoscaler: ``"horizontal"`` (the paper's scale-out-only
            AutoScaler) or ``"hybrid"`` (vertical SM-quota growth
            before horizontal spawn).
        config_space: the discrete instance configuration space.
        alpha: dispatcher oscillation-damping constant (paper: 0.8).
    """

    invariant_slo_check = "exact"
    #: protocol knobs -- INFless models no extra gateway hop and uses
    #: the paper's two-waiting-batches queue bound.
    ingress_delay_s = 0.0
    waiting_batches = 2
    #: shed threshold in units of ``capacity_rps * slo_s``.
    shed_slo_factor = 2.0

    def __init__(
        self,
        cluster: Cluster,
        predictor: Optional[LatencyPredictor] = None,
        *,
        name: str = "infless",
        seed: int = 123,
        policy: Optional[KeepAlivePolicy] = None,
        coldstart: Optional[str] = None,
        autoscaler: str = "horizontal",
        config_space: Optional[ConfigSpace] = None,
        alpha: float = ALPHA_DEFAULT,
    ) -> None:
        if policy is not None and coldstart is not None:
            raise ValueError("pass either policy= or coldstart=, not both")
        check_choice("autoscaler", autoscaler, AUTOSCALERS)
        self.name = name
        self.cluster = cluster
        self.predictor = predictor or build_default_predictor()
        self.policy = policy or build_coldstart_policy(coldstart or "lsth")
        self.scheduler = GreedyScheduler(
            cluster, self.predictor, config_space=config_space
        )
        scaler_cls = HybridAutoScaler if autoscaler == "hybrid" else AutoScaler
        self.autoscaler = scaler_cls(self.scheduler, self.policy, alpha=alpha)
        self._functions: Dict[str, FunctionSpec] = {}
        self._rng = np.random.default_rng(seed)
        # name -> (autoscaler version, valid-until time, chosen
        # candidate list, probability vector).  Candidate sets and
        # rates only change at control steps (version bump) or when a
        # cold-starting instance's ready_at passes (valid-until), so
        # between those moments route() reuses the same arrays.
        self._route_cache: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def deploy(self, function: FunctionSpec) -> None:
        """Register a function (the faas-cli 'deploy' step)."""
        if function.name in self._functions:
            raise ValueError(f"function {function.name!r} already deployed")
        self._functions[function.name] = function

    def function(self, name: str) -> FunctionSpec:
        try:
            return self._functions[name]
        except KeyError:
            known = ", ".join(sorted(self._functions))
            raise KeyError(f"unknown function {name!r}; deployed: {known}") from None

    @property
    def functions(self) -> List[FunctionSpec]:
        return list(self._functions.values())

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def control(self, name: str, rps: float, now: float) -> ScalingAction:
        """One auto-scaling control step for a function."""
        return self.autoscaler.observe(self.function(name), rps, now)

    def record_invocation(self, name: str, now: float) -> None:
        """Feed an invocation into the cold-start policy's histograms."""
        self.policy.record_invocation(name, now)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def instances(self, name: str) -> List[Instance]:
        return self.autoscaler.active_instances(name)

    def route(self, name: str, now: float) -> Optional[Instance]:
        """Pick an instance for one request, weighted by assigned rates.

        Returns None when the function currently has no dispatchable
        instance (the runtime parks the request until the next control
        step launches one).

        The candidate set and its weighted-sampling CDF are cached
        between control steps: they depend only on the autoscaler's
        state and on which cold starts have finished, so the cache is
        keyed on the autoscaler version and invalidated when ``now``
        crosses the next pending ``ready_at``.  The RNG draw itself is
        never cached -- each request consumes exactly one uniform draw
        from the same stream ``Generator.choice`` would (``choice``
        with a ``p`` vector computes ``cdf = p.cumsum(); cdf /=
        cdf[-1]`` and inverts one ``random()`` sample through it; the
        CDF is the part worth caching, the draw is not).
        """
        version = self.autoscaler.version
        cached = self._route_cache.get(name)
        if cached is not None and cached[0] == version and now < cached[1]:
            candidates, cdf = cached[2], cached[3]
            if candidates is None:
                return None
        else:
            candidates = [
                inst
                for inst in self.autoscaler.active_instances(name)
                if inst.is_dispatchable()
            ]
            # The ready/cold split below flips when a pending cold
            # start completes; the cached entry expires at the earliest
            # such moment.
            valid_until = min(
                (inst.ready_at for inst in candidates if inst.ready_at > now),
                default=float("inf"),
            )
            if not candidates:
                self._route_cache[name] = (version, valid_until, None, None)
                return None
            # Prefer instances whose cold start already finished; fall
            # back to cold-starting ones (their requests wait for
            # readiness).
            ready = [inst for inst in candidates if now >= inst.ready_at]
            candidates = ready or candidates
            weights = np.array(
                [max(inst.assigned_rate, 1e-9) for inst in candidates],
                dtype=float,
            )
            probabilities = weights / weights.sum()
            cdf = probabilities.cumsum()
            cdf /= cdf[-1]
            self._route_cache[name] = (version, valid_until, candidates, cdf)
        index = int(cdf.searchsorted(self._rng.random(), side="right"))
        return candidates[index]

    def timeout_slack_s(self, function: FunctionSpec) -> float:
        """INFless spends the whole timeout budget on batching."""
        return 0.0

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def on_server_failure(self, server_id: int, now: float) -> List[Instance]:
        """React to a machine loss: terminate its instances.

        Returns the lost instances so the serving runtime can re-route
        their queued requests; the next control step re-provisions the
        missing capacity on the surviving servers.
        """
        lost_placements = self.cluster.fail_server(server_id)
        ids = {placement.placement_id for placement in lost_placements}
        return self.autoscaler.evict_lost(
            ids, now, failed_server_ids={server_id}
        )

    def should_shed(self, name: str, now: float, pending: int) -> bool:
        """Shed when the backlog exceeds the ready fleet's SLO budget."""
        function = self._functions.get(name)
        if function is None:
            return False
        return backlog_sheds(
            self.autoscaler.active_instances(name),
            pending,
            now,
            function.slo_s,
            self.shed_slo_factor,
        )

    def kill_instance(self, name: str, now: float) -> Optional[Instance]:
        """Terminate one instance of ``name`` (container-crash fault)."""
        return self.autoscaler.kill_instance(name, now)

    # ------------------------------------------------------------------
    # capacity views
    # ------------------------------------------------------------------
    def capacity_rps(self, name: str) -> float:
        """Sum of active instances' rate upper bounds."""
        return sum(inst.r_up for inst in self.autoscaler.active_instances(name))

    def weighted_resources_in_use(self) -> float:
        return self.cluster.weighted_used()
