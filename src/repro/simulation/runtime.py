"""The serving runtime: requests, batch queues and instance execution.

Drives a :class:`~repro.simulation.platform.ServingPlatform` with
pre-sampled arrival streams.  The lifecycle of one request:

1. **arrival** -- recorded, fed to the cold-start policy, routed to an
   instance (or parked in a per-function pending queue when no
   instance exists yet);
2. **batching** -- waits in the instance's batch queue until the batch
   fills or the waiting deadline (``t_slo - t_exec``) fires; per
   Fig. 6(a), a request arriving while the instance is busy and the
   waiting batch is already full is dropped;
3. **execution** -- the ground-truth executor supplies the (noisy)
   batch duration; completion records the latency decomposition
   ``l = t_cold + t_batch + t_exec``.

The control loop ticks every ``control_interval_s``: it estimates each
function's RPS (measured EWMA by default, or an oracle reading of the
trace), runs the platform's auto-scaler, re-dispatches parked requests
and samples resource usage.

Fault injection (``repro.faults``): a seeded :class:`FaultPlan` is
materialized into ordinary heap events, and a
:class:`~repro.faults.ResiliencePolicy` adds per-request deadlines,
exponential-backoff retries of requests stranded in lost batches, and
gateway load-shedding.  With neither configured the zero-fault replay
is bit-identical to a runtime without this machinery.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import asdict
from typing import Deque, Dict, List, Optional, Union

import numpy as np

from repro.cluster.fleet import profile_map
from repro.core.instance import Instance, InstanceState
from repro.faults import (
    ColdStartStraggler,
    FaultPlan,
    IngressSpike,
    InstanceKill,
    ResiliencePolicy,
    ServerCrash,
    ServerRecovery,
)
from repro.invariants import InvariantChecker, resolve_checker
from repro.profiling.executor import GroundTruthExecutor
from repro.simulation.engine import EventLoop
from repro.simulation.events import Event, EventKind
from repro.simulation.metrics import MetricsCollector, RequestRecord, SimulationReport
from repro.simulation.platform import ServingPlatform
from repro.specs import check_choice
from repro.telemetry import (
    DROP_DEADLINE,
    DROP_NO_CAPACITY,
    DROP_QUEUE_FULL,
    DROP_SERVER_FAILURE,
    DROP_SHED,
    DROP_SLO_UNREACHABLE,
    NULL_TRACER,
    TimelineRecorder,
    Tracer,
    attach_tracer,
)
from repro.workloads.arrivals import sample_arrivals, sample_arrivals_window
from repro.workloads.trace import Trace
from repro.workflows.spec import WorkflowSpec

_request_ids = itertools.count()


class Request:
    """One inference request in flight.

    For chained applications (the paper's section 7 future work),
    ``arrival`` is when the request reached its *current stage* (it
    drives the stage's batch-queue deadline) while ``origin_arrival``
    is when the user issued it (it drives the end-to-end SLO).

    A ``__slots__`` class: one instance exists per simulated request,
    so per-object dict overhead dominates replay memory otherwise.
    """

    __slots__ = (
        "function", "arrival", "slo_s", "origin_arrival", "request_id",
        "attempt", "root_id",
    )

    def __init__(
        self,
        function: str,
        arrival: float,
        slo_s: float,
        origin_arrival: Optional[float] = None,
        request_id: Optional[int] = None,
        root_id: Optional[int] = None,
    ) -> None:
        self.function = function
        self.arrival = arrival
        self.slo_s = slo_s
        self.origin_arrival = origin_arrival
        self.request_id = (
            next(_request_ids) if request_id is None else request_id
        )
        #: how many times the request has been re-dispatched after
        #: being stranded in a lost batch (resilience retries).
        self.attempt = 0
        #: the workflow root request this token descends from (None for
        #: non-workflow requests and workflow entry arrivals, whose own
        #: ``request_id`` is the root).
        self.root_id = root_id

    @property
    def root(self) -> int:
        """Workflow identity: the root request id this token serves."""
        return self.request_id if self.root_id is None else self.root_id

    @property
    def origin(self) -> float:
        """User-visible issue time: drives the end-to-end SLO."""
        return self.arrival if self.origin_arrival is None else self.origin_arrival

    def __repr__(self) -> str:
        return (
            f"Request(function={self.function!r}, arrival={self.arrival!r},"
            f" slo_s={self.slo_s!r}, origin_arrival={self.origin_arrival!r},"
            f" request_id={self.request_id!r})"
        )


class _BatchInFlight:
    """One executing batch: its instance, members and timing."""

    __slots__ = ("instance", "requests", "start", "exec_s", "batch_id", "lost")

    def __init__(
        self,
        instance: Instance,
        requests: list,
        start: float,
        exec_s: float,
        batch_id: int = 0,
    ) -> None:
        self.instance = instance
        self.requests = requests
        self.start = start
        self.exec_s = exec_s
        # tracer-assigned batch id (0 with the null tracer).
        self.batch_id = batch_id
        # set when the batch died with its server and its requests were
        # already re-accounted (retried or dropped) at crash time.
        self.lost = False


class ServingSimulation:
    """Replays traces against a platform and reports the outcome.

    Args:
        platform: the system under test.
        executor: ground-truth execution times (the 'hardware').
        workload: function name -> arrival-rate trace.
        control_interval_s: auto-scaler tick period.
        rate_mode: ``"measured"`` estimates RPS from observed arrivals
            with EWMA smoothing; ``"oracle"`` reads the trace directly
            (models an external rate monitor with no estimation lag).
        ewma: smoothing weight on the newest measurement.
        pending_cap: max requests parked while a function has no
            instance; beyond it arrivals are dropped.
        cold_queue_batches: how many batches may queue at an instance
            that is still cold-starting before arrivals drop.
        workflow: optional :class:`~repro.workflows.spec.WorkflowSpec`
            DAG (the paper's section 7 function chains, generalised):
            stage completions fan out along the DAG's edges, join
            barriers gate fan-in stages until every upstream copy
            arrives, and the workflow's end-to-end SLO is judged when
            the sink completes; only the sink records a completion and
            only the entry stage may carry a workload trace.  Adds a
            ``workflows`` block to the report.
        tracer: telemetry hooks; the default null tracer records
            nothing and costs one no-op call per hook site.  The tracer
            is also attached to the platform's control-plane components
            so scale/cold-start decisions land in the same trace.
        timeline: optional per-control-tick metrics recorder (queue
            depths, instance counts, RPS estimate vs. oracle, usage).
        invariants: the conservation-invariant audit layer -- a mode
            string (``"off"``, ``"collect"``, ``"strict"``) or a
            pre-built :class:`~repro.invariants.InvariantChecker`;
            ``None`` resolves the process-wide default mode (off in
            production, strict under the test suite).
        faults: optional chaos scenario -- a
            :class:`~repro.faults.FaultPlan`, its dict form, or a path
            to a plan JSON file; materialized into simulation events at
            :meth:`run`.
        resilience: optional
            :class:`~repro.faults.ResiliencePolicy` (or ``True`` for
            the defaults) enabling deadlines, retries of requests
            stranded in lost batches, and gateway load-shedding.  Retry
            jitter draws from its own seeded stream so the main
            arrival/routing/execution stream is untouched.
        seed: randomness for arrival sampling, routing noise and
            execution-time noise.
    """

    def __init__(
        self,
        platform: ServingPlatform,
        executor: GroundTruthExecutor,
        workload: Dict[str, Trace],
        control_interval_s: float = 1.0,
        rate_mode: str = "measured",
        ewma: float = 0.6,
        pending_cap: int = 100_000,
        cold_queue_batches: int = 64,
        warmup_s: float = 0.0,
        workflow: Optional[WorkflowSpec] = None,
        tracer: Optional[Tracer] = None,
        timeline: Optional[TimelineRecorder] = None,
        invariants: Union[None, str, InvariantChecker] = None,
        faults: Union[None, FaultPlan, Dict[str, object], str] = None,
        resilience: Union[None, bool, ResiliencePolicy] = None,
        metrics_mode: str = "exact",
        arrival_mode: str = "eager",
        arrival_window_s: float = 60.0,
        seed: int = 42,
    ) -> None:
        check_choice("rate_mode", rate_mode, ("measured", "oracle"))
        if not 0.0 < ewma <= 1.0:
            raise ValueError("ewma must lie in (0, 1]")
        check_choice("arrival_mode", arrival_mode, ("eager", "windowed"))
        if arrival_window_s <= 0:
            raise ValueError("arrival_window_s must be positive")
        self.platform = platform
        self.executor = executor
        self.workload = dict(workload)
        self.control_interval_s = control_interval_s
        self.rate_mode = rate_mode
        self.ewma = ewma
        self.pending_cap = pending_cap
        self.cold_queue_batches = cold_queue_batches
        self.warmup_s = warmup_s
        #: the DAG workflow under test (None for plain runs); drives
        #: fan-out/fan-in forwarding, the end-to-end deadline at the
        #: sink and the report's ``workflows`` block.
        self.workflow = workflow
        self._wf_tracking = workflow is not None
        #: workflow requests are judged against the end-to-end budget,
        #: while each stage's (smaller) function SLO drives its batch
        #: deadline.
        self.end_to_end_slo_s: Optional[float] = None
        #: stage -> downstream stages (only stages with successors).
        self._successors: Dict[str, tuple] = {}
        self._fan_in: Dict[str, int] = {}
        #: functions the control loop manages: the trace-driven ones.
        self._managed = list(workload)
        if workflow is not None:
            self.end_to_end_slo_s = workflow.end_to_end_slo_s
            stage_names = set(workflow.stage_names())
            entry = workflow.entry
            for name in workload:
                if name in stage_names and name != entry:
                    raise ValueError(
                        f"only the workflow entry stage {entry!r} may carry"
                        f" a workload trace, not {name!r}"
                    )
            if entry not in workload:
                raise ValueError(
                    f"workflow entry stage {entry!r} needs a workload trace"
                )
            self._successors = {
                s.name: s.downstream for s in workflow.stages if s.downstream
            }
            self._fan_in = workflow.fan_in()
            # The DAG's interior stages join in topological order
            # (upstream rates settle before downstream ones read their
            # forwarded arrivals).
            self._managed += [
                n for n in workflow.topological_order() if n not in workload
            ]
        # -- workflow bookkeeping (all zero outside workflow mode) ------
        #: (stage, root) -> tokens waiting at a fan-in join barrier.
        self._join_barriers: Dict[tuple, List[Request]] = {}
        #: extra tokens created by fan-out / tokens merged away or
        #: silently absorbed -- the conservation ledger's new terms.
        self._wf_spawned = 0
        self._wf_retired = 0
        #: roots that already recorded their one drop.
        self._wf_failed: set = set()
        self._wf_started = 0
        self._wf_completed = 0
        self._wf_violations = 0
        self._wf_dropped = 0
        self._wf_latencies: List[float] = []
        self._stage_latencies: Dict[str, List[float]] = {
            name: [] for name in (workflow.stage_names() if workflow else ())
        }
        #: per-edge / per-stage flow counters for check_workflow_tick.
        self._edge_forwards: Counter = Counter()
        self._stage_injected: Counter = Counter()
        self._join_fired: Counter = Counter()
        self._join_purged: Counter = Counter()
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: cached ``tracer.enabled``: guards per-request hook calls so a
        #: disabled tracer costs one attribute read, not a no-op call.
        self._trace: bool = self.tracer.enabled
        if self.tracer.enabled:
            attach_tracer(platform, self.tracer)
        self.timeline = timeline
        self.invariants = resolve_checker(invariants)
        #: server_id -> non-default GPU generation; empty on the
        #: homogeneous baseline fleet, keeping the default execution
        #: path (argument lists, cache keys) bit-identical.
        cluster = getattr(platform, "cluster", None)
        self._gpu_profiles = profile_map(cluster) if cluster is not None else {}
        self._rng = np.random.default_rng(seed)
        self.loop = EventLoop()
        self.metrics = MetricsCollector(
            metrics_mode=metrics_mode, warmup_s=warmup_s
        )
        self.arrival_mode = arrival_mode
        self.arrival_window_s = arrival_window_s
        #: windowed mode: per-function independent arrival streams and
        #: the start of the next window still to be sampled.
        self._arrival_rngs: Dict[str, np.random.Generator] = {}
        self._window_start = 0.0
        self._ingress_spikes: List[object] = []
        #: requests currently inside an executing batch; the audit
        #: layer's request-conservation ledger needs the exact count.
        self._executing = 0
        # -- fault injection and resilience ----------------------------
        self.faults = FaultPlan.coerce(faults)
        if resilience is True:
            resilience = ResiliencePolicy()
        elif resilience is False:
            resilience = None
        self.resilience: Optional[ResiliencePolicy] = resilience
        #: dedicated jitter stream: retries must not perturb the main
        #: arrival/routing/execution stream.
        self._retry_rng = (
            np.random.default_rng(resilience.seed)
            if resilience is not None
            else None
        )
        self._shed = resilience is not None and resilience.shed_enabled
        #: requests waiting out a retry backoff (conservation ledger).
        self._retry_pending = 0
        self._retries = 0
        self._retry_completions = 0
        self._redispatched = 0
        #: instance_id -> executing batch, kept only on chaos runs so
        #: crashes can recover stranded requests at fault time.
        self._track_inflight = (
            self.faults is not None or self.resilience is not None
        )
        self._inflight: Dict[int, _BatchInFlight] = {}
        self._fault_counts: Counter = Counter()
        #: per-function open outage start / closed outage durations,
        #: feeding the MTTR metric (outage = instance loss until the
        #: next completed batch of that function).
        self._outage_start: Dict[str, float] = {}
        self._outage_durations: Dict[str, List[float]] = {}
        self._straggler_windows: List[ColdStartStraggler] = []
        self._stretched: set = set()
        # Protocol knobs read once: the platform declares them
        # (ServingPlatform), so the runtime never type-sniffs.
        self._ingress_delay_s = platform.ingress_delay_s
        self._waiting_batches = platform.waiting_batches
        self._pending: Dict[str, Deque[Request]] = {
            name: deque() for name in self._managed
        }
        self._arrivals_since_tick: Dict[str, int] = {
            name: 0 for name in self._managed
        }
        self._rate_estimate: Dict[str, float] = {
            name: 0.0 for name in self._managed
        }
        self._wake_scheduled: Dict[int, float] = {}
        self._horizon = max(trace.duration_s for trace in workload.values())
        self.loop.on(EventKind.ARRIVAL, self._on_arrival)
        self.loop.on(EventKind.ARRIVAL_REFILL, self._on_arrival_refill)
        self.loop.on(EventKind.BATCH_TIMEOUT, self._on_wake)
        self.loop.on(EventKind.BATCH_COMPLETE, self._on_batch_complete)
        self.loop.on(EventKind.CONTROL_TICK, self._on_control_tick)
        self.loop.on(EventKind.FAULT, self._on_fault)
        self.loop.on(EventKind.RETRY, self._on_retry)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _schedule_arrivals(self) -> None:
        # OTP designs route requests through an external buffer layer
        # before they reach the platform; the request's user-visible
        # arrival predates its dispatch by that ingress delay.
        self._ingress_spikes = (
            self.faults.ingress_spikes() if self.faults is not None else []
        )
        if self.arrival_mode == "windowed":
            # Per-function streams derived from the main stream in
            # sorted-name order: deterministic for a given seed, and
            # the heap only ever holds one window of arrivals.
            names = sorted(self.workload)
            seeds = self._rng.integers(0, 2**63 - 1, size=len(names))
            self._arrival_rngs = {
                name: np.random.default_rng(int(seed))
                for name, seed in zip(names, seeds)
            }
            self._window_start = 0.0
            self.loop.schedule(0.0, EventKind.ARRIVAL_REFILL)
            return
        for name, trace in self.workload.items():
            times = sample_arrivals(trace, self._rng)
            self._schedule_arrival_times(name, times)

    def _arrival_slo(self, name: str) -> float:
        if self._successors:
            return self.end_to_end_slo_s
        return self.platform.function(name).slo_s

    def _schedule_arrival_times(self, name: str, times: np.ndarray) -> None:
        """Turn sampled arrival instants into heap events."""
        delay = self._ingress_delay_s
        spikes = self._ingress_spikes
        slo = self._arrival_slo(name)
        for t in times:
            request = Request(function=name, arrival=float(t), slo_s=slo)
            extra = 0.0
            if spikes:
                for spike in spikes:
                    if spike.covers(float(t)):
                        extra += spike.extra_delay_s
            self.loop.schedule(
                float(t) + delay + extra, EventKind.ARRIVAL, request
            )

    def _on_arrival_refill(self, event: Event) -> None:
        """Sample one window of arrivals and book the next refill."""
        start = self._window_start
        end = min(start + self.arrival_window_s, self._horizon)
        for name in sorted(self.workload):
            times = sample_arrivals_window(
                self.workload[name], self._arrival_rngs[name], start, end
            )
            self._schedule_arrival_times(name, times)
        self._window_start = end
        if end < self._horizon:
            self.loop.schedule(end, EventKind.ARRIVAL_REFILL)

    # ------------------------------------------------------------------
    # arrival path
    # ------------------------------------------------------------------
    def _on_arrival(self, event: Event) -> None:
        request: Request = event.payload
        self.metrics.record_arrival(self.loop.now)
        if self._trace:
            self.tracer.request_arrived(
                request.request_id, request.function, self.loop.now
            )
        self._arrivals_since_tick[request.function] += 1
        self.platform.record_invocation(request.function, self.loop.now)
        if self._wf_tracking and request.arrival >= self.warmup_s:
            self._wf_started += 1
        if self._shed and self.platform.should_shed(
            request.function, self.loop.now, len(self._pending[request.function])
        ):
            self._drop(request, DROP_SHED)
            return
        self._dispatch(request)

    def _drop(self, request: Request, reason: str) -> None:
        if self._wf_tracking:
            root = request.root
            if root in self._wf_failed:
                # A sibling token of this root already recorded the
                # workflow's one drop; absorb this copy silently so the
                # conservation ledger counts each root at most once.
                self._wf_retired += 1
                return
            self._wf_failed.add(root)
            self._purge_barriers(root)
            if request.origin >= self.warmup_s:
                self._wf_dropped += 1
        # Workflow drops are attributed to their origin cohort (as
        # completions are): a root admitted during warmup whose token
        # dies seconds later must not count against the kept window,
        # or completed+dropped could exceed arrived in the report.
        drop_time = request.origin if self._wf_tracking else self.loop.now
        self.metrics.record_drop(drop_time, reason)
        if self._trace:
            self.tracer.request_dropped(
                request.request_id, request.function, self.loop.now, reason
            )

    def _dispatch(self, request: Request) -> None:
        if self.resilience is not None and self.resilience.expired(
            self.loop.now, request.origin, request.slo_s
        ):
            self._drop(request, DROP_DEADLINE)
            return
        instance = self.platform.route(request.function, self.loop.now)
        if instance is None:
            pending = self._pending[request.function]
            if len(pending) >= self.pending_cap:
                self._drop(request, DROP_NO_CAPACITY)
                return
            pending.append(request)
            if self._trace:
                self.tracer.request_parked(
                    request.request_id, request.function, self.loop.now
                )
            return
        self._enqueue(instance, request)

    def _enqueue(self, instance: Instance, request: Request) -> None:
        now = self.loop.now
        ready = now >= instance.ready_at
        queue = instance.queue
        batch = instance.config.batch
        if ready:
            # Fig. 6(a): while the instance executes, only a bounded
            # number of waiting batches may accumulate (the assembling
            # batch plus one full pending batch by default); overflow
            # requests are dropped.
            if instance.busy and len(queue) >= batch * self._waiting_batches:
                self._drop(request, DROP_QUEUE_FULL)
                return
        else:
            if len(queue) >= batch * self.cold_queue_batches:
                # Same overflow rule, but classify hopeless waits: when
                # the pending cold start alone already blows the SLO the
                # drop was inevitable regardless of queue depth.
                reason = (
                    DROP_SLO_UNREACHABLE
                    if instance.ready_at - request.origin > request.slo_s
                    else DROP_QUEUE_FULL
                )
                self._drop(request, reason)
                return
        queue.enqueue(request, now)
        if self._trace:
            self.tracer.request_enqueued(
                request.request_id,
                request.function,
                instance.instance_id,
                now,
                not ready,
            )
        self._maybe_start(instance)

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def _maybe_start(self, instance: Instance) -> None:
        if instance.busy or instance.queue.is_empty:
            return
        now = self.loop.now
        if now < instance.ready_at:
            self._schedule_wake(instance, instance.ready_at)
            return
        if instance.queue.should_flush(now):
            self._start_batch(instance)
        else:
            deadline = instance.queue.deadline()
            if deadline is not None:
                self._schedule_wake(instance, deadline)

    def _schedule_wake(self, instance: Instance, time: float) -> None:
        already = self._wake_scheduled.get(instance.instance_id)
        if already is not None and abs(already - time) < 1e-9:
            return
        self._wake_scheduled[instance.instance_id] = time
        self.loop.schedule(time, EventKind.BATCH_TIMEOUT, instance)

    def _on_wake(self, event: Event) -> None:
        instance: Instance = event.payload
        self._wake_scheduled.pop(instance.instance_id, None)
        self._maybe_start(instance)

    def _start_batch(self, instance: Instance) -> None:
        now = self.loop.now
        requests = instance.queue.drain(now)
        self._executing += len(requests)
        instance.busy = True
        instance.idle_since = None
        model = instance.function.model
        gpu_profile = None
        if self._gpu_profiles and instance.placement is not None:
            gpu_profile = self._gpu_profiles.get(instance.placement.server_id)
        if gpu_profile is None:
            # Homogeneous path: call exactly as before so duck-typed
            # executors without the kwarg keep working.
            exec_s = self.executor.execution_time(
                model,
                len(requests),
                instance.config.cpu,
                instance.config.gpu,
                rng=self._rng,
            )
        else:
            exec_s = self.executor.execution_time(
                model,
                len(requests),
                instance.config.cpu,
                instance.config.gpu,
                rng=self._rng,
                gpu_profile=gpu_profile,
            )
        batch_id = 0
        if self.tracer.enabled:
            config = instance.config
            batch_id = self.tracer.batch_started(
                instance.instance_id,
                instance.function.name,
                [r.request_id for r in requests],
                now,
                exec_s,
                (config.batch, config.cpu, config.gpu),
            )
        batch = _BatchInFlight(
            instance=instance, requests=requests, start=now, exec_s=exec_s,
            batch_id=batch_id,
        )
        if self._track_inflight:
            self._inflight[instance.instance_id] = batch
        self.loop.schedule(now + exec_s, EventKind.BATCH_COMPLETE, batch)

    def _on_batch_complete(self, event: Event) -> None:
        batch: _BatchInFlight = event.payload
        if batch.lost:
            # The batch died with its server and its requests were
            # already retried/dropped at crash time.
            return
        instance = batch.instance
        now = self.loop.now
        if self._track_inflight:
            self._inflight.pop(instance.instance_id, None)
        self._executing -= len(batch.requests)
        config = instance.config
        if (
            instance.state == InstanceState.TERMINATED
            and instance.placement is None
        ):
            # The server died mid-execution: the in-flight batch is lost.
            for request in batch.requests:
                self._drop(request, DROP_SERVER_FAILURE)
            instance.busy = False
            return
        for request in batch.requests:
            successors = self._successors.get(request.function)
            if successors:
                self._complete_stage(request, successors, now)
                continue
            if self._wf_tracking and request.function in self._stage_latencies:
                # Sink stage: judge the per-workflow deadline here.
                if request.root in self._wf_failed:
                    self._wf_retired += 1
                    continue
                if request.origin >= self.warmup_s:
                    self._stage_latencies[request.function].append(
                        now - request.arrival
                    )
                    latency = now - request.origin
                    self._wf_latencies.append(latency)
                    self._wf_completed += 1
                    if latency > self.end_to_end_slo_s:
                        self._wf_violations += 1
                if self._trace:
                    self.tracer.workflow_completed(
                        request.root,
                        self.workflow.name,
                        request.origin,
                        now,
                        self.end_to_end_slo_s,
                    )
            if request.attempt:
                self._retry_completions += 1
            total_wait = batch.start - request.arrival
            cold_wait = min(
                max(0.0, instance.ready_at - request.arrival), total_wait
            )
            self.metrics.record_completion(
                RequestRecord(
                    function=request.function,
                    arrival=request.origin,
                    completion=now,
                    cold_wait_s=cold_wait,
                    queue_wait_s=max(0.0, total_wait - cold_wait),
                    exec_s=batch.exec_s,
                    batch_size=len(batch.requests),
                    config=(config.batch, config.cpu, config.gpu),
                    slo_s=request.slo_s,
                )
            )
            if self.tracer.enabled:
                self.tracer.request_completed(
                    request.request_id,
                    request.function,
                    instance.instance_id,
                    batch.batch_id,
                    request.origin,
                    now,
                    cold_wait,
                    max(0.0, now - request.origin - cold_wait - batch.exec_s),
                    batch.exec_s,
                    len(batch.requests),
                    (config.batch, config.cpu, config.gpu),
                    request.slo_s,
                )
        if self._outage_start:
            # First completed batch of the function after an instance
            # loss closes the outage (the MTTR sample).
            started = self._outage_start.pop(instance.function.name, None)
            if started is not None:
                self._outage_durations.setdefault(
                    instance.function.name, []
                ).append(now - started)
        instance.busy = False
        if instance.queue.is_empty:
            instance.idle_since = now
        self._maybe_start(instance)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _crash_server(self, server_id: int) -> None:
        """Kill one machine through the platform's failure hook."""
        handler = getattr(self.platform, "on_server_failure", None)
        if handler is None:
            raise RuntimeError(
                f"{type(self.platform).__name__} cannot handle server failures"
            )
        lost = handler(server_id, self.loop.now)
        if self._trace:
            self.tracer.server_failure(self.loop.now, server_id, len(lost))
        self._handle_lost_instances(lost)

    def _handle_lost_instances(self, lost: List[Instance]) -> None:
        """Re-account every request stranded on dead instances.

        Queued (not yet executing) requests survived in the gateway and
        are re-dispatched to the remaining fleet.  Requests inside an
        executing batch died with the machine: under a resilience
        policy they are retried with backoff (or dropped once the
        policy's budget is spent); without one the legacy path lets the
        scheduled BATCH_COMPLETE event drop them, exactly as before the
        resilience layer existed.
        """
        now = self.loop.now
        for instance in lost:
            if self.resilience is not None:
                batch = self._inflight.pop(instance.instance_id, None)
                if batch is not None:
                    batch.lost = True
                    self._executing -= len(batch.requests)
                    instance.busy = False
                    for request in batch.requests:
                        self._retry_or_drop(request, DROP_SERVER_FAILURE)
            if self.faults is not None:
                self._outage_start.setdefault(instance.function.name, now)
            while instance.queue is not None and not instance.queue.is_empty:
                for request in instance.queue.drain(now):
                    self._redispatched += 1
                    self._dispatch(request)

    def _on_fault(self, event: Event) -> None:
        """Execute one materialized fault-plan event."""
        fault = event.payload
        now = self.loop.now
        self._fault_counts[fault.kind] += 1
        if self._trace:
            detail = ", ".join(
                f"{key}={value}"
                for key, value in asdict(fault).items()
                if key not in ("kind", "at_s")
            )
            self.tracer.fault_injected(now, fault.kind, detail)
        if isinstance(fault, ServerCrash):
            self._crash_server(fault.server_id)
        elif isinstance(fault, ServerRecovery):
            cluster = self.platform.cluster
            if not cluster.server(fault.server_id).healthy:
                cluster.recover_server(fault.server_id)
                if self._trace:
                    self.tracer.server_recovery(now, fault.server_id)
        elif isinstance(fault, InstanceKill):
            victim = self.platform.kill_instance(fault.function, now)
            if victim is not None:
                self._handle_lost_instances([victim])
        elif isinstance(fault, ColdStartStraggler):
            self._straggler_windows.append(fault)
            self._apply_stragglers(now)
        elif isinstance(fault, IngressSpike):
            pass  # folded into arrival scheduling, nothing to do live

    def _apply_stragglers(self, now: float) -> None:
        """Stretch pending cold starts covered by a straggler window."""
        self._straggler_windows = [
            w for w in self._straggler_windows
            if now < w.at_s + w.duration_s
        ]
        windows = [w for w in self._straggler_windows if w.at_s <= now]
        if not windows:
            return
        factor = max(w.factor for w in windows)
        for name in self._managed:
            for instance in self.platform.instances(name):
                if (
                    instance.state == InstanceState.COLD_STARTING
                    and instance.ready_at > now
                    and instance.instance_id not in self._stretched
                ):
                    instance.ready_at = (
                        now + (instance.ready_at - now) * factor
                    )
                    self._stretched.add(instance.instance_id)

    # ------------------------------------------------------------------
    # retries
    # ------------------------------------------------------------------
    def _retry_or_drop(self, request: Request, reason: str) -> None:
        """Schedule a backed-off retry, or drop when the budget is out."""
        policy = self.resilience
        now = self.loop.now
        attempt = request.attempt + 1
        if attempt > policy.max_retries:
            self._drop(request, reason)
            return
        delay = policy.backoff_s(attempt, float(self._retry_rng.random()))
        if now + delay > policy.deadline_s(request.origin, request.slo_s):
            self._drop(request, DROP_DEADLINE)
            return
        request.attempt = attempt
        self._retry_pending += 1
        self._retries += 1
        if self._trace:
            self.tracer.request_retry(
                request.request_id, request.function, now, attempt, delay
            )
        self.loop.schedule(now + delay, EventKind.RETRY, request)

    def _on_retry(self, event: Event) -> None:
        request: Request = event.payload
        self._retry_pending -= 1
        # The retry re-enters the current stage: its batch deadline
        # restarts here while the origin keeps driving the SLO/deadline.
        if request.origin_arrival is None:
            request.origin_arrival = request.arrival
        request.arrival = self.loop.now
        self._dispatch(request)

    def _forward(self, request: Request, next_stage: str, root_id: int) -> None:
        """Hand a completed stage's request to the next stage."""
        now = self.loop.now
        follow_on = Request(
            function=next_stage,
            arrival=now,
            slo_s=request.slo_s,
            origin_arrival=request.origin,
            root_id=root_id,
        )
        self._stage_injected[next_stage] += 1
        if self._trace:
            self.tracer.workflow_stage(
                root_id, follow_on.request_id, next_stage, now
            )
        self._arrivals_since_tick[next_stage] += 1
        self.platform.record_invocation(next_stage, now)
        self._dispatch(follow_on)

    # ------------------------------------------------------------------
    # workflow forwarding: fan-out, join barriers, failure absorption
    # ------------------------------------------------------------------
    def _complete_stage(
        self, request: Request, successors: tuple, now: float
    ) -> None:
        """Route one completed stage token along its outgoing edges.

        The token fans out to every downstream stage, waits at fan-in
        join barriers until all sibling copies arrive, and is silently
        absorbed when its root already failed.
        """
        root = request.root
        stage = request.function
        if request.origin >= self.warmup_s:
            self._stage_latencies[stage].append(now - request.arrival)
        if root in self._wf_failed:
            self._wf_retired += 1
            return
        if len(successors) > 1:
            self._wf_spawned += len(successors) - 1
        for index, nxt in enumerate(successors):
            if root in self._wf_failed:
                # A sibling token died inside this very fan-out (its
                # edge's dispatch dropped synchronously): the remaining
                # edges' tokens are retired unminted, or a later join
                # barrier would wait forever for a failed root.
                self._wf_retired += len(successors) - index
                break
            self._edge_forwards[(stage, nxt)] += 1
            if self._fan_in[nxt] > 1:
                self._join_token(request, nxt, root, now)
            else:
                self._forward(request, nxt, root)

    def _join_token(
        self, request: Request, stage: str, root: int, now: float
    ) -> None:
        """Park a token at ``stage``'s join barrier; fire when full."""
        key = (stage, root)
        waiters = self._join_barriers.setdefault(key, [])
        waiters.append(request)
        if len(waiters) < self._fan_in[stage]:
            return
        del self._join_barriers[key]
        self._join_fired[stage] += 1
        self._wf_retired += len(waiters) - 1
        merged = Request(
            function=stage,
            arrival=now,
            slo_s=request.slo_s,
            origin_arrival=waiters[0].origin,
            root_id=root,
        )
        self._stage_injected[stage] += 1
        if self._trace:
            self.tracer.workflow_stage(
                root, merged.request_id, stage, now
            )
        self._arrivals_since_tick[stage] += 1
        self.platform.record_invocation(stage, now)
        self._dispatch(merged)

    def _purge_barriers(self, root: int) -> None:
        """Retire every token of a failed root waiting at a barrier."""
        if not self._join_barriers:
            return
        stale = [key for key in self._join_barriers if key[1] == root]
        for key in stale:
            waiters = self._join_barriers.pop(key)
            self._join_purged[key[0]] += len(waiters)
            self._wf_retired += len(waiters)

    def _joining(self) -> int:
        """Tokens currently waiting at join barriers (ledger term)."""
        return sum(len(w) for w in self._join_barriers.values())

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def _estimate_rate(self, name: str) -> float:
        if self.rate_mode == "oracle" and name in self.workload:
            return self.workload[name].rps_at(self.loop.now)
        if self.rate_mode == "oracle" and name not in self.workload:
            # Downstream stages have no trace to read.  Their true
            # arrival rate is the upstream completion throughput on
            # their inbound edges (fan-out already multiplies the
            # forwarded count), so report the raw forwarded rate for
            # the tick instead of EWMA-smoothing from a cold start --
            # the oracle promises no estimation lag for entry stages,
            # and interior stages deserve the same fidelity.
            measured = (
                self._arrivals_since_tick[name] / self.control_interval_s
            )
            self._arrivals_since_tick[name] = 0
            self._rate_estimate[name] = measured
            return measured
        measured = self._arrivals_since_tick[name] / self.control_interval_s
        self._arrivals_since_tick[name] = 0
        estimate = (
            self.ewma * measured + (1.0 - self.ewma) * self._rate_estimate[name]
        )
        self._rate_estimate[name] = estimate
        return estimate

    def _on_control_tick(self, event: Event) -> None:
        now = self.loop.now
        if self._trace:
            self.tracer.control_tick(now, len(self._managed))
        for name in self._managed:
            rate = self._estimate_rate(name)
            action = self.platform.control(name, rate, now)
            overhead = getattr(action, "scheduling_overhead_s", 0.0)
            if overhead:
                self.metrics.record_scheduling_overhead(overhead)
            self._drain_pending(name)
            if self.timeline is not None:
                self._sample_timeline(name, rate, action, now)
        if self._straggler_windows:
            # Cold starts launched by this control step inside an active
            # straggler window are stretched too.
            self._apply_stragglers(now)
        self._sample_usage(now)
        self._record_scaling_state(now)
        if self.invariants.enabled:
            self.invariants.check_tick(self, now)
        next_tick = now + self.control_interval_s
        if next_tick <= self._horizon:
            self.loop.schedule(next_tick, EventKind.CONTROL_TICK)

    def _drain_pending(self, name: str) -> None:
        pending = self._pending[name]
        policy = self.resilience
        while pending:
            if policy is not None and policy.expired(
                self.loop.now, pending[0].origin, pending[0].slo_s
            ):
                self._drop(pending.popleft(), DROP_DEADLINE)
                continue
            instance = self.platform.route(name, self.loop.now)
            if instance is None:
                return
            self._enqueue(instance, pending.popleft())

    def _sample_timeline(
        self, name: str, rate: float, action: object, now: float
    ) -> None:
        """One timeline row for one function at one control tick."""
        instances = self.platform.instances(name)
        live = sum(1 for inst in instances if now >= inst.ready_at)
        launching = len(instances) - live
        queue_depth = sum(
            len(inst.queue) for inst in instances if inst.queue is not None
        )
        oracle = (
            self.workload[name].rps_at(now) if name in self.workload else ""
        )
        warm_pool = getattr(
            getattr(self.platform, "autoscaler", None), "warm_pool", None
        )
        self.timeline.sample(
            t=now,
            function=name,
            rate_estimate=rate,
            oracle_rps=oracle,
            pending=len(self._pending[name]),
            queue_depth=queue_depth,
            live_instances=live,
            launching_instances=launching,
            warm_pool=len(warm_pool(name)) if warm_pool is not None else "",
            weighted_usage=self.platform.cluster.weighted_used(),
            dispatch_case=getattr(
                getattr(action, "plan", None), "case", ""
            ),
        )

    def _sample_usage(self, now: float) -> None:
        cluster = self.platform.cluster
        used = cluster.total_used
        self.metrics.record_usage(
            now,
            weighted=cluster.weighted_used(),
            cpu=used.cpu,
            gpu=used.gpu,
            fragment_ratio=cluster.fragment_ratio(),
        )

    def _scaling_stats(self):
        """The platform's cumulative scaling counters, wherever kept.

        INFless keeps them on its autoscaler; the uniform baselines
        keep them on the platform itself.
        """
        autoscaler_stats = getattr(
            getattr(self.platform, "autoscaler", None), "stats", None
        )
        if autoscaler_stats is not None:
            return autoscaler_stats
        return getattr(self.platform, "stats", None)

    def _record_scaling_state(self, now: float) -> None:
        stats = self._scaling_stats()
        if stats is not None:
            self.metrics.record_scaling_state(
                now,
                cold_starts=stats.cold_starts,
                launches=stats.launches,
                warm_reuses=stats.warm_reuses,
            )

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Replay the full workload and return the aggregated report."""
        self._schedule_arrivals()
        if self.faults is not None:
            num_servers = len(self.platform.cluster.servers)
            for fault in self.faults.materialize(self._horizon, num_servers):
                self.loop.schedule(fault.at_s, EventKind.FAULT, fault)
        self.loop.schedule(0.0, EventKind.CONTROL_TICK)
        self.loop.run()
        self._sample_usage(self.loop.now)
        if self.invariants.enabled:
            self.invariants.check_final(self, self.loop.now)
        stats = self._scaling_stats()
        report = self.metrics.finalize(
            duration_s=self._horizon,
            warmup_s=self.warmup_s,
            cold_starts=getattr(stats, "cold_starts", 0),
            launches=getattr(stats, "launches", 0),
            warm_reuses=getattr(stats, "warm_reuses", 0),
            reserved_idle_resource_s=getattr(
                stats, "reserved_idle_resource_s", 0.0
            ),
        )
        if self.faults is not None or self.resilience is not None:
            report.resilience = self._resilience_summary(report)
        if self._wf_tracking:
            report.workflows = self._workflow_summary()
        if self.invariants.enabled:
            self.invariants.check_report(self, report)
            report.invariant_violations = [
                v.to_dict() for v in self.invariants.violations
            ]
        return report

    def _workflow_summary(self) -> Dict[str, object]:
        """The workflow metrics block attached to the report.

        Goodput counts workflows that completed at the sink within the
        end-to-end budget, over the post-warmup window; the per-stage
        decomposition shows where the pipeline's latency lives; the
        co-placement stats come from the scheduler's hint when one is
        attached.
        """
        workflow = self.workflow
        elapsed = max(self._horizon - self.warmup_s, 1e-9)
        goodput = max(self._wf_completed - self._wf_violations, 0) / elapsed
        latencies = (
            np.asarray(self._wf_latencies) if self._wf_latencies else None
        )
        per_stage: Dict[str, object] = {}
        for name in workflow.stage_names():
            values = self._stage_latencies.get(name) or ()
            if values:
                arr = np.asarray(values)
                per_stage[name] = {
                    "count": len(values),
                    "mean_s": float(arr.mean()),
                    "p50_s": float(np.percentile(arr, 50)),
                    "p99_s": float(np.percentile(arr, 99)),
                }
            else:
                per_stage[name] = {
                    "count": 0, "mean_s": None, "p50_s": None, "p99_s": None,
                }
        hint = getattr(
            getattr(self.platform, "scheduler", None), "coplacement", None
        )
        return {
            "workflow": workflow.name,
            "end_to_end_slo_s": self.end_to_end_slo_s,
            "started": self._wf_started,
            "completed": self._wf_completed,
            "violations": self._wf_violations,
            "failed": self._wf_dropped,
            "goodput_rps": goodput,
            "latency_mean_s": (
                float(latencies.mean()) if latencies is not None else None
            ),
            "latency_p50_s": (
                float(np.percentile(latencies, 50))
                if latencies is not None else None
            ),
            "latency_p99_s": (
                float(np.percentile(latencies, 99))
                if latencies is not None else None
            ),
            "per_stage": per_stage,
            "coplacement": hint.stats() if hint is not None else None,
        }

    def _resilience_summary(self, report: SimulationReport) -> Dict[str, object]:
        """The chaos-run metrics block attached to the report."""
        now = self.loop.now
        durations = {
            name: list(values)
            for name, values in self._outage_durations.items()
        }
        # An outage still open at the end of the run never recovered;
        # count the full remaining window so MTTR cannot hide it.
        for name, started in self._outage_start.items():
            durations.setdefault(name, []).append(now - started)
        mttr = {
            name: float(np.mean(values))
            for name, values in sorted(durations.items())
            if values
        }
        return {
            "availability": report.availability,
            "faults_injected": int(sum(self._fault_counts.values())),
            "fault_counts": dict(self._fault_counts),
            "retries": self._retries,
            "retry_completions": self._retry_completions,
            "redispatched": self._redispatched,
            "mttr_s": mttr,
            "policy": (
                None if self.resilience is None else asdict(self.resilience)
            ),
        }
