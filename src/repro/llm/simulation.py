"""The token-boundary discrete-event runtime for LLM serving.

Mirrors :class:`~repro.simulation.runtime.ServingSimulation`'s shape
(same workload/tracer/invariants/faults surface, same report type) but
advances per *iteration* instead of per batch: each busy worker has
exactly one ``DECODE_STEP`` event in flight -- the completion of its
current prefill or decode iteration -- and the next iteration is
planned the moment the previous one finishes.  Per-request output
lengths are sampled up front, in arrival order, from the same seeded
stream as the arrival times, so a run is a pure function of
``(workload, platform options, seed)``.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.faults import (
    FaultPlan,
    InstanceKill,
    ServerCrash,
    ServerRecovery,
)
from repro.invariants import InvariantChecker, resolve_checker
from repro.llm.engine import ContinuousBatchingLLM, LLMWorker, StepPlan
from repro.llm.sequence import Sequence, SequenceState
from repro.simulation.engine import EventLoop
from repro.simulation.events import Event, EventKind
from repro.simulation.metrics import (
    LLMRequestRecord,
    MetricsCollector,
    SimulationReport,
)
from repro.telemetry import (
    DROP_SERVER_FAILURE,
    NULL_TRACER,
    TimelineRecorder,
    Tracer,
)
from repro.workloads.arrivals import sample_arrivals
from repro.workloads.trace import Trace

#: fault kinds the token-boundary runtime knows how to apply.
_SUPPORTED_FAULTS = (ServerCrash, ServerRecovery, InstanceKill)


class LLMSimulation:
    """Replays traces against an autoregressive platform.

    Args:
        platform: a ``workload_class == "autoregressive"`` platform
            (:class:`~repro.llm.engine.ContinuousBatchingLLM` or a
            subclass).
        workload: function name -> arrival-rate trace.
        control_interval_s: control-loop tick period (replica healing,
            usage sampling, invariant audits).
        warmup_s: requests arriving earlier are excluded from stats.
        tracer: telemetry hooks (LLM steps, first tokens, preemptions
            and swap-ins land next to the standard request lifecycle).
        timeline: optional per-tick recorder, same file format as the
            single-shot runtime's.
        invariants: audit layer mode or a pre-built checker; the LLM
            audit adds the KV-token ledger to the standard
            conservation checks.
        faults: optional chaos plan; only server crash/recovery and
            instance kills are meaningful at token granularity --
            other kinds raise rather than silently no-op.
        seed: drives arrival times and per-request token lengths.
    """

    def __init__(
        self,
        platform: ContinuousBatchingLLM,
        workload: Dict[str, Trace],
        control_interval_s: float = 1.0,
        warmup_s: float = 0.0,
        tracer: Optional[Tracer] = None,
        timeline: Optional[TimelineRecorder] = None,
        invariants: Union[None, str, InvariantChecker] = None,
        faults: Union[None, FaultPlan, Dict[str, object], str] = None,
        resilience: Union[None, bool, object] = None,
        seed: int = 42,
    ) -> None:
        if getattr(platform, "workload_class", None) != "autoregressive":
            raise TypeError(
                f"{type(platform).__name__} is not an autoregressive"
                " platform; use ServingSimulation for single-shot serving"
            )
        if resilience not in (None, False):
            from repro.api.capabilities import check_supported

            check_supported("des", ("autoregressive",), ("resilience",))
        self.platform = platform
        self.workload = dict(workload)
        self.control_interval_s = control_interval_s
        self.warmup_s = warmup_s
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        if self._trace:
            platform.tracer = self.tracer
        self.timeline = timeline
        self.invariants = resolve_checker(invariants)
        self.faults = FaultPlan.coerce(faults)
        self._rng = np.random.default_rng(seed)
        self.loop = EventLoop()
        self.metrics = MetricsCollector()
        self._request_ids = itertools.count()
        self._llm_records: List[LLMRequestRecord] = []
        #: worker_id -> the plan its in-flight DECODE_STEP will finish;
        #: faults mark these lost so stale events become no-ops.
        self._inflight: Dict[int, StepPlan] = {}
        self._arrivals_since_tick: Dict[str, int] = {
            name: 0 for name in workload
        }
        self._horizon = max(trace.duration_s for trace in workload.values())
        self.loop.on(EventKind.ARRIVAL, self._on_arrival)
        self.loop.on(EventKind.DECODE_STEP, self._on_step)
        self.loop.on(EventKind.CONTROL_TICK, self._on_control_tick)
        self.loop.on(EventKind.FAULT, self._on_fault)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _schedule_arrivals(self) -> None:
        for name, trace in self.workload.items():
            function = self.platform.function(name)
            spec = function.model
            times = sample_arrivals(trace, self._rng)
            # Token lengths draw from the same stream, in arrival
            # order, immediately after the times: the full request
            # stream is one deterministic read of the seeded rng.
            for t in times:
                seq = Sequence(
                    request_id=next(self._request_ids),
                    function=name,
                    arrival=float(t),
                    slo_ttft_s=function.slo_s,
                    tpot_slo_s=self.platform.tpot_slo_s,
                    prompt_tokens=spec.sample_prompt_tokens(self._rng),
                    output_tokens=spec.sample_output_tokens(self._rng),
                )
                self.loop.schedule(float(t), EventKind.ARRIVAL, seq)

    # ------------------------------------------------------------------
    # arrival path
    # ------------------------------------------------------------------
    def _on_arrival(self, event: Event) -> None:
        seq: Sequence = event.payload
        now = self.loop.now
        self.metrics.record_arrival(now)
        if self._trace:
            self.tracer.request_arrived(seq.request_id, seq.function, now)
        self._arrivals_since_tick[seq.function] += 1
        self.platform.record_invocation(seq.function, now)
        self._admit(seq)

    def _admit(self, seq: Sequence) -> None:
        worker, reason = self.platform.admit(seq, self.loop.now)
        if reason is not None:
            seq.state = SequenceState.DROPPED
            self._drop(seq, reason)
            return
        self._kick(worker)

    def _drop(self, seq: Sequence, reason: str) -> None:
        self.metrics.record_drop(self.loop.now, reason)
        if self._trace:
            self.tracer.request_dropped(
                seq.request_id, seq.function, self.loop.now, reason
            )

    # ------------------------------------------------------------------
    # iteration lifecycle
    # ------------------------------------------------------------------
    def _kick(self, worker: LLMWorker) -> None:
        """Plan the worker's next iteration unless one is in flight."""
        if worker.busy:
            return
        plan = self.platform.begin_step(worker, self.loop.now)
        if plan is None:
            return
        self._inflight[worker.worker_id] = plan
        self.loop.schedule(
            self.loop.now + plan.duration_s,
            EventKind.DECODE_STEP,
            (worker, plan),
        )

    def _on_step(self, event: Event) -> None:
        worker, plan = event.payload
        if plan.lost:
            return  # the worker died with the iteration in flight
        now = self.loop.now
        self._inflight.pop(worker.worker_id, None)
        for seq in self.platform.finish_step(worker, plan, now):
            self._complete(seq, worker, now)
        self._kick(worker)

    def _complete(
        self, seq: Sequence, worker: LLMWorker, now: float
    ) -> None:
        ttft = seq.first_token_ts - seq.arrival
        tpot = (
            (now - seq.first_token_ts) / (seq.output_tokens - 1)
            if seq.output_tokens > 1
            else 0.0
        )
        queue_wait = max(0.0, seq.prefill_start - seq.arrival)
        record = LLMRequestRecord(
            function=seq.function,
            arrival=seq.arrival,
            completion=now,
            cold_wait_s=0.0,
            queue_wait_s=queue_wait,
            exec_s=now - seq.arrival - queue_wait,
            batch_size=1,
            config=worker.config,
            slo_s=seq.slo_ttft_s,
            prompt_tokens=seq.prompt_tokens,
            output_tokens=seq.output_tokens,
            ttft_s=ttft,
            tpot_s=tpot,
            tpot_slo_s=seq.tpot_slo_s,
            preemptions=seq.preemptions,
            restarts=seq.restarts,
        )
        self.metrics.record_completion(record)
        self._llm_records.append(record)
        if self._trace:
            self.tracer.request_completed(
                seq.request_id,
                seq.function,
                worker.worker_id,
                0,
                seq.arrival,
                now,
                0.0,
                queue_wait,
                record.exec_s,
                1,
                worker.config,
                seq.slo_ttft_s,
            )

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def _on_control_tick(self, event: Event) -> None:
        now = self.loop.now
        if self._trace:
            self.tracer.control_tick(now, len(self.workload))
        for name in self.workload:
            arrivals = self._arrivals_since_tick[name]
            self._arrivals_since_tick[name] = 0
            rate = arrivals / self.control_interval_s
            self.platform.control(name, rate, now)
            if self.timeline is not None:
                self._sample_timeline(name, rate, now)
        # Healing may have added workers; put them to work.
        for worker in self.platform.workers:
            if not worker.busy and worker.has_work:
                self._kick(worker)
        self._sample_usage(now)
        if self.invariants.enabled:
            self.invariants.check_llm_tick(self, now)
        next_tick = now + self.control_interval_s
        if next_tick <= self._horizon:
            self.loop.schedule(next_tick, EventKind.CONTROL_TICK)

    def _sample_timeline(self, name: str, rate: float, now: float) -> None:
        workers = self.platform.instances(name)
        self.timeline.sample(
            t=now,
            function=name,
            rate_estimate=rate,
            oracle_rps=self.workload[name].rps_at(now),
            pending=sum(len(w.waiting) for w in workers),
            queue_depth=sum(len(w.running) + len(w.swapped) for w in workers),
            live_instances=len(workers),
            launching_instances=0,
            warm_pool="",
            weighted_usage=self.platform.cluster.weighted_used(),
            dispatch_case="",
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

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _on_fault(self, event: Event) -> None:
        fault = event.payload
        now = self.loop.now
        if self._trace:
            self.tracer.fault_injected(now, fault.kind, "")
        if isinstance(fault, ServerCrash):
            self._crash_server(fault.server_id)
        elif isinstance(fault, ServerRecovery):
            cluster = self.platform.cluster
            if not cluster.server(fault.server_id).healthy:
                cluster.recover_server(fault.server_id)
                if self._trace:
                    self.tracer.server_recovery(now, fault.server_id)
        elif isinstance(fault, InstanceKill):
            result = self.platform.kill_instance(fault.function, now)
            if result is not None:
                worker, stranded, requeue = result
                self._handle_lost(
                    [worker], stranded, requeue
                )

    def _crash_server(self, server_id: int) -> None:
        now = self.loop.now
        self.platform.cluster.fail_server(server_id)
        lost, stranded, requeue = self.platform.fail_server(server_id)
        if self._trace:
            self.tracer.server_failure(now, server_id, len(lost))
        self._handle_lost(lost, stranded, requeue)

    def _handle_lost(
        self,
        workers: List[LLMWorker],
        stranded: List[Sequence],
        requeue: List[Sequence],
    ) -> None:
        """Re-account sequences that lost their machine.

        Running/swapped sequences lose generated tokens with the KV
        cache and are dropped; queued ones survived in the gateway and
        re-enter admission on the remaining fleet.
        """
        for worker in workers:
            plan = self._inflight.pop(worker.worker_id, None)
            if plan is not None:
                plan.lost = True
        for seq in stranded:
            seq.state = SequenceState.DROPPED
            self._drop(seq, DROP_SERVER_FAILURE)
        for seq in requeue:
            seq.state = SequenceState.WAITING
            self._admit(seq)

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Replay the full workload and return the aggregated report."""
        self._schedule_arrivals()
        if self.faults is not None:
            num_servers = len(self.platform.cluster.servers)
            for fault in self.faults.materialize(self._horizon, num_servers):
                if not isinstance(fault, _SUPPORTED_FAULTS):
                    raise ValueError(
                        f"fault kind {fault.kind!r} is not supported at"
                        " token granularity (use server_crash,"
                        " server_recovery or instance_kill)"
                    )
                self.loop.schedule(fault.at_s, EventKind.FAULT, fault)
        self.loop.schedule(0.0, EventKind.CONTROL_TICK)
        self.loop.run()
        self._sample_usage(self.loop.now)
        if self.invariants.enabled:
            self.invariants.check_llm_final(self, self.loop.now)
        report = self.metrics.finalize(
            duration_s=self._horizon,
            warmup_s=self.warmup_s,
            launches=self.platform.launches,
        )
        report.llm = self._llm_summary()
        if self.invariants.enabled:
            self.invariants.check_report(self, report)
            report.invariant_violations = [
                v.to_dict() for v in self.invariants.violations
            ]
        return report

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _llm_summary(self) -> Dict[str, object]:
        """The ``llm`` report block: per-token latency + engine tallies."""
        records = [
            r for r in self._llm_records if r.arrival >= self.warmup_s
        ]
        counters = self.platform.llm_counters()
        ttfts = np.array([r.ttft_s for r in records])
        tpots = np.array([r.tpot_s for r in records])
        n = len(records)

        def pct(values: np.ndarray, q: float) -> float:
            """Percentile ``q`` of ``values``, 0.0 on an empty run."""
            return float(np.percentile(values, q)) if n else 0.0

        ttft_ok = sum(
            1 for r in records if r.ttft_s <= r.slo_s + 1e-9
        )
        tpot_ok = sum(
            1 for r in records if r.tpot_s <= r.tpot_slo_s + 1e-9
        )
        good_tokens = sum(
            r.output_tokens for r in records if not r.violated_slo
        )
        steps = counters["prefill_steps"] + counters["decode_steps"]
        duration = max(1e-9, self._horizon - self.warmup_s)
        return {
            "requests": n,
            "ttft_mean_s": float(ttfts.mean()) if n else 0.0,
            "ttft_p50_s": pct(ttfts, 50),
            "ttft_p95_s": pct(ttfts, 95),
            "ttft_p99_s": pct(ttfts, 99),
            "tpot_mean_s": float(tpots.mean()) if n else 0.0,
            "tpot_p50_s": pct(tpots, 50),
            "tpot_p95_s": pct(tpots, 95),
            "tpot_p99_s": pct(tpots, 99),
            "ttft_attainment": ttft_ok / n if n else 1.0,
            "tpot_attainment": tpot_ok / n if n else 1.0,
            "token_goodput_tps": good_tokens / duration,
            "tokens_generated": counters["tokens_generated"],
            "prompt_tokens_prefilled": counters["prompt_tokens_prefilled"],
            "prefill_steps": counters["prefill_steps"],
            "decode_steps": counters["decode_steps"],
            "mean_batch_tokens": (
                counters["batch_token_sum"] / steps if steps else 0.0
            ),
            "preemptions": {
                "swap": counters["swap_outs"],
                "sacrifice": counters["sacrifices"],
            },
            "swap_ins": counters["swap_ins"],
            "kv_peak_tokens": counters["kv_peak_tokens"],
            "kv_capacity_tokens": counters["kv_capacity_tokens"],
            "workers": counters["workers"],
            "scheduling": self.platform.scheduling,
            "admission": self.platform.admission,
            "preemption": self.platform.preemption,
            "victims": self.platform.victims,
            "tpot_slo_s": self.platform.tpot_slo_s,
        }

    # ------------------------------------------------------------------
    # audit-layer views (read by repro.invariants)
    # ------------------------------------------------------------------
    def sequences_in_system(self) -> Tuple[int, int, int]:
        """(waiting, running, swapped) across all live workers."""
        waiting = sum(len(w.waiting) for w in self.platform.workers)
        running = sum(len(w.running) for w in self.platform.workers)
        swapped = sum(len(w.swapped) for w in self.platform.workers)
        return waiting, running, swapped
