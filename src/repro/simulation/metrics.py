"""Metrics collection and the simulation report.

Captures per-request latency decompositions (``l = t_cold + t_batch +
t_exec``), batch/configuration usage, resource-time integrals and
cold-start counters -- everything sections 5.2 and 5.3 report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simulation.sketches import DEFAULT_SUBBUCKETS, QuantileSketch
from repro.specs import check_choice

#: how the collector keeps latency statistics: ``"exact"`` stores every
#: request record (full-fidelity percentiles, O(N) memory); ``"sketch"``
#: streams them through a mergeable quantile sketch (O(1) memory at any
#: request count, percentiles within the sketch's error bound).
METRICS_MODES = ("exact", "sketch")


@dataclass
class RequestRecord:
    """One completed request's timeline."""

    function: str
    arrival: float
    completion: float
    cold_wait_s: float
    queue_wait_s: float
    exec_s: float
    batch_size: int
    config: Tuple[int, int, int]  # (b, c, g)
    slo_s: float

    @property
    def latency_s(self) -> float:
        return self.completion - self.arrival

    @property
    def violated_slo(self) -> bool:
        return self.latency_s > self.slo_s + 1e-9


@dataclass
class LLMRequestRecord(RequestRecord):
    """One completed autoregressive request's timeline.

    Extends the single-shot record with token counts and the per-token
    latency metrics LLM serving is judged on: TTFT (time to first
    token) and TPOT (mean time per output token after the first).  SLO
    attainment is per-token -- ``slo_s`` is the TTFT SLO and
    ``tpot_slo_s`` bounds the decode rate -- so goodput counts
    completions whose whole token stream met its deadlines, not
    whose end-to-end latency beat an (irrelevant) single-shot bound.
    """

    prompt_tokens: int = 0
    output_tokens: int = 0
    ttft_s: float = 0.0
    tpot_s: float = 0.0
    tpot_slo_s: float = float("inf")
    preemptions: int = 0
    restarts: int = 0

    @property
    def violated_slo(self) -> bool:  # type: ignore[override]
        return (
            self.ttft_s > self.slo_s + 1e-9
            or self.tpot_s > self.tpot_slo_s + 1e-9
        )


@dataclass
class SimulationReport:
    """Aggregated outcome of one serving simulation."""

    duration_s: float
    arrived: int
    completed: int
    dropped: int
    slo_violations: int
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    mean_cold_wait_s: float
    mean_queue_wait_s: float
    mean_exec_s: float
    #: requests served per batchsize (Fig. 13a/b).
    batch_histogram: Dict[int, int]
    #: requests served per (b, c, g) configuration (Fig. 13c).
    config_histogram: Dict[Tuple[int, int, int], int]
    #: integral of weighted (beta*cpu + gpu) resources over time.
    resource_time_weighted: float
    mean_weighted_usage: float
    peak_weighted_usage: float
    mean_fragment_ratio: float
    cold_starts: int
    launches: int
    warm_reuses: int
    #: per-function violation rates.
    per_function_violation: Dict[str, float]
    #: completed requests / weighted resource-seconds (Fig. 12 metric).
    normalized_throughput: float
    achieved_rps: float
    scheduling_overhead_s: float
    reserved_idle_resource_s: float
    #: CPU/GPU core-seconds for the Table 4 cost model.
    cpu_core_seconds: float
    gpu_seconds: float
    #: drop reason -> count (queue_full / no_capacity / slo_unreachable
    #: / server_failure); sums to ``dropped``.
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    #: invariant-audit findings folded in under collect mode (empty
    #: when strict checking is on -- violations raise instead).
    invariant_violations: List[Dict[str, object]] = field(default_factory=list)
    #: resilience/chaos summary (availability, retries, re-dispatches,
    #: per-function MTTR); None on zero-fault runs so the report stays
    #: bit-identical to pre-faults goldens.
    resilience: Optional[Dict[str, object]] = None
    #: autoregressive-serving summary (TTFT/TPOT percentiles, token
    #: counts, preemption/swap tallies, KV-cache peaks); None on
    #: single-shot runs so those reports stay bit-identical to the
    #: pre-LLM goldens.
    llm: Optional[Dict[str, object]] = None
    #: DAG-workflow summary (workflow goodput, end-to-end percentiles,
    #: per-stage latency decomposition, co-placement hit rate); None on
    #: non-workflow runs so those reports stay bit-identical to the
    #: pre-workflow goldens.
    workflows: Optional[Dict[str, object]] = None
    #: how latency statistics were collected; "exact" reports serialise
    #: without this field so pre-sketch goldens stay bit-identical.
    metrics_mode: str = "exact"
    #: serialized latency :class:`QuantileSketch` on sketch-mode runs
    #: (mergeable across shards); None in exact mode.
    latency_sketch: Optional[Dict[str, object]] = None

    @property
    def violation_rate(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.slo_violations / self.completed

    @property
    def drop_rate(self) -> float:
        if self.arrived == 0:
            return 0.0
        return self.dropped / self.arrived

    @property
    def goodput_rps(self) -> float:
        """SLO-compliant completions per second."""
        if self.duration_s <= 0:
            return 0.0
        return (self.completed - self.slo_violations) / self.duration_s

    @property
    def availability(self) -> float:
        """Fraction of arrived requests that completed (1.0 when idle)."""
        if self.arrived == 0:
            return 1.0
        return self.completed / self.arrived

    def to_dict(self) -> Dict:
        """A JSON-serialisable view (tuple keys stringified)."""
        from dataclasses import asdict

        payload = asdict(self)
        payload["config_histogram"] = {
            f"b{b}c{c}g{g}": count
            for (b, c, g), count in self.config_histogram.items()
        }
        payload["batch_histogram"] = {
            str(batch): count for batch, count in self.batch_histogram.items()
        }
        payload["violation_rate"] = self.violation_rate
        payload["drop_rate"] = self.drop_rate
        payload["goodput_rps"] = self.goodput_rps
        # Zero-fault runs must serialise exactly as they did before the
        # resilience layer existed (bit-identical golden reports), and
        # single-shot runs exactly as before the LLM subsystem.
        if self.resilience is None:
            payload.pop("resilience", None)
        if self.llm is None:
            payload.pop("llm", None)
        if self.workflows is None:
            payload.pop("workflows", None)
        if self.metrics_mode == "exact":
            payload.pop("metrics_mode", None)
        if self.latency_sketch is None:
            payload.pop("latency_sketch", None)
        return payload


class MetricsCollector:
    """Accumulates simulation observations.

    Args:
        metrics_mode: ``"exact"`` (default) keeps every request record
            and usage sample -- the full-fidelity path all goldens pin.
            ``"sketch"`` streams everything: latencies feed a mergeable
            :class:`QuantileSketch`, usage feeds running sample-and-hold
            integrators, and per-request memory is O(1).
        warmup_s: sketch mode must filter the warmup transient at
            record time (there are no stored samples to re-filter at
            finalize), so the boundary is fixed up front; it must match
            the ``warmup_s`` later passed to :meth:`finalize`.
        sketch_subbuckets: latency-sketch resolution (sketch mode).
    """

    def __init__(
        self,
        metrics_mode: str = "exact",
        warmup_s: float = 0.0,
        sketch_subbuckets: int = DEFAULT_SUBBUCKETS,
    ) -> None:
        check_choice("metrics_mode", metrics_mode, METRICS_MODES)
        self.metrics_mode = metrics_mode
        self._warmup_s = float(warmup_s)
        self.records: List[RequestRecord] = []
        self._arrival_times: List[float] = []
        self._drops: List[Tuple[float, str]] = []  # (time, reason)
        self.scheduling_overhead_s = 0.0
        self._usage_samples: List[Tuple[float, float]] = []  # (time, weighted)
        self._cpu_samples: List[Tuple[float, float]] = []
        self._gpu_samples: List[Tuple[float, float]] = []
        self._fragment_samples: List[Tuple[float, float]] = []  # (time, ratio)
        #: cumulative (time, cold_starts, launches, warm_reuses)
        #: snapshots; lets finalize subtract the warmup baseline.  One
        #: entry per control tick in both modes (O(duration), not O(N)).
        self._scaling_samples: List[Tuple[float, int, int, int]] = []
        # -- streaming state (sketch mode) ------------------------------
        self._arrived_all = 0
        self._arrived_kept = 0
        self._dropped_all = 0
        self._drop_reasons_all: Counter = Counter()
        self._drop_reasons_kept: Counter = Counter()
        self._completed_all = 0
        self._latency_total_all = 0.0
        self._kept_completed = 0
        self._kept_violations = 0
        self._latency_sketch = QuantileSketch(sketch_subbuckets)
        self._latency_sum = 0.0
        self._cold_sum = 0.0
        self._queue_sum = 0.0
        self._exec_sum = 0.0
        self._batch_hist: Counter = Counter()
        self._config_hist: Counter = Counter()
        self._per_fn_tallies: Dict[str, List[int]] = {}
        self._prev_usage: Optional[Tuple[float, float, float, float]] = None
        self._usage_integral = 0.0
        self._cpu_integral = 0.0
        self._gpu_integral = 0.0
        self._usage_kept_sum = 0.0
        self._usage_kept_count = 0
        self._usage_peak = 0.0
        self._fragment_sum = 0.0
        self._fragment_count = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_arrival(self, now: float = 0.0) -> None:
        if self.metrics_mode == "sketch":
            self._arrived_all += 1
            if now >= self._warmup_s:
                self._arrived_kept += 1
            return
        self._arrival_times.append(now)

    def record_drop(self, now: float = 0.0, reason: str = "unspecified") -> None:
        if self.metrics_mode == "sketch":
            self._dropped_all += 1
            self._drop_reasons_all[reason] += 1
            if now >= self._warmup_s:
                self._drop_reasons_kept[reason] += 1
            return
        self._drops.append((now, reason))

    @property
    def arrived(self) -> int:
        """All arrivals, warmup included (the conservation ledger)."""
        if self.metrics_mode == "sketch":
            return self._arrived_all
        return len(self._arrival_times)

    @property
    def dropped(self) -> int:
        if self.metrics_mode == "sketch":
            return self._dropped_all
        return len(self._drops)

    @property
    def completed_count(self) -> int:
        """All completions, warmup included (the conservation ledger).

        Mode-agnostic: invariant checks must use this, not
        ``len(records)`` -- sketch mode keeps no record list.
        """
        if self.metrics_mode == "sketch":
            return self._completed_all
        return len(self.records)

    @property
    def latency_total_s(self) -> float:
        """Sum of end-to-end latencies over all completions."""
        if self.metrics_mode == "sketch":
            return self._latency_total_all
        return sum(r.latency_s for r in self.records)

    @property
    def drop_reasons(self) -> Dict[str, int]:
        if self.metrics_mode == "sketch":
            return dict(self._drop_reasons_all)
        return dict(Counter(reason for _t, reason in self._drops))

    def record_completion(self, record: RequestRecord) -> None:
        if self.metrics_mode == "sketch":
            latency = record.latency_s
            self._completed_all += 1
            self._latency_total_all += latency
            if record.arrival < self._warmup_s:
                return
            violated = record.violated_slo
            self._kept_completed += 1
            self._kept_violations += int(violated)
            self._latency_sketch.add(latency)
            self._latency_sum += latency
            self._cold_sum += record.cold_wait_s
            self._queue_sum += record.queue_wait_s
            self._exec_sum += record.exec_s
            self._batch_hist[record.batch_size] += 1
            self._config_hist[record.config] += 1
            tally = self._per_fn_tallies.setdefault(record.function, [0, 0])
            tally[0] += 1
            tally[1] += int(violated)
            return
        self.records.append(record)

    def record_usage(
        self,
        now: float,
        weighted: float,
        cpu: float,
        gpu: float,
        fragment_ratio: float,
    ) -> None:
        if self.metrics_mode == "sketch":
            prev = self._prev_usage
            if prev is not None:
                t0, w0, c0, g0 = prev
                # Sample-and-hold segment, clipped to the warmup
                # boundary: a segment spanning it keeps its pre-warmup
                # level from warmup_s onward.
                start = t0 if t0 >= self._warmup_s else self._warmup_s
                if now > start:
                    dt = now - start
                    self._usage_integral += w0 * dt
                    self._cpu_integral += c0 * dt
                    self._gpu_integral += g0 * dt
            self._prev_usage = (now, weighted, cpu, gpu)
            if now >= self._warmup_s:
                self._usage_kept_sum += weighted
                self._usage_kept_count += 1
                if weighted > self._usage_peak:
                    self._usage_peak = weighted
                self._fragment_sum += fragment_ratio
                self._fragment_count += 1
            return
        self._usage_samples.append((now, weighted))
        self._cpu_samples.append((now, cpu))
        self._gpu_samples.append((now, gpu))
        self._fragment_samples.append((now, fragment_ratio))

    def record_scaling_state(
        self,
        now: float,
        cold_starts: int,
        launches: int,
        warm_reuses: int,
    ) -> None:
        """Snapshot the platform's *cumulative* scaling counters."""
        self._scaling_samples.append((now, cold_starts, launches, warm_reuses))

    def record_scheduling_overhead(self, seconds: float) -> None:
        self.scheduling_overhead_s += seconds

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    @staticmethod
    def _integrate(samples: List[Tuple[float, float]]) -> float:
        if len(samples) < 2:
            return 0.0
        times = np.array([s[0] for s in samples])
        values = np.array([s[1] for s in samples])
        # Piecewise-constant (sample-and-hold) integral: usage stays at
        # the sampled level until the next control tick.
        return float(np.sum(values[:-1] * np.diff(times)))

    @staticmethod
    def _carry_warmup_boundary(
        samples: List[Tuple[float, float]], warmup_s: float
    ) -> List[Tuple[float, float]]:
        """Integration samples from ``warmup_s`` on, boundary carried.

        Sample-and-hold means the level last sampled *before* the
        warmup boundary still holds until the first sample after it;
        dropping that segment (the pre-fix behaviour) undercounts every
        integral whenever ``warmup_s > 0``.  The carried sample is
        clamped to ``warmup_s`` so only the post-warmup part of the
        spanning segment is counted.
        """
        kept = [s for s in samples if s[0] >= warmup_s]
        if warmup_s <= 0:
            return kept
        carry: Optional[Tuple[float, float]] = None
        for sample in samples:
            if sample[0] >= warmup_s:
                break
            carry = sample
        if carry is not None and (not kept or kept[0][0] > warmup_s):
            kept.insert(0, (warmup_s, carry[1]))
        return kept

    def usage_timeline(self) -> List[Tuple[float, float]]:
        """(time, weighted usage) samples for provisioning plots.

        Sketch mode keeps no sample history; the timeline is empty.
        """
        return list(self._usage_samples)

    def finalize(
        self,
        duration_s: float,
        cold_starts: int = 0,
        launches: int = 0,
        warm_reuses: int = 0,
        reserved_idle_resource_s: float = 0.0,
        warmup_s: float = 0.0,
    ) -> SimulationReport:
        """Aggregate into a report.

        Args:
            duration_s: workload horizon (seconds).
            warmup_s: requests arriving before this time are excluded
                from the statistics (discards the initial cold-start
                transient present in every freshly started platform).
        """
        if self.metrics_mode == "sketch":
            return self._finalize_sketch(
                duration_s=duration_s,
                cold_starts=cold_starts,
                launches=launches,
                warm_reuses=warm_reuses,
                reserved_idle_resource_s=reserved_idle_resource_s,
                warmup_s=warmup_s,
            )
        records = [r for r in self.records if r.arrival >= warmup_s]
        arrived = sum(1 for t in self._arrival_times if t >= warmup_s)
        kept_drops = [(t, reason) for t, reason in self._drops if t >= warmup_s]
        dropped = len(kept_drops)
        drop_reasons = Counter(reason for _t, reason in kept_drops)
        usage_samples = [s for s in self._usage_samples if s[0] >= warmup_s]
        # Integrals see the boundary-spanning segment too; the mean and
        # peak stay strictly post-warmup (they describe levels, not
        # time-weighted area).
        usage_integration = self._carry_warmup_boundary(
            self._usage_samples, warmup_s
        )
        cpu_integration = self._carry_warmup_boundary(
            self._cpu_samples, warmup_s
        )
        gpu_integration = self._carry_warmup_boundary(
            self._gpu_samples, warmup_s
        )
        fragment_values = [
            v for t, v in self._fragment_samples if t >= warmup_s
        ]
        cold_starts, launches, warm_reuses = self._warmup_scaling_baseline(
            warmup_s, cold_starts, launches, warm_reuses
        )
        duration_s = max(1e-9, duration_s - warmup_s)
        latencies = np.array([r.latency_s for r in records])
        completed = len(records)
        violations = sum(1 for r in records if r.violated_slo)
        batch_hist = Counter(r.batch_size for r in records)
        config_hist = Counter(r.config for r in records)
        # One pass over the records; the old per-function rescan was
        # O(functions * records).
        per_fn_tallies: Dict[str, List[int]] = {}
        for record in records:
            tally = per_fn_tallies.setdefault(record.function, [0, 0])
            tally[0] += 1
            tally[1] += int(record.violated_slo)
        per_fn = {
            fn: violated / count
            for fn, (count, violated) in per_fn_tallies.items()
        }
        resource_time = self._integrate(usage_integration)
        weighted_values = [v for _t, v in usage_samples]
        mean_usage = float(np.mean(weighted_values)) if weighted_values else 0.0
        peak_usage = float(np.max(weighted_values)) if weighted_values else 0.0
        normalized = completed / resource_time if resource_time > 0 else 0.0
        return SimulationReport(
            duration_s=duration_s,
            arrived=arrived,
            completed=completed,
            dropped=dropped,
            slo_violations=violations,
            latency_mean_s=float(latencies.mean()) if completed else 0.0,
            latency_p50_s=float(np.percentile(latencies, 50)) if completed else 0.0,
            latency_p95_s=float(np.percentile(latencies, 95)) if completed else 0.0,
            latency_p99_s=float(np.percentile(latencies, 99)) if completed else 0.0,
            mean_cold_wait_s=(
                float(np.mean([r.cold_wait_s for r in records]))
                if completed else 0.0
            ),
            mean_queue_wait_s=(
                float(np.mean([r.queue_wait_s for r in records]))
                if completed else 0.0
            ),
            mean_exec_s=(
                float(np.mean([r.exec_s for r in records]))
                if completed else 0.0
            ),
            batch_histogram=dict(batch_hist),
            config_histogram=dict(config_hist),
            resource_time_weighted=resource_time,
            mean_weighted_usage=mean_usage,
            peak_weighted_usage=peak_usage,
            mean_fragment_ratio=(
                float(np.mean(fragment_values)) if fragment_values else 0.0
            ),
            cold_starts=cold_starts,
            launches=launches,
            warm_reuses=warm_reuses,
            per_function_violation=per_fn,
            normalized_throughput=normalized,
            achieved_rps=completed / duration_s if duration_s > 0 else 0.0,
            scheduling_overhead_s=self.scheduling_overhead_s,
            reserved_idle_resource_s=reserved_idle_resource_s,
            cpu_core_seconds=self._integrate(cpu_integration),
            gpu_seconds=self._integrate(gpu_integration) / 100.0,
            drop_reasons=dict(drop_reasons),
        )

    def _warmup_scaling_baseline(
        self,
        warmup_s: float,
        cold_starts: int,
        launches: int,
        warm_reuses: int,
    ) -> Tuple[int, int, int]:
        """Subtract the warmup portion of the cumulative scaling counters.

        The counters only move at control ticks, when snapshots are
        taken, so the last pre-warmup snapshot is exactly the warmup
        activity.  Without snapshots the totals pass through unchanged.
        """
        if warmup_s > 0 and self._scaling_samples:
            baseline = (0, 0, 0)
            for t, cold, launch, reuse in self._scaling_samples:
                if t >= warmup_s:
                    break
                baseline = (cold, launch, reuse)
            cold_starts = max(0, cold_starts - baseline[0])
            launches = max(0, launches - baseline[1])
            warm_reuses = max(0, warm_reuses - baseline[2])
        return cold_starts, launches, warm_reuses

    def _finalize_sketch(
        self,
        duration_s: float,
        cold_starts: int,
        launches: int,
        warm_reuses: int,
        reserved_idle_resource_s: float,
        warmup_s: float,
    ) -> SimulationReport:
        """Aggregate the streaming state into a sketch-mode report."""
        if abs(warmup_s - self._warmup_s) > 1e-12:
            raise ValueError(
                f"sketch-mode collector was built with warmup_s="
                f"{self._warmup_s} but finalize got {warmup_s};"
                " streaming statistics were already filtered at the"
                " construction-time boundary"
            )
        cold_starts, launches, warm_reuses = self._warmup_scaling_baseline(
            warmup_s, cold_starts, launches, warm_reuses
        )
        duration_s = max(1e-9, duration_s - warmup_s)
        completed = self._kept_completed
        sketch = self._latency_sketch
        resource_time = self._usage_integral
        normalized = completed / resource_time if resource_time > 0 else 0.0
        per_fn = {
            fn: violated / count
            for fn, (count, violated) in self._per_fn_tallies.items()
        }
        return SimulationReport(
            duration_s=duration_s,
            arrived=self._arrived_kept,
            completed=completed,
            dropped=sum(self._drop_reasons_kept.values()),
            slo_violations=self._kept_violations,
            latency_mean_s=(
                self._latency_sum / completed if completed else 0.0
            ),
            latency_p50_s=sketch.quantile(50.0),
            latency_p95_s=sketch.quantile(95.0),
            latency_p99_s=sketch.quantile(99.0),
            mean_cold_wait_s=self._cold_sum / completed if completed else 0.0,
            mean_queue_wait_s=(
                self._queue_sum / completed if completed else 0.0
            ),
            mean_exec_s=self._exec_sum / completed if completed else 0.0,
            batch_histogram=dict(self._batch_hist),
            config_histogram=dict(self._config_hist),
            resource_time_weighted=resource_time,
            mean_weighted_usage=(
                self._usage_kept_sum / self._usage_kept_count
                if self._usage_kept_count
                else 0.0
            ),
            peak_weighted_usage=self._usage_peak,
            mean_fragment_ratio=(
                self._fragment_sum / self._fragment_count
                if self._fragment_count
                else 0.0
            ),
            cold_starts=cold_starts,
            launches=launches,
            warm_reuses=warm_reuses,
            per_function_violation=per_fn,
            normalized_throughput=normalized,
            achieved_rps=completed / duration_s if duration_s > 0 else 0.0,
            scheduling_overhead_s=self.scheduling_overhead_s,
            reserved_idle_resource_s=reserved_idle_resource_s,
            cpu_core_seconds=self._cpu_integral,
            gpu_seconds=self._gpu_integral / 100.0,
            drop_reasons=dict(self._drop_reasons_kept),
            metrics_mode="sketch",
            latency_sketch=sketch.to_dict(),
        )
