"""Continuous-batching LLM workers and their scheduling policies.

The engine realizes iteration-level scheduling: a worker advances one
*iteration* (prefill of newly admitted prompts, or one decode token
for every running sequence) at a time, and sequences join or leave the
running batch only at these token boundaries.  Admission, KV-cache
accounting and preemption all happen when an iteration is planned:

* **admission** -- ``"slo"`` sheds arrivals whose estimated TTFT
  already exceeds the function's SLO (INFless-style SLO-aware
  admission); ``"fcfs"`` queues everything up to ``max_queue``.
* **scheduling** -- ``"continuous"`` lets prompts prefill as soon as
  KV memory allows; ``"static"`` is the gang-batch adaptation used as
  the comparison point (a batch is formed only when the previous one
  fully drains).
* **preemption** -- when a decode iteration needs more KV tokens than
  the device has free, victims are evicted LIFO (latest admitted
  first): ``"swap"`` parks the cache in host memory and later swaps
  it back at PCIe cost, ``"sacrifice"`` discards it and restarts the
  request from prefill.  Victim selection is ``"conservative"``
  (evict the minimum, admit only worst-case-feasible sequences) or
  ``"aggressive"`` (admit eagerly, evict with headroom).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.cluster.server import AllocationError, GpuDevice
from repro.core.function import FunctionSpec
from repro.models.llm import LLMSpec
from repro.llm.sequence import Sequence, SequenceState
from repro.specs import check_choice
from repro.telemetry import spans as ev
from repro.telemetry.tracer import NULL_TRACER

ADMISSION_POLICIES = ("slo", "fcfs")
SCHEDULING_MODES = ("continuous", "static")
PREEMPTION_MODES = ev.PREEMPT_MODES  # ("swap", "sacrifice")
VICTIM_POLICIES = ("conservative", "aggressive")

#: host memory the worker process itself occupies beyond the staged
#: model copy.
WORKER_OVERHEAD_MB = 1024

#: effective host<->device copy bandwidth for KV swaps (PCIe 3.0 x16
#: with transfer overheads).
SWAP_MBPS = 12_000.0


class StepPlan:
    """One planned iteration: what runs, for how long."""

    __slots__ = ("kind", "seqs", "batch_tokens", "duration_s", "lost")

    def __init__(
        self,
        kind: str,
        seqs: Tuple[Sequence, ...],
        batch_tokens: int,
        duration_s: float,
    ) -> None:
        self.kind = kind  # "prefill" | "decode"
        self.seqs = seqs
        self.batch_tokens = batch_tokens
        self.duration_s = duration_s
        #: set when the serving machine died with the step in flight.
        self.lost = False


class LLMWorker:
    """One model replica bound to a GPU, with its KV-token ledger."""

    __slots__ = (
        "worker_id",
        "function",
        "spec",
        "placement",
        "server_id",
        "device",
        "config",
        "waiting",
        "running",
        "swapped",
        "busy",
        "busy_until",
        "kv_capacity_tokens",
        "kv_resident_tokens",
        "kv_acquired_total",
        "kv_released_total",
        "kv_peak_tokens",
        "prefill_steps",
        "decode_steps",
        "batch_token_sum",
        "tokens_generated",
        "prompt_tokens_prefilled",
        "swap_outs",
        "swap_ins",
        "sacrifices",
        "_admit_counter",
    )

    def __init__(
        self,
        worker_id: int,
        function: FunctionSpec,
        placement,
        device: GpuDevice,
        config: Tuple[int, int, int],
        kv_capacity_tokens: int,
    ) -> None:
        self.worker_id = worker_id
        self.function = function
        self.spec: LLMSpec = function.model
        self.placement = placement
        self.server_id = placement.server_id
        self.device = device
        self.config = config
        self.waiting: Deque[Sequence] = deque()
        self.running: List[Sequence] = []
        self.swapped: List[Sequence] = []
        self.busy = False
        self.busy_until = 0.0
        self.kv_capacity_tokens = kv_capacity_tokens
        self.kv_resident_tokens = 0
        self.kv_acquired_total = 0
        self.kv_released_total = 0
        self.kv_peak_tokens = 0
        self.prefill_steps = 0
        self.decode_steps = 0
        self.batch_token_sum = 0
        self.tokens_generated = 0
        self.prompt_tokens_prefilled = 0
        self.swap_outs = 0
        self.swap_ins = 0
        self.sacrifices = 0
        self._admit_counter = 0

    # ------------------------------------------------------------------
    # KV-token ledger (mirrored on the GPU device in MB)
    # ------------------------------------------------------------------
    @property
    def kv_free_tokens(self) -> int:
        """KV tokens still allocatable (own budget vs device memory)."""
        own = self.kv_capacity_tokens - self.kv_resident_tokens
        shared = self.spec.kv_capacity_tokens(self.device.memory_free_mb)
        return min(own, shared)

    def kv_acquire(self, tokens: int) -> None:
        """Reserve KV cache for ``tokens``, mirrored on the device."""
        self.device.kv_acquire(tokens, self.spec.kv_mb_per_token)
        self.kv_resident_tokens += tokens
        self.kv_acquired_total += tokens
        if self.kv_resident_tokens > self.kv_peak_tokens:
            self.kv_peak_tokens = self.kv_resident_tokens

    def kv_release(self, tokens: int) -> None:
        """Return KV cache; raises when releasing more than resident."""
        if tokens > self.kv_resident_tokens:
            raise AllocationError(
                f"worker {self.worker_id}: releasing {tokens} KV tokens,"
                f" only {self.kv_resident_tokens} resident"
            )
        self.device.kv_release(tokens, self.spec.kv_mb_per_token)
        self.kv_resident_tokens -= tokens
        self.kv_released_total += tokens

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Sequences on this worker in any state (routing metric)."""
        return len(self.waiting) + len(self.running) + len(self.swapped)

    @property
    def has_work(self) -> bool:
        """True while any sequence still needs decode iterations."""
        return bool(self.waiting or self.running or self.swapped)

    def next_admit_seq(self) -> int:
        """Monotonic admission ticket (FCFS tie-break for scheduling)."""
        self._admit_counter += 1
        return self._admit_counter

    def sequences(self) -> List[Sequence]:
        """Every sequence the worker currently owns, any state."""
        return list(self.running) + list(self.swapped) + list(self.waiting)


class ContinuousBatchingLLM:
    """Iteration-level LLM serving against the ServingPlatform protocol.

    Follows the normalized registry constructor shape
    ``(cluster, predictor, *, name, seed, ...)``; the predictor is
    accepted for uniformity but unused (iteration costs come from the
    :class:`~repro.models.llm.LLMSpec` shapes directly).
    """

    #: marks the platform as autoregressive so the Experiment facade
    #: builds an LLMSimulation instead of the single-shot runtime.
    workload_class = "autoregressive"
    ingress_delay_s = 0.0
    waiting_batches = 2
    invariant_slo_check = "none"

    def __init__(
        self,
        cluster: Cluster,
        predictor=None,
        *,
        name: str = "llm",
        seed: int = 0,
        replicas: int = 1,
        worker_cpu: int = 2,
        gpu_percent: int = 100,
        tpot_slo_s: float = 0.05,
        scheduling: str = "continuous",
        admission: str = "slo",
        preemption: str = "swap",
        victims: str = "conservative",
        max_queue: int = 512,
        max_kv_tokens: Optional[int] = None,
        swap_mbps: float = SWAP_MBPS,
    ) -> None:
        check_choice("scheduling", scheduling, SCHEDULING_MODES)
        check_choice("admission", admission, ADMISSION_POLICIES)
        check_choice("preemption", preemption, PREEMPTION_MODES)
        check_choice("victims", victims, VICTIM_POLICIES)
        self.cluster = cluster
        self.predictor = predictor
        self.name = name
        self.seed = seed
        self.replicas = replicas
        self.worker_cpu = worker_cpu
        self.gpu_percent = gpu_percent
        self.tpot_slo_s = tpot_slo_s
        self.scheduling = scheduling
        self.admission = admission
        self.preemption = preemption
        self.victims = victims
        self.max_queue = max_queue
        self.max_kv_tokens = max_kv_tokens
        self.swap_mbps = swap_mbps
        self.tracer = NULL_TRACER
        self.functions: Dict[str, FunctionSpec] = {}
        self.workers: List[LLMWorker] = []
        self._by_function: Dict[str, List[LLMWorker]] = {}
        self._next_worker_id = 0
        self.launches = 0
        self._invocations: Dict[str, int] = {}
        #: counters of workers retired by faults, folded into summaries.
        self._retired: Dict[str, int] = {
            "prefill_steps": 0, "decode_steps": 0, "batch_token_sum": 0,
            "tokens_generated": 0, "prompt_tokens_prefilled": 0,
            "swap_outs": 0, "swap_ins": 0, "sacrifices": 0,
            "kv_peak_tokens": 0,
        }

    # ------------------------------------------------------------------
    # deployment / placement
    # ------------------------------------------------------------------
    def deploy(self, function: FunctionSpec) -> None:
        """Place ``replicas`` workers for an autoregressive function."""
        if not isinstance(function.model, LLMSpec):
            raise TypeError(
                f"{self.name} serves autoregressive models; "
                f"{function.model.name!r} is a single-shot zoo model"
                " (deploy it on infless/openfaas+/batch instead)"
            )
        if function.name in self.functions:
            raise ValueError(f"function {function.name!r} already deployed")
        self.functions[function.name] = function
        self._by_function[function.name] = []
        self._invocations[function.name] = 0
        placed = 0
        for _replica in range(self.replicas):
            if self._place_worker(function) is None:
                break
            placed += 1
        if placed == 0:
            raise AllocationError(
                f"no server can host a {function.model.name} worker"
                f" ({function.model.weights_mb:.0f} MB weights,"
                f" {self.gpu_percent}% of one GPU)"
            )

    def _place_worker(self, function: FunctionSpec) -> Optional[LLMWorker]:
        spec: LLMSpec = function.model
        request = ResourceVector(
            cpu=self.worker_cpu,
            gpu=self.gpu_percent,
            memory_mb=int(spec.weights_mb) + WORKER_OVERHEAD_MB,
        )
        for server in self.cluster.servers:
            if not server.healthy or not server.can_fit(request):
                continue
            if self._pick_device(server, spec) is None:
                continue
            placement = self.cluster.allocate(server.server_id, request)
            device = server.gpus[placement.gpu_device_id]
            headroom = device.memory_free_mb - spec.weights_mb
            if spec.kv_capacity_tokens(headroom) < spec.max_prompt_tokens:
                # The SM best-fit picked a device whose *memory* is
                # already claimed by a co-resident model; try elsewhere.
                self.cluster.release(placement)
                continue
            device.reserve_weights(spec.weights_mb)
            capacity = spec.kv_capacity_tokens(device.memory_free_mb)
            if self.max_kv_tokens is not None:
                capacity = min(capacity, self.max_kv_tokens)
            worker = LLMWorker(
                worker_id=self._next_worker_id,
                function=function,
                placement=placement,
                device=device,
                config=(1, self.worker_cpu, self.gpu_percent),
                kv_capacity_tokens=capacity,
            )
            self._next_worker_id += 1
            self.workers.append(worker)
            self._by_function[function.name].append(worker)
            self.launches += 1
            return worker
        return None

    def _pick_device(
        self, server, spec: LLMSpec
    ) -> Optional[GpuDevice]:
        """A device with SM share and memory for weights + some KV."""
        for gpu in server.gpus:
            if not gpu.can_fit(self.gpu_percent):
                continue
            headroom = gpu.memory_free_mb - spec.weights_mb
            if spec.kv_capacity_tokens(headroom) >= spec.max_prompt_tokens:
                return gpu
        return None

    # ------------------------------------------------------------------
    # ServingPlatform protocol surface
    # ------------------------------------------------------------------
    def function(self, name: str) -> FunctionSpec:
        """The deployed spec for ``name`` (KeyError when unknown)."""
        return self.functions[name]

    def instances(self, name: str) -> List[LLMWorker]:
        """The live workers currently serving ``name``."""
        return list(self._by_function.get(name, []))

    @property
    def timeout_slack_s(self) -> float:
        """Batch-timeout slack; zero -- admission is per arrival."""
        return 0.0

    def record_invocation(self, name: str, now: float) -> None:
        """Count one arrival against ``name`` (protocol bookkeeping)."""
        self._invocations[name] = self._invocations.get(name, 0) + 1

    def control(self, name: str, rps: float, now: float) -> None:
        """Per-tick control: heal replica deficits after recoveries."""
        function = self.functions.get(name)
        if function is None:
            return
        deficit = self.replicas - len(self._by_function[name])
        for _missing in range(deficit):
            if self._place_worker(function) is None:
                break

    def should_shed(self, *_args, **_kwargs) -> bool:
        """Never shed here; admission control already runs per arrival."""
        return False

    def route(self, function_name: str) -> Optional[LLMWorker]:
        """Least-loaded worker for ``function_name`` (id tie-break)."""
        workers = self._by_function.get(function_name)
        if not workers:
            return None
        return min(workers, key=lambda w: (w.load, w.worker_id))

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(
        self, seq: Sequence, now: float
    ) -> Tuple[Optional[LLMWorker], Optional[str]]:
        """Route one arrival; returns (worker, None) or (None, reason)."""
        workers = self._by_function.get(seq.function)
        if not workers:
            return None, ev.DROP_NO_CAPACITY
        if seq.total_kv_need > max(w.kv_capacity_tokens for w in workers):
            return None, ev.DROP_KV_INFEASIBLE
        worker = min(workers, key=lambda w: (w.load, w.worker_id))
        if len(worker.waiting) >= self.max_queue:
            return None, ev.DROP_QUEUE_FULL
        if self.admission == "slo":
            estimate = self._estimate_ttft_s(worker, seq, now)
            if estimate > seq.slo_ttft_s:
                return None, ev.DROP_SHED
        seq.worker_id = worker.worker_id
        worker.waiting.append(seq)
        return worker, None

    def _estimate_ttft_s(
        self, worker: LLMWorker, seq: Sequence, now: float
    ) -> float:
        spec = worker.spec
        eta = max(0.0, worker.busy_until - now) if worker.busy else 0.0
        if self.scheduling == "static" and worker.running:
            # The gang must fully drain before a new batch forms.
            longest = max(s.remaining_tokens for s in worker.running)
            eta += longest * spec.decode_time_s(len(worker.running))
        tokens_ahead = sum(s.prompt_tokens for s in worker.waiting)
        eta += spec.prefill_time_s(tokens_ahead + seq.prompt_tokens)
        return eta

    # ------------------------------------------------------------------
    # iteration planning (the continuous-batching core)
    # ------------------------------------------------------------------
    def begin_step(
        self, worker: LLMWorker, now: float
    ) -> Optional[StepPlan]:
        """Plan the worker's next iteration, or None when idle.

        Swapped sequences rejoin first, then waiting prompts admit
        into a prefill iteration under the token budget; otherwise the
        running batch decodes one token each, preempting victims when
        the KV cache cannot grow by one token per sequence.
        """
        spec = worker.spec
        swap_cost = self._admit_swapped(worker, now)
        prefill = self._admit_waiting(worker)
        plan: Optional[StepPlan] = None
        if prefill:
            batch_tokens = sum(s.prompt_tokens for s in prefill)
            for seq in prefill:
                seq.prefill_start = now
            worker.prefill_steps += 1
            worker.prompt_tokens_prefilled += batch_tokens
            plan = StepPlan(
                "prefill",
                tuple(prefill),
                batch_tokens,
                spec.prefill_time_s(batch_tokens) + swap_cost,
            )
        elif worker.running:
            swap_cost += self._ensure_kv(worker, len(worker.running), now)
            for seq in worker.running:
                worker.kv_acquire(1)
                seq.kv_tokens += 1
            batch_tokens = len(worker.running)
            worker.decode_steps += 1
            plan = StepPlan(
                "decode",
                tuple(worker.running),
                batch_tokens,
                spec.decode_time_s(batch_tokens) + swap_cost,
            )
        if plan is None:
            return None
        worker.batch_token_sum += plan.batch_tokens
        worker.busy = True
        worker.busy_until = now + plan.duration_s
        if self.tracer.enabled:
            self.tracer.llm_step(
                worker.worker_id, now, plan.kind, plan.batch_tokens,
                len(plan.seqs), plan.duration_s,
            )
        return plan

    def _admit_swapped(self, worker: LLMWorker, now: float) -> float:
        """Swap eligible parked sequences back in; returns copy cost."""
        if not worker.swapped:
            return 0.0
        cost = 0.0
        # FCFS among the swapped by original arrival time.
        for seq in sorted(worker.swapped, key=lambda s: s.arrival):
            resident = seq.prompt_tokens + seq.generated
            if self.victims == "conservative":
                feasible = worker.kv_free_tokens >= seq.total_kv_need
            else:
                feasible = worker.kv_free_tokens >= resident + 1
            if not feasible:
                continue
            worker.swapped.remove(seq)
            worker.kv_acquire(resident)
            seq.kv_tokens = resident
            seq.state = SequenceState.RUNNING
            seq.admitted_seq = worker.next_admit_seq()
            worker.running.append(seq)
            worker.swap_ins += 1
            cost += worker.spec.kv_mb(resident) / self.swap_mbps
            if self.tracer.enabled:
                self.tracer.swap_in(
                    seq.request_id, seq.function, worker.worker_id, now,
                    resident,
                )
        return cost

    def _admit_waiting(self, worker: LLMWorker) -> List[Sequence]:
        """Pop waiting prompts into a prefill batch (token budget B)."""
        if not worker.waiting:
            return []
        if self.scheduling == "static" and (
            worker.running or worker.swapped
        ):
            return []
        spec = worker.spec
        admitted: List[Sequence] = []
        budget = spec.max_batch_tokens
        used = 0
        while worker.waiting:
            seq = worker.waiting[0]
            if admitted and used + seq.prompt_tokens > budget:
                break
            if self.victims == "conservative":
                feasible = worker.kv_free_tokens >= seq.total_kv_need
            else:
                feasible = worker.kv_free_tokens >= seq.prompt_tokens + 1
            if not feasible:
                break  # strict FCFS: later prompts wait behind the head
            worker.waiting.popleft()
            worker.kv_acquire(seq.prompt_tokens)
            seq.kv_tokens = seq.prompt_tokens
            seq.state = SequenceState.RUNNING
            seq.admitted_seq = worker.next_admit_seq()
            worker.running.append(seq)
            admitted.append(seq)
            used += seq.prompt_tokens
        return admitted

    def _ensure_kv(
        self, worker: LLMWorker, tokens_needed: int, now: float
    ) -> float:
        """Make room for the decode iteration's +1 token per sequence.

        Victims leave LIFO (latest admitted first) and the running set
        never shrinks below one sequence; feasibility of that floor is
        guaranteed by the admission-time ``DROP_KV_INFEASIBLE`` guard.
        Returns the swap-out copy cost added to the iteration.
        """
        shortfall = tokens_needed - worker.kv_free_tokens
        if shortfall <= 0:
            return 0.0
        target = shortfall
        if self.victims == "aggressive":
            target += worker.kv_capacity_tokens // 4
        freed = 0
        cost = 0.0
        victims = sorted(
            worker.running, key=lambda s: s.admitted_seq, reverse=True
        )
        for seq in victims:
            if freed >= target or len(worker.running) <= 1:
                break
            freed += seq.kv_tokens
            cost += self._evict(worker, seq, now)
        return cost

    def _evict(
        self, worker: LLMWorker, seq: Sequence, now: float
    ) -> float:
        """Preempt one running sequence; returns the swap-out cost."""
        worker.running.remove(seq)
        released = seq.kv_tokens
        worker.kv_release(released)
        seq.kv_tokens = 0
        seq.preemptions += 1
        cost = 0.0
        if self.preemption == ev.PREEMPT_SWAP:
            seq.state = SequenceState.SWAPPED
            worker.swapped.append(seq)
            worker.swap_outs += 1
            cost = worker.spec.kv_mb(released) / self.swap_mbps
        else:
            seq.state = SequenceState.WAITING
            seq.generated = 0  # restart from prefill
            seq.restarts += 1
            worker.waiting.appendleft(seq)
            worker.sacrifices += 1
        if self.tracer.enabled:
            self.tracer.preemption(
                seq.request_id, seq.function, worker.worker_id, now,
                self.preemption, self.victims, released,
            )
        return cost

    def finish_step(
        self, worker: LLMWorker, plan: StepPlan, now: float
    ) -> List[Sequence]:
        """Materialize the iteration's tokens; returns finished seqs."""
        worker.busy = False
        if plan.lost:
            return []
        completed: List[Sequence] = []
        for seq in plan.seqs:
            if seq.state is not SequenceState.RUNNING:
                continue  # evicted by a fault between plan and finish
            seq.generated += 1
            worker.tokens_generated += 1
            if seq.first_token_ts < 0:
                seq.first_token_ts = now
                if self.tracer.enabled:
                    self.tracer.first_token(
                        seq.request_id, seq.function, worker.worker_id,
                        now, now - seq.arrival,
                    )
            if seq.generated >= seq.output_tokens:
                worker.running.remove(seq)
                worker.kv_release(seq.kv_tokens)
                seq.kv_tokens = 0
                seq.state = SequenceState.DONE
                completed.append(seq)
        return completed

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def on_server_failure(self, server_id: int) -> List[LLMWorker]:
        """Protocol hook: forget workers on a dead machine."""
        lost, _stranded, _requeue = self.fail_server(server_id)
        return lost

    def fail_server(
        self, server_id: int
    ) -> Tuple[List[LLMWorker], List[Sequence], List[Sequence]]:
        """Remove a crashed server's workers.

        Returns ``(lost workers, stranded sequences, requeue
        candidates)``: running/swapped sequences lose their progress
        with the machine, waiting ones can be re-admitted elsewhere.
        """
        lost = [w for w in self.workers if w.server_id == server_id]
        stranded: List[Sequence] = []
        requeue: List[Sequence] = []
        for worker in lost:
            self._retire_worker(worker, release_placement=False)
            for seq in list(worker.running) + list(worker.swapped):
                if seq.kv_tokens:
                    worker.kv_release(seq.kv_tokens)
                    seq.kv_tokens = 0
                stranded.append(seq)
            requeue.extend(worker.waiting)
            worker.running.clear()
            worker.swapped.clear()
            worker.waiting.clear()
        return lost, stranded, requeue

    def kill_instance(
        self, function: str, now: float
    ) -> Optional[Tuple[LLMWorker, List[Sequence], List[Sequence]]]:
        """Fault hook: tear down one healthy worker of ``function``.

        Returns ``(worker, stranded sequences, requeue candidates)``
        like :meth:`fail_server`, or None when nothing is running.
        """
        workers = self._by_function.get(function)
        if not workers:
            return None
        worker = max(workers, key=lambda w: w.worker_id)
        stranded = list(worker.running) + list(worker.swapped)
        requeue = list(worker.waiting)
        for seq in stranded:
            if seq.kv_tokens:
                worker.kv_release(seq.kv_tokens)
                seq.kv_tokens = 0
        worker.running.clear()
        worker.swapped.clear()
        worker.waiting.clear()
        self._retire_worker(worker, release_placement=True)
        return worker, stranded, requeue

    def _retire_worker(
        self, worker: LLMWorker, release_placement: bool
    ) -> None:
        self.workers.remove(worker)
        self._by_function[worker.function.name].remove(worker)
        for counter in self._retired:
            self._retired[counter] += getattr(worker, counter)
        if release_placement:
            worker.device.release_weights(worker.spec.weights_mb)
            self.cluster.release(worker.placement)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def llm_counters(self) -> Dict[str, int]:
        """Engine-side tallies folded into the report's ``llm`` block."""
        totals = dict(self._retired)
        for worker in self.workers:
            for counter in totals:
                if counter == "kv_peak_tokens":
                    totals[counter] = max(totals[counter], worker.kv_peak_tokens)
                else:
                    totals[counter] += getattr(worker, counter)
        totals["kv_capacity_tokens"] = max(
            (w.kv_capacity_tokens for w in self.workers), default=0
        )
        totals["workers"] = len(self.workers)
        return totals


class StaticBatchLLM(ContinuousBatchingLLM):
    """The static-batch adaptation: gang-scheduled request batches.

    Identical cost model and admission, but a batch is formed only
    when the previous one fully drains -- the comparison point showing
    what iteration-level scheduling buys.
    """

    def __init__(self, cluster, predictor=None, **options) -> None:
        options.setdefault("name", "llm-static")
        options["scheduling"] = "static"
        super().__init__(cluster, predictor, **options)
