"""The benchmark's four workloads, defined here and nowhere else.

Each workload is a pair of steps driven through the public API only:

* ``setup(seed)`` pays everything a user pays before a fresh
  ``simulate`` starts serving: offline COP profiling for every GPU
  generation the workload touches, trace generation, and building the
  experiment (or the cluster).  It returns a :class:`Prepared`.
* ``run(prepared)`` is the timed part.  It returns a :class:`Outcome`:
  the simulated work done, the simulated outcome metrics, the
  conservation checks and a digest of every simulated statistic.

The workload seed derives the trace seed and the experiment seed; the
program under test only ever sees the generated traces, function specs
and loads.  Sizes are fixed, so the amount of simulated work depends on
the seed alone.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

#: mean rps of the OSVT replay (the Fig. 12 operating point).
OSVT_RPS = 300.0
#: the fluid replay runs the same trace shape at 100x the load.
OSVT_FLUID_RPS = 30_000.0
#: independent OSVT tenants in the fluid replay, and their simulated
#: seconds.  The fluid engine's cost follows its backlog episodes, which
#: vary a lot from one trace to the next (the atoms a 240 s trace feeds
#: the latency sketch spread 53% between seeds, a 120 s trace's 33%);
#: eight short traces per run keep runs comparable between seeds.
FLUID_TENANTS = 8
FLUID_DURATION_S = 120.0
#: simulated seconds of the DES OSVT replay; both replays warm up 10 s.
OSVT_DURATION_S = 240.0
OSVT_WARMUP_S = 10.0

#: the paper's large-scale cluster and the Fig. 18(a) fleet sizes.
FLEET_SERVERS = 2000
FLEET_COUNTS = (10, 20, 30, 40)
#: mean per-function load of the sweep; the seed jitters it by +-2.5%.
FLEET_BASE_RPS = 3000.0
#: instances placed one Schedule() call at a time in the Fig. 17(a) fill.
FILL_INSTANCES = 3000

#: the long tail: functions, simulated seconds and per-function rates.
TAIL_FUNCTIONS = 64
TAIL_DURATION_S = 1200.0
TAIL_WARMUP_S = 10.0
TAIL_RPS_RANGE = (0.2, 0.8)
TAIL_PATTERNS = ("sporadic", "periodic", "bursty")
#: 24 servers, a third of each GPU generation.
TAIL_GENERATIONS = ("2080ti", "t4", "a100")
TAIL_SERVERS_PER_GENERATION = 8


def derive_seed(seed: int, stream: int) -> int:
    """An independent 31-bit seed for one input stream of a workload."""
    state = np.random.SeedSequence([int(seed), stream]).generate_state(1)
    return int(state[0] % (2**31 - 1))


def digest(payload: object) -> str:
    """Stable short hash of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Prepared:
    """What ``setup`` built; ``run`` consumes it exactly once."""

    predictor: object
    experiment: object = None
    #: fleet_provision only: the sweep's load, the fill's scheduler and
    #: the order the fill deals the fleet in.
    base_rps: float = 0.0
    scheduler: object = None
    fill_order: List[object] = field(default_factory=list)
    #: host seconds per setup part, for the traced run's layer split.
    parts_s: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed run produced."""

    #: simulated work units: requests arrived, or instances placed.
    work: int
    #: simulated outcome metrics; deterministic for a seed.
    metrics: Dict[str, float]
    digest: str
    #: failed correctness checks, as human-readable lines.
    errors: List[str] = field(default_factory=list)
    #: host ms per single-instance Schedule() call (fleet_provision).
    schedule_ms: List[float] = field(default_factory=list)
    #: simulation report (serving workloads), for the traced run.
    report: object = None


def _profiled_predictor(generations, parts):
    """The COP predictor, profiled for every GPU generation used.

    ``predict(..., gpu_profile=...)`` is the public path that profiles a
    generation; warming it here keeps lazy profiling out of the first
    timed ``Schedule()`` call.
    """
    from repro.cluster.fleet import resolve_gpu_profile
    from repro.profiling import build_default_predictor

    started = time.perf_counter()
    predictor = build_default_predictor()
    parts["profiling.cop_build_s.2080ti"] = time.perf_counter() - started
    for name in generations:
        if name == "2080ti":
            continue  # the baseline: profiled just above
        started = time.perf_counter()
        predictor.predict(
            "resnet-50", 1, 1, 10, gpu_profile=resolve_gpu_profile(name)
        )
        parts[f"profiling.cop_build_s.{name}"] = time.perf_counter() - started
    return predictor


def _timed(parts, key, fn):
    started = time.perf_counter()
    value = fn()
    parts[key] = parts.get(key, 0.0) + time.perf_counter() - started
    return value


# ----------------------------------------------------------------------
# serving workloads (osvt_bursty, osvt_fluid, long_tail_fleet)
# ----------------------------------------------------------------------
def osvt_inputs(
    mean_rps: float, duration_s: float, trace_seeds: Sequence[int]
):
    """OSVT tenants, each on its own bursty trace at ``mean_rps``."""
    from repro.workloads import build_osvt
    from repro.workloads.generators import bursty_trace

    functions, workload = [], {}
    for tenant, trace_seed in enumerate(trace_seeds):
        trace = bursty_trace(
            mean_rps,
            duration_s,
            period_s=duration_s,
            burst_rate_per_hour=30.0,
            burst_duration_s=30.0,
            seed=trace_seed,
        )
        app = build_osvt(
            prefix="osvt" if len(trace_seeds) == 1 else f"osvt{tenant}"
        )
        functions += app.functions
        workload.update(
            (name, trace.with_mean(rps))
            for name, rps in app.rps_split(trace.mean_rps).items()
        )
    return functions, workload


def osvt_experiment(
    predictor,
    trace_seeds: Sequence[int],
    sim_seed: int,
    engine: str = "des",
    invariants: str = "off",
    parts: Optional[Dict[str, float]] = None,
):
    """The Fig. 12 OSVT replay on the default 8-server testbed."""
    from repro.api import Experiment

    parts = {} if parts is None else parts
    if engine == "des":
        mean_rps, duration_s = OSVT_RPS, OSVT_DURATION_S
    else:
        mean_rps, duration_s = OSVT_FLUID_RPS, FLUID_DURATION_S
    functions, workload = _timed(
        parts, "workloads.trace_gen_s",
        lambda: osvt_inputs(mean_rps, duration_s, trace_seeds),
    )
    experiment = Experiment(
        platform="infless",
        predictor=predictor,
        functions=functions,
        workload=workload,
        warmup_s=OSVT_WARMUP_S,
        invariants=invariants,
        engine=engine,
        seed=sim_seed,
    )
    _timed(parts, "api.experiment.build_s", experiment.build)
    return experiment


def tail_inputs(seed: int):
    """64 long-tail functions, each on one production-trace series.

    The rates are a seed-shuffled even spread over ``TAIL_RPS_RANGE``
    and the patterns are dealt round-robin over a seed-shuffled order,
    so the total offered rate is the same for every seed.
    """
    from repro.simulation.largescale import make_function_fleet
    from repro.workloads.generators import production_traces

    rng = np.random.default_rng(derive_seed(seed, 1))
    functions = make_function_fleet(TAIL_FUNCTIONS)
    rates = np.linspace(*TAIL_RPS_RANGE, TAIL_FUNCTIONS)
    rng.shuffle(rates)
    order = rng.permutation(TAIL_FUNCTIONS)
    workload = {}
    for rank, index in enumerate(order):
        function = functions[index]
        traces = production_traces(
            float(rates[index]),
            TAIL_DURATION_S,
            seed=int(rng.integers(2**31 - 1)),
        )
        workload[function.name] = traces[TAIL_PATTERNS[rank % 3]]
    return functions, workload


def tail_experiment(
    predictor,
    seed: int,
    invariants: str = "off",
    parts: Optional[Dict[str, float]] = None,
):
    """The long-tail fleet on a mixed 2080Ti/T4/A100 FleetSpec."""
    from repro.api import Experiment
    from repro.cluster.fleet import FleetSpec, ServerGroup

    parts = {} if parts is None else parts
    functions, workload = _timed(
        parts, "workloads.trace_gen_s", lambda: tail_inputs(seed)
    )
    fleet = FleetSpec(groups=tuple(
        ServerGroup(count=TAIL_SERVERS_PER_GENERATION, gpu_profile=name)
        for name in TAIL_GENERATIONS
    ))
    experiment = Experiment(
        platform="infless",
        predictor=predictor,
        functions=functions,
        workload=workload,
        fleet=fleet,
        autoscaler="hybrid",
        warmup_s=TAIL_WARMUP_S,
        invariants=invariants,
        seed=derive_seed(seed, 2),
    )
    _timed(parts, "api.experiment.build_s", experiment.build)
    return experiment


def report_digest(report) -> str:
    """Digest of every simulated statistic of a serving report.

    ``scheduling_overhead_s`` is the report's only wall-clock field.
    """
    payload = report.to_dict()
    payload.pop("scheduling_overhead_s", None)
    return digest(payload)


def fluid_ledger_errors(simulation) -> List[str]:
    """The fluid engine's conservation law, per function.

    Fluid reports count served mass by the tick it was served in, so
    backlog carried across the warmup boundary makes the report's
    ``arrived == completed + dropped`` hold only approximately; the
    engine's own ledger (docs/fluid-model.md) balances exactly.
    """
    errors = []
    for name, fluid in sorted(simulation.fluids.items()):
        ledger = fluid.ledger()
        balance = ledger["arrived"] - (
            ledger["served"] + ledger["dropped"] + ledger["queued"]
        )
        if abs(balance) > 1e-6 * max(1.0, ledger["arrived"]):
            errors.append(f"{name}: fluid ledger leaks {balance:+.6f}")
    return errors


def serving_outcome(report, fluid_simulation=None) -> Outcome:
    """Outcome metrics and conservation checks of a serving report."""
    if fluid_simulation is not None:
        errors = fluid_ledger_errors(fluid_simulation)
    elif report.arrived != report.completed + report.dropped:
        errors = [
            f"arrived {report.arrived} != completed {report.completed}"
            f" + dropped {report.dropped}"
        ]
    else:
        errors = []
    if report.arrived <= 0:
        errors.append("no requests arrived")
    missed = report.slo_violations + report.dropped
    arrived = max(report.arrived, 1)
    metrics = {
        "goodput_rps": report.goodput_rps,
        "slo_met_pct": 100.0 * (arrived - missed) / arrived,
        "completed_pct": 100.0 * report.completed / arrived,
        "latency_p50_ms": 1e3 * report.latency_p50_s,
        "latency_p99_ms": 1e3 * report.latency_p99_s,
        "throughput_per_resource": report.normalized_throughput,
        "fragment_ratio": report.mean_fragment_ratio,
    }
    return Outcome(
        work=report.arrived,
        metrics=metrics,
        digest=report_digest(report),
        errors=errors,
        report=report,
    )


def setup_osvt_bursty(seed: int, invariants: str = "off") -> Prepared:
    parts: Dict[str, float] = {}
    predictor = _profiled_predictor(("2080ti",), parts)
    experiment = osvt_experiment(
        predictor, [derive_seed(seed, 1)], derive_seed(seed, 2),
        invariants=invariants, parts=parts,
    )
    return Prepared(predictor, experiment, parts_s=parts)


def setup_osvt_fluid(seed: int, invariants: str = "off") -> Prepared:
    parts: Dict[str, float] = {}
    predictor = _profiled_predictor(("2080ti",), parts)
    trace_seeds = [
        derive_seed(seed, 10 + tenant) for tenant in range(FLUID_TENANTS)
    ]
    experiment = osvt_experiment(
        predictor, trace_seeds, derive_seed(seed, 2),
        engine="fluid", invariants=invariants, parts=parts,
    )
    return Prepared(predictor, experiment, parts_s=parts)


def setup_long_tail_fleet(seed: int, invariants: str = "off") -> Prepared:
    parts: Dict[str, float] = {}
    predictor = _profiled_predictor(TAIL_GENERATIONS, parts)
    experiment = tail_experiment(
        predictor, seed, invariants=invariants, parts=parts
    )
    return Prepared(predictor, experiment, parts_s=parts)


def run_serving(prepared: Prepared) -> Outcome:
    experiment = prepared.experiment
    report = experiment.run()
    fluid = experiment.simulation if experiment.engine == "fluid" else None
    return serving_outcome(report, fluid)


# ----------------------------------------------------------------------
# fleet_provision: Fig. 18(a) sweep, then the Fig. 17(a) fill
# ----------------------------------------------------------------------
def setup_fleet_provision(seed: int, invariants: str = "off") -> Prepared:
    """Profile, then build the fill's 2,000-server cluster and fleet.

    The seed jitters the sweep's per-function load and shuffles the
    fill's round-robin order over the 40-function fleet.
    """
    from repro.core.scheduler import GreedyScheduler
    from repro.simulation.largescale import (
        build_large_cluster,
        make_function_fleet,
    )

    parts: Dict[str, float] = {}
    predictor = _profiled_predictor(("2080ti",), parts)
    rng = np.random.default_rng(derive_seed(seed, 1))
    base_rps = FLEET_BASE_RPS * float(rng.uniform(0.975, 1.025))
    fleet = _timed(
        parts, "workloads.trace_gen_s",
        lambda: make_function_fleet(max(FLEET_COUNTS)),
    )
    order = [fleet[index] for index in rng.permutation(len(fleet))]
    scheduler = _timed(
        parts, "api.experiment.build_s",
        lambda: GreedyScheduler(build_large_cluster(FLEET_SERVERS), predictor),
    )
    return Prepared(
        predictor, base_rps=base_rps, scheduler=scheduler,
        fill_order=order, parts_s=parts,
    )


def sweep(predictor, num_servers: int, base_rps: float):
    """Fig. 18(a): INFless and BATCH provision 10..40-function fleets."""
    from repro.baselines import BatchOTP
    from repro.core import INFlessEngine
    from repro.simulation.largescale import throughput_vs_functions

    return throughput_vs_functions(
        {
            "infless": lambda c: INFlessEngine(c, predictor=predictor),
            "batch": lambda c: BatchOTP(c, predictor),
        },
        function_counts=FLEET_COUNTS,
        num_servers=num_servers,
        base_rps=base_rps,
    )


def run_fleet_provision(prepared: Prepared) -> Outcome:
    results = sweep(prepared.predictor, FLEET_SERVERS, prepared.base_rps)
    scheduler = prepared.scheduler
    order = prepared.fill_order
    schedule_ms = []
    placements = []
    clock = time.perf_counter
    while len(placements) < FILL_INSTANCES:
        function = order[len(schedule_ms) % len(order)]
        started = clock()
        outcome = scheduler.schedule(function, 1e9, max_instances=1)
        schedule_ms.append(1e3 * (clock() - started))
        if not outcome.instances:
            break
        instance = outcome.instances[0]
        config = instance.config
        placements.append((
            function.name, config.batch, config.cpu, config.gpu,
            instance.placement.server_id, instance.t_exec_pred,
        ))
    errors = []
    if len(placements) < FILL_INSTANCES:
        errors.append(
            f"fill placed {len(placements)} of {FILL_INSTANCES} instances"
        )
    slo = {function.name: function.slo_s for function in order}
    late = sum(1 for row in placements if row[5] > slo[row[0]] + 1e-9)
    if late:
        errors.append(f"{late} placed configs predict t_exec above the SLO")
    infless = [result for _count, result in results["infless"]]
    sweep_rows = {
        name: [
            [count, r.instances, r.weighted_resources_used, r.fragment_ratio,
             r.total_rps]
            for count, r in series
        ]
        for name, series in results.items()
    }
    exec_ms = np.array([1e3 * row[5] for row in placements])
    sweep_instances = sum(r.instances for s in results.values() for _c, r in s)
    metrics = {
        # The load INFless provisioned SLO-meeting instances for, summed
        # over the sweep; the latencies are the fill's predicted t_exec.
        "goodput_rps": sum(r.total_rps for r in infless),
        "slo_met_pct": 100.0 * (len(placements) - late) / FILL_INSTANCES,
        "completed_pct": 100.0 * len(placements) / FILL_INSTANCES,
        "latency_p50_ms": float(np.percentile(exec_ms, 50)),
        "latency_p99_ms": float(np.percentile(exec_ms, 99)),
        "throughput_per_resource": sum(
            r.throughput_per_resource for r in infless
        ),
        "fragment_ratio": float(np.mean([r.fragment_ratio for r in infless])),
    }
    return Outcome(
        work=len(placements) + sweep_instances,
        metrics=metrics,
        digest=digest({"sweep": sweep_rows, "fill": placements}),
        errors=errors,
        schedule_ms=schedule_ms,
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable[..., Prepared]
    run: Callable[[Prepared], Outcome]
    #: discrete-event workloads also get one strict-invariants run.
    des: bool


#: why each workload was chosen is in BENCHMARK.json and NOTES.md.
WORKLOADS: Dict[str, Workload] = {
    "osvt_bursty": Workload(setup_osvt_bursty, run_serving, des=True),
    "fleet_provision": Workload(
        setup_fleet_provision, run_fleet_provision, des=False
    ),
    "long_tail_fleet": Workload(setup_long_tail_fleet, run_serving, des=True),
    "osvt_fluid": Workload(setup_osvt_fluid, run_serving, des=False),
}
