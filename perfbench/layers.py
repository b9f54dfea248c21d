"""Per-layer tracing for the benchmark's traced run.

:meth:`Tracer.install` wraps, at class level, the public methods of every
class defined in the simulator's layer modules (and their public
module functions, wherever another module imported them), plus the
event handlers the runtime registers through ``EventLoop.on``.  It
must run before the experiment is built, so bound methods the program
caches at construction time are the wrapped ones.

Each timed call is a span: name, start, end and the span that was open
when it began.  Spans stay in memory (:class:`Spans`) and are written
out once, by :meth:`Tracer.write`, after the run.  A layer's self time
is the time its spans cover minus the time covered by their child
spans, so the self times of all layers plus the unwrapped remainder of
the root span add up to the traced run time.

Calls hot enough that a timing wrapper would swamp them are counted
only (:data:`COUNT_ONLY`); their cost lands in the self time of the
span that called them.
"""

from __future__ import annotations

import inspect
from array import array
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

#: module prefix -> layer name; the longest matching prefix wins.
#: Modules not listed take their own path (``repro.fluid.model`` ->
#: ``fluid.model``).
LAYER_GROUPS = {
    "repro.cluster": "cluster",
    "repro.profiling": "profiling",
    "repro.baselines": "baselines",
    "repro.core.histogram": "core.coldstart",
    "repro.core.lsth": "core.coldstart",
    "repro.core.hhp": "core.coldstart",
    "repro.core.swap": "core.coldstart",
    "repro.core.instance": "core.engine",
    "repro.core.efficiency": "core.scheduler",
    "repro.api": "api.experiment",
}

#: modules whose classes and functions are wrapped.
LAYER_MODULES = (
    "repro.simulation.engine",
    "repro.simulation.runtime",
    "repro.simulation.metrics",
    "repro.simulation.sketches",
    "repro.simulation.largescale",
    "repro.core.engine",
    "repro.core.batching",
    "repro.core.coldstart",
    "repro.core.histogram",
    "repro.core.lsth",
    "repro.core.hhp",
    "repro.core.swap",
    "repro.core.autoscaler",
    "repro.core.dispatcher",
    "repro.core.scheduler",
    "repro.core.efficiency",
    "repro.core.instance",
    "repro.cluster.cluster",
    "repro.cluster.server",
    "repro.cluster.fleet",
    "repro.cluster.resources",
    "repro.profiling.predictor",
    "repro.profiling.executor",
    "repro.profiling.database",
    "repro.fluid.engine",
    "repro.fluid.model",
    "repro.baselines.common",
    "repro.baselines.batch_otp",
    "repro.invariants.checker",
    "repro.api.experiment",
)

#: qualified names counted without timing: each is called millions of
#: times on some workload, and a timing wrapper would swamp it.
COUNT_ONLY = frozenset({
    "Cluster.server",
    "EventLoop.schedule",
    "EventLoop.peek_time",
    "LatencyPredictor.predict",
    "GroundTruthExecutor.execution_time",
    "Server.can_fit",
    "ResourceVector.fits_within",
    "ResourceVector.weighted",
    "ResourceVector.is_zero",
    "Instance.is_dispatchable",
    "ProfileDatabase.lookup",
    "BatchQueue.should_flush",
    "CapacityLadder.best_config",
    "MetricsCollector.record_arrival",
})

#: property getters that are counted (they are not methods).
COUNTED_PROPERTIES = ("Server.used",)

#: the runtime's event handlers the per-layer metrics report.
HANDLERS = ("arrival", "batch_timeout", "batch_complete", "control_tick")


def layer_of(module: str) -> str:
    """The layer a module's code is attributed to."""
    best = ""
    for prefix in LAYER_GROUPS:
        if (module == prefix or module.startswith(prefix + ".")) and len(
            prefix
        ) > len(best):
            best = prefix
    if best:
        return LAYER_GROUPS[best]
    return module[len("repro."):] if module.startswith("repro.") else module


class Stat:
    """Counters of one wrapped callable."""

    __slots__ = ("name", "layer", "calls", "total_s", "self_s", "extra")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: result-derived tally (routes that hit, requests drained, ...).
        self.extra = 0


class Spans:
    """Compact in-memory span columns; written out after the run."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.name)


#: per-name result tallies: what counts as useful work of a call.
RESULT_TALLIES: Dict[str, Callable[[object], int]] = {
    "INFlessEngine.route": lambda result: result is not None,
    "BatchQueue.drain": len,
    "GreedyScheduler.schedule": lambda outcome: len(outcome.instances),
}


class Tracer:
    """Wraps the layers, keeps spans and per-callable counters."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self.spans = Spans()
        self._names: Dict[str, int] = {}
        #: one entry per open span: [span index, child seconds].
        self._open: List[list] = [[-1, 0.0]]
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _stat(self, name: str, layer: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(name, layer)
        return stat

    def counted(self, name: str, layer: str, fn: Callable) -> Callable:
        stat = self._stat(name, layer)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed(self, name: str, layer: str, fn: Callable) -> Callable:
        stat = self._stat(name, layer)
        name_id = self._names.setdefault(name, len(self._names))
        tally = RESULT_TALLIES.get(name)
        opened = self._open
        spans = self.spans
        span_name, span_parent = spans.name, spans.parent
        span_start, span_end = spans.start, spans.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(opened[-1][0])
            span_end.append(0.0)
            frame = [index, 0.0]
            opened.append(frame)
            started = clock()
            span_start.append(started)
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = clock()
                elapsed = ended - started
                opened.pop()
                opened[-1][1] += elapsed
                span_end[index] = ended
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
            if tally is not None:
                stat.extra += tally(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        if name in COUNT_ONLY:
            return self.counted(name, layer, fn)
        return self.timed(name, layer, fn)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer module; call before building anything."""
        import importlib

        modules = [importlib.import_module(name) for name in LAYER_MODULES]
        functions: Dict[int, Callable] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(value, layer)
                elif (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    functions[id(value)] = self.wrap(value.__name__, layer, value)
        # Module functions are rebound wherever a module imported them.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = functions.get(id(value))
                if wrapped is not None and inspect.isfunction(value):
                    self._set(module, attr, wrapped)
        self._install_handlers()

    def _install_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, BaseException) or isinstance(
            cls.__dict__.get("_member_map_"), dict
        ):
            return  # exceptions and enums carry no layer work
        for attr, value in list(cls.__dict__.items()):
            name = f"{cls.__name__}.{attr}"
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                self._set(cls, attr, self.wrap(name, layer, value))
            elif isinstance(value, property) and name in COUNTED_PROPERTIES:
                self._set(cls, attr, property(
                    self.counted(name, layer, value.fget)
                ))

    def _install_handlers(self) -> None:
        """Time what the runtime registers on the event loop."""
        from repro.simulation.engine import EventLoop

        register = EventLoop.__dict__["on"]
        tracer = self

        def on(loop, kind, handler):
            return register(loop, kind, tracer.timed(
                f"handler.{kind.value}", "simulation.runtime", handler
            ))

        self._set(EventLoop, "on", on)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget what set-up did; keep the wrappers installed."""
        for stat in self.stats.values():
            stat.calls = 0
            stat.total_s = 0.0
            stat.self_s = 0.0
            stat.extra = 0
        for column in vars(self.spans).values():
            del column[:]

    def root(self, fn: Callable) -> Callable:
        """Wrap the benchmark's own timed call as the root span."""
        return self.timed("run", "root", fn)

    def self_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for stat in self.stats.values():
            totals[stat.layer] = totals.get(stat.layer, 0.0) + stat.self_s
        return totals

    def write(self, path: Path) -> None:
        """Write the spans (``.npy``) and their name table (``.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        table = np.zeros(len(spans), dtype=[
            ("name", "i4"), ("parent", "i4"), ("start", "f8"), ("end", "f8"),
        ])
        for column in table.dtype.names:
            table[column] = getattr(spans, column)
        np.save(path.with_suffix(".npy"), table)
        names = sorted(self._names, key=self._names.get)
        path.with_suffix(".json").write_text(json.dumps({"names": names}))

    def get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat(name, "")


def layer_metrics(
    tracer: Tracer,
    run_s: float,
    outcome,
    prepared,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by their fixed names."""
    get = tracer.get
    selfs = tracer.self_by_layer()
    metrics: Dict[str, float] = {}

    def put(name: str, value: float) -> None:
        metrics[name] = float(value)

    simulation = getattr(prepared.experiment, "simulation", None)
    loop = getattr(simulation, "loop", None)
    put("simulation.engine.events", loop.processed if loop is not None else 0)
    put("simulation.engine.schedule_calls", get("EventLoop.schedule").calls)
    put("simulation.engine.self_s", selfs.get("simulation.engine", 0.0))
    for label in HANDLERS:
        stat = get(f"handler.{label}")
        put(f"simulation.runtime.{label}_calls", stat.calls)
        put(f"simulation.runtime.{label}_s", stat.total_s)
    put("simulation.runtime.self_s", selfs.get("simulation.runtime", 0.0))

    route = get("INFlessEngine.route")
    put("core.engine.route_calls", route.calls)
    put("core.engine.route_s", route.total_s)
    put("core.engine.route_hit_ratio", route.extra / max(route.calls, 1))
    put("core.engine.self_s", selfs.get("core.engine", 0.0))

    drain = get("BatchQueue.drain")
    put("core.batching.enqueue_calls", get("BatchQueue.enqueue").calls)
    put("core.batching.drain_calls", drain.calls)
    put("core.batching.mean_batch", drain.extra / max(drain.calls, 1))
    put("core.batching.self_s", selfs.get("core.batching", 0.0))

    put(
        "core.coldstart.record_invocation_calls",
        sum(
            stat.calls for name, stat in tracer.stats.items()
            if name.endswith(".record_invocation")
            and stat.layer == "core.coldstart"
        ),
    )
    put("core.coldstart.self_s", selfs.get("core.coldstart", 0.0))
    report = outcome.report
    put("core.coldstart.cold_starts", getattr(report, "cold_starts", 0))
    put("core.coldstart.warm_reuses", getattr(report, "warm_reuses", 0))
    put(
        "core.coldstart.mean_cold_wait_ms",
        1e3 * getattr(report, "mean_cold_wait_s", 0.0),
    )

    observe = [
        stat for name, stat in tracer.stats.items()
        if name.endswith("AutoScaler.observe")
    ]
    put("core.autoscaler.observe_calls", sum(s.calls for s in observe))
    put("core.autoscaler.observe_s", sum(s.total_s for s in observe))
    put(
        "core.autoscaler.expire_warm_pool_s",
        get("AutoScaler.expire_warm_pool").total_s,
    )
    put("core.autoscaler.self_s", selfs.get("core.autoscaler", 0.0))
    put("core.dispatcher.plan_dispatch_calls", get("plan_dispatch").calls)
    put("core.dispatcher.self_s", selfs.get("core.dispatcher", 0.0))

    schedule = get("GreedyScheduler.schedule")
    placed = schedule.extra
    put("core.scheduler.schedule_calls", schedule.calls)
    put("core.scheduler.instances_placed", placed)
    searches = get("GreedyScheduler.available_configs").calls
    put("core.scheduler.available_configs_calls", searches)
    # Config searches that ended in a placement: the rest were wasted.
    put("core.scheduler.placement_ratio", placed / max(searches, 1))
    put("core.scheduler.self_s", selfs.get("core.scheduler", 0.0))

    probes = get("Cluster.server").calls
    put("cluster.server_probes", probes)
    put("cluster.probes_per_placement", probes / max(placed, 1))
    put("cluster.allocate_calls", get("Cluster.allocate").calls)
    put("cluster.release_calls", get("Cluster.release").calls)
    put("cluster.usage_samples", get("Server.used").calls)
    put("cluster.self_s", selfs.get("cluster", 0.0))

    put(
        "simulation.metrics.record_calls",
        sum(
            stat.calls for name, stat in tracer.stats.items()
            if name.startswith("MetricsCollector.record_")
        ),
    )
    put("simulation.metrics.finalize_s", get("MetricsCollector.finalize").total_s)
    put("simulation.metrics.self_s", selfs.get("simulation.metrics", 0.0))
    put("simulation.sketches.add_calls", get("QuantileSketch.add").calls)
    put("simulation.sketches.self_s", selfs.get("simulation.sketches", 0.0))

    for method in ("control", "step"):
        stat = get(f"FunctionFluid.{method}")
        put(f"fluid.model.{method}_calls", stat.calls)
        put(f"fluid.model.{method}_s", stat.total_s)

    put("profiling.predict_calls", get("LatencyPredictor.predict").calls)
    put(
        "profiling.execution_time_calls",
        get("GroundTruthExecutor.execution_time").calls,
    )
    put("profiling.self_s", selfs.get("profiling", 0.0))

    # Self-check: the layers' self times partition the traced run.
    attributed = sum(
        seconds for layer, seconds in selfs.items() if layer != "root"
    )
    put("trace.run_s", run_s)
    put("trace.attributed_pct", 100.0 * attributed / run_s)
    put("trace.spans", len(tracer.spans))
    return metrics
