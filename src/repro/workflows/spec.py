"""The DAG workflow model: named stages, fan-out/fan-in, one SLO.

INFless's evaluation applications (OSVT, Q&A robot) are multi-stage
pipelines, and the paper's section 7 names chained functions as future
work.  :class:`WorkflowSpec` is the declarative model for them: a DAG
of named stages over zoo models, fan-out/fan-in edges, and a single
*end-to-end* latency SLO judged at the sink.  A linear pipeline is
the path-shaped special case (:meth:`WorkflowSpec.linear`, or
``Application.as_workflow()`` for the evaluation applications).

Like :class:`~repro.cluster.fleet.FleetSpec`, the spec JSON
round-trips (``to_dict``/``from_dict``) and :meth:`WorkflowSpec.coerce`
accepts a spec object, its dict form, a path to a JSON file, or an
application preset name (``"osvt"``, ``"qa"``) so workflows can be
swept as a campaign axis or passed to ``cli simulate --workflow``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.specs import reject_unknown_keys

#: application preset names resolved by :meth:`WorkflowSpec.coerce`.
WORKFLOW_PRESETS: Tuple[str, ...] = ("osvt", "qa")


def find_cycle(
    successors: Dict[str, Sequence[str]],
) -> Optional[List[str]]:
    """First cycle in a successor map, as a closed node path, or None.

    Used by :class:`WorkflowSpec` validation: a cycle through two or
    more stages (``a -> b -> a``) would forward requests forever at
    completion time, so it is rejected at construction.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    nodes = list(successors)
    for node in successors.values():
        for succ in node:
            if succ not in successors:
                nodes.append(succ)

    def visit(node: str, path: List[str]) -> Optional[List[str]]:
        """DFS from ``node``, returning the first closed path found."""
        color[node] = GREY
        path.append(node)
        for succ in successors.get(node, ()):
            state = color.get(succ, WHITE)
            if state == GREY:
                return path[path.index(succ):] + [succ]
            if state == WHITE:
                cycle = visit(succ, path)
                if cycle is not None:
                    return cycle
        path.pop()
        color[node] = BLACK
        return None

    for node in nodes:
        if color.get(node, WHITE) == WHITE:
            cycle = visit(node, [])
            if cycle is not None:
                return cycle
    return None


@dataclass(frozen=True)
class WorkflowStage:
    """One DAG node: a named function stage over a zoo model.

    Attributes:
        name: the stage's function name (unique within the workflow).
        model: zoo model the stage runs (may be empty for topologies
            whose functions are deployed out of band).
        downstream: names of the stages this stage fans out to; empty
            for the sink.
    """

    name: str
    model: str = ""
    downstream: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("WorkflowStage needs a non-empty name")
        object.__setattr__(self, "downstream", tuple(self.downstream))

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON specs."""
        payload = dataclasses.asdict(self)
        payload["downstream"] = list(self.downstream)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "WorkflowStage":
        """Inverse of :meth:`to_dict`."""
        reject_unknown_keys(payload, ("name", "model", "downstream"), "workflow stage")
        return cls(
            name=payload["name"],
            model=payload.get("model", ""),
            downstream=tuple(payload.get("downstream", ())),
        )


@dataclass(frozen=True)
class WorkflowSpec:
    """A declarative, JSON-round-trippable DAG workflow.

    The DAG has exactly one entry (a stage no edge points at, fed by
    the workload trace) and one sink (a stage with no outgoing edges,
    where the end-to-end deadline is judged).  Fan-out duplicates a
    request into every downstream stage; fan-in joins wait for all
    upstream copies before the merged request enters the stage.

    Attributes:
        name: workflow label (threads through telemetry spans and the
            report's ``workflows`` block).
        stages: the DAG nodes with their outgoing edges.
        end_to_end_slo_s: the single latency budget, arrival at the
            entry to completion at the sink.
    """

    name: str
    stages: Tuple[WorkflowStage, ...]
    end_to_end_slo_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.name:
            raise ValueError("WorkflowSpec needs a non-empty name")
        if not self.stages:
            raise ValueError("WorkflowSpec needs at least one stage")
        if self.end_to_end_slo_s <= 0:
            raise ValueError("end_to_end_slo_s must be positive")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in workflow {self.name!r}")
        known = set(names)
        for stage in self.stages:
            for succ in stage.downstream:
                if succ == stage.name:
                    raise ValueError(
                        f"workflow stage {stage.name!r} forwards to itself"
                    )
                if succ not in known:
                    raise ValueError(
                        f"workflow stage {stage.name!r} forwards to unknown"
                        f" stage {succ!r}"
                    )
        cycle = find_cycle(self.successors())
        if cycle is not None:
            raise ValueError(
                f"workflow {self.name!r} contains a cycle:"
                f" {' -> '.join(cycle)}"
            )
        entries = [n for n in names if self.fan_in().get(n, 0) == 0]
        sinks = [s.name for s in self.stages if not s.downstream]
        if len(entries) != 1:
            raise ValueError(
                f"workflow {self.name!r} needs exactly one entry stage,"
                f" found {entries or 'none'}"
            )
        if len(sinks) != 1:
            raise ValueError(
                f"workflow {self.name!r} needs exactly one sink stage,"
                f" found {sinks or 'none'}"
            )
        # Reachability: every stage must sit on an entry -> sink path,
        # otherwise its join barriers can never fill.
        reachable = {entries[0]}
        frontier = [entries[0]]
        succ_map = self.successors()
        while frontier:
            for nxt in succ_map[frontier.pop()]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        unreachable = sorted(known - reachable)
        if unreachable:
            raise ValueError(
                f"workflow {self.name!r} has stages unreachable from the"
                f" entry: {', '.join(unreachable)}"
            )

    # ------------------------------------------------------------------
    # topology views
    # ------------------------------------------------------------------
    def stage(self, name: str) -> WorkflowStage:
        """The stage with ``name`` (raises KeyError when unknown)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def stage_names(self) -> List[str]:
        """Stage names in declaration order."""
        return [stage.name for stage in self.stages]

    def successors(self) -> Dict[str, Tuple[str, ...]]:
        """stage name -> downstream stage names."""
        return {stage.name: stage.downstream for stage in self.stages}

    def predecessors(self) -> Dict[str, Tuple[str, ...]]:
        """stage name -> upstream stage names (declaration order)."""
        preds: Dict[str, List[str]] = {s.name: [] for s in self.stages}
        for stage in self.stages:
            for succ in stage.downstream:
                preds[succ].append(stage.name)
        return {name: tuple(values) for name, values in preds.items()}

    def fan_in(self) -> Dict[str, int]:
        """stage name -> number of incoming edges."""
        return {
            name: len(preds) for name, preds in self.predecessors().items()
        }

    @property
    def entry(self) -> str:
        """The unique stage the workload trace feeds."""
        fan_in = self.fan_in()
        return next(s.name for s in self.stages if fan_in[s.name] == 0)

    @property
    def sink(self) -> str:
        """The unique stage the end-to-end deadline is judged at."""
        return next(s.name for s in self.stages if not s.downstream)

    def topological_order(self) -> List[str]:
        """Stage names in a deterministic topological order."""
        fan_in = dict(self.fan_in())
        order: List[str] = []
        ready = [n for n in self.stage_names() if fan_in[n] == 0]
        succ_map = self.successors()
        while ready:
            node = ready.pop(0)
            order.append(node)
            for succ in succ_map[node]:
                fan_in[succ] -= 1
                if fan_in[succ] == 0:
                    ready.append(succ)
        return order

    def adjacency(self) -> Dict[str, Tuple[str, ...]]:
        """stage name -> stages sharing an edge with it (either way).

        The co-placement hint's view: an instance of a stage prefers
        servers already hosting any stage adjacent to it in the DAG.
        """
        neighbours: Dict[str, List[str]] = {s.name: [] for s in self.stages}
        for stage in self.stages:
            for succ in stage.downstream:
                neighbours[stage.name].append(succ)
                neighbours[succ].append(stage.name)
        return {
            name: tuple(dict.fromkeys(values))
            for name, values in neighbours.items()
        }

    def edges(self) -> List[Tuple[str, str]]:
        """All (src, dst) edges in declaration order."""
        return [
            (stage.name, succ)
            for stage in self.stages
            for succ in stage.downstream
        ]

    def critical_path_time(self, t_exec: Dict[str, float]) -> float:
        """Longest entry->sink path weight under per-stage ``t_exec``."""
        longest: Dict[str, float] = {}
        for name in reversed(self.topological_order()):
            downstream = self.successors()[name]
            tail = max(
                (longest[succ] for succ in downstream), default=0.0
            )
            longest[name] = t_exec[name] + tail
        return longest[self.entry]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def linear(
        cls,
        name: str,
        stages: Sequence[Tuple[str, str]],
        end_to_end_slo_s: float,
    ) -> "WorkflowSpec":
        """A pipeline workflow from ordered ``(stage, model)`` pairs."""
        built = []
        for index, (stage_name, model) in enumerate(stages):
            downstream = (
                (stages[index + 1][0],) if index + 1 < len(stages) else ()
            )
            built.append(WorkflowStage(
                name=stage_name, model=model, downstream=downstream,
            ))
        return cls(
            name=name, stages=tuple(built), end_to_end_slo_s=end_to_end_slo_s
        )

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSON specs and campaign axes."""
        return {
            "name": self.name,
            "end_to_end_slo_s": self.end_to_end_slo_s,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "WorkflowSpec":
        """Inverse of :meth:`to_dict`; validates the DAG."""
        reject_unknown_keys(payload, ("name", "stages", "end_to_end_slo_s"), "workflow spec")
        stages = payload.get("stages")
        if not isinstance(stages, (list, tuple)):
            raise ValueError("WorkflowSpec dict needs a 'stages' list")
        return cls(
            name=payload.get("name", ""),
            stages=tuple(
                WorkflowStage.from_dict(dict(raw)) for raw in stages
            ),
            end_to_end_slo_s=float(payload.get("end_to_end_slo_s", 0.0)),
        )

    @classmethod
    def coerce(
        cls,
        value: Union[None, "WorkflowSpec", Dict[str, object], str],
    ) -> Optional["WorkflowSpec"]:
        """Accept a spec, its dict form, a JSON path, or a preset name."""
        if value is None or isinstance(value, WorkflowSpec):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, str):
            if value in WORKFLOW_PRESETS:
                return build_preset_workflow(value)
            if value.endswith(".json") or os.path.exists(value):
                with open(value, encoding="utf-8") as handle:
                    return cls.from_dict(json.load(handle))
            known = ", ".join(WORKFLOW_PRESETS)
            raise ValueError(
                f"unknown workflow {value!r}: not a preset ({known}) and"
                " not a JSON file path"
            )
        raise TypeError(
            "workflow must be a WorkflowSpec, a dict, a JSON path, or a"
            " preset name"
        )


def build_preset_workflow(name: str) -> WorkflowSpec:
    """The paper's applications as linear workflows (OSVT, Q&A robot)."""
    from repro.workloads.apps import build_osvt, build_qa_robot

    if name == "osvt":
        return build_osvt().as_workflow()
    if name == "qa":
        return build_qa_robot().as_workflow()
    known = ", ".join(WORKFLOW_PRESETS)
    raise ValueError(f"unknown workflow preset {name!r} (known: {known})")
