"""ESG-style end-to-end SLO decomposition across workflow stages.

A workflow carries one latency budget, judged at the sink.  Each stage,
however, is provisioned independently against Eq. 1's per-function rate
bounds, which need a *per-stage* SLO.  Giving every stage the full
end-to-end budget (the "independent" strawman) lets batching delay
accumulate stage after stage until the workflow deadline is blown even
though every stage met "its" SLO.

The "decomposed" policy splits the budget the way ESG does: predict
each stage's execution time ``t_exec`` with the COP latency predictor,
find the critical (longest) entry->sink path, and give stage *s* the
share ``e2e * t_exec[s] / CP`` of the budget.  Off-critical-path stages
receive the same proportional share, so slack concentrates where the
pipeline actually spends its time.  The decomposition is a pure
function of ``(workflow, predictor)`` -- it is recomputed whenever the
predictor's estimates change (e.g. a rebuilt profile database) simply
by calling :func:`decompose_slo` again at build time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.specs import check_choice
from repro.workflows.spec import WorkflowSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.profiling.predictor import LatencyPredictor

#: the SLO decomposition policies Experiment/campaign accept.
WORKFLOW_POLICIES: Tuple[str, ...] = ("decomposed", "independent")

#: nominal configuration the decomposition predicts ``t_exec`` at:
#: single-request batches on a half-GPU slice -- a conservative,
#: model-agnostic operating point (the actual <b, c, g> choice is the
#: scheduler's job once per-stage budgets exist).
NOMINAL_BATCH = 1
NOMINAL_CPU = 4
NOMINAL_GPU = 50

#: a stage budget below twice its execution time leaves no room for
#: batching (Eq. 1's r_low requires slo >= 2 * t_exec at b = 1).
MIN_BUDGET_FACTOR = 2.0


def predicted_stage_times(
    workflow: WorkflowSpec, predictor: "LatencyPredictor"
) -> Dict[str, float]:
    """Per-stage ``t_exec`` predictions at the nominal configuration."""
    times: Dict[str, float] = {}
    for stage in workflow.stages:
        if not stage.model:
            raise ValueError(
                f"workflow stage {stage.name!r} has no model; SLO"
                " decomposition needs one to predict t_exec"
            )
        times[stage.name] = predictor.predict(
            stage.model, NOMINAL_BATCH, NOMINAL_CPU, NOMINAL_GPU
        )
    return times


def decompose_slo(
    workflow: WorkflowSpec,
    predictor: "LatencyPredictor",
    policy: str = "decomposed",
) -> Dict[str, float]:
    """Per-stage SLO budgets (seconds) under ``policy``.

    ``"independent"`` gives every stage the full end-to-end budget --
    the naive per-stage behaviour, kept as the comparison baseline.  ``"decomposed"`` splits the budget
    proportionally to predicted ``t_exec`` along the critical path,
    floored at ``MIN_BUDGET_FACTOR * t_exec`` so every stage keeps an
    Eq. 1-feasible budget, and capped at the end-to-end budget.
    """
    check_choice("workflow policy", policy, WORKFLOW_POLICIES)
    e2e = workflow.end_to_end_slo_s
    if policy == "independent":
        return {name: e2e for name in workflow.stage_names()}
    times = predicted_stage_times(workflow, predictor)
    critical = workflow.critical_path_time(times)
    budgets: Dict[str, float] = {}
    for name in workflow.stage_names():
        share = e2e * times[name] / critical
        share = max(share, MIN_BUDGET_FACTOR * times[name])
        budgets[name] = min(share, e2e)
    return budgets
