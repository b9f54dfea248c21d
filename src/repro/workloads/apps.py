"""The two evaluation applications (section 5.1).

* **OSVT** (online secondhand vehicle trading): SSD for object
  detection, MobileNet for license recognition and ResNet-50 for
  vehicle classification; latency SLO 200 ms.
* **Q&A robot**: TextCNN-69, LSTM-2365 and DSSM-2389 for understanding
  questions and matching answers; latency SLO 50 ms.

Both cap batchsizes at 32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.function import FunctionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workflows.spec import WorkflowSpec


@dataclass(frozen=True)
class Application:
    """A bundle of inference functions sharing an SLO and a workload.

    Attributes:
        name: application label.
        functions: member functions.
        shares: fraction of the application's traffic that each
            function receives (parallel to ``functions``; sums to 1).
    """

    name: str
    functions: Sequence[FunctionSpec]
    shares: Sequence[float] = field(default=())

    def __post_init__(self) -> None:
        if not self.functions:
            raise ValueError("an application needs at least one function")
        shares = tuple(self.shares) or tuple(
            1.0 / len(self.functions) for _ in self.functions
        )
        if len(shares) != len(self.functions):
            raise ValueError("shares must parallel functions")
        if any(share <= 0 for share in shares):
            raise ValueError("shares must be positive")
        total = sum(shares)
        object.__setattr__(
            self, "shares", tuple(share / total for share in shares)
        )

    @property
    def slo_s(self) -> float:
        return self.functions[0].slo_s

    def rps_split(self, total_rps: float) -> Dict[str, float]:
        """Per-function RPS when the app receives ``total_rps``."""
        return {
            fn.name: total_rps * share
            for fn, share in zip(self.functions, self.shares)
        }

    def function_names(self) -> List[str]:
        return [fn.name for fn in self.functions]

    # ------------------------------------------------------------------
    # pipeline view (the paper's section 7 function chains)
    # ------------------------------------------------------------------
    @property
    def entry_function(self) -> FunctionSpec:
        """The first stage when the application runs as a pipeline."""
        return self.functions[0]

    def as_chain_stages(self) -> List[FunctionSpec]:
        """Stage functions with the end-to-end SLO split across stages.

        Each stage's batching deadline must consume only its share of
        the latency budget, otherwise three stages each waiting up to
        ``slo - t_exec`` blow the end-to-end target.  The split is
        uniform; deploy these (instead of ``functions``) when running
        the application as a pipeline with its own stage functions.
        """
        per_stage = self.slo_s / len(self.functions)
        return [
            FunctionSpec(name=fn.name, model=fn.model, slo_s=per_stage)
            for fn in self.functions
        ]

    def as_workflow(self) -> "WorkflowSpec":
        """The application as a linear :class:`WorkflowSpec`.

        Consecutive stages -- e.g. OSVT runs object detection, then
        license recognition, then vehicle classification on each
        request -- with the end-to-end SLO carried on the workflow
        itself.
        """
        from repro.workflows.spec import WorkflowSpec

        return WorkflowSpec.linear(
            name=self.name,
            stages=[(fn.name, fn.model.name) for fn in self.functions],
            end_to_end_slo_s=self.slo_s,
        )


def build_osvt(slo_s: float = 0.200, prefix: str = "osvt") -> Application:
    """The online secondhand vehicle trading application."""
    functions = [
        FunctionSpec.for_model("ssd", slo_s, name=f"{prefix}-ssd"),
        FunctionSpec.for_model("mobilenet", slo_s, name=f"{prefix}-mobilenet"),
        FunctionSpec.for_model("resnet-50", slo_s, name=f"{prefix}-resnet-50"),
    ]
    return Application(name=prefix, functions=functions)


def build_qa_robot(slo_s: float = 0.050, prefix: str = "qa") -> Application:
    """The Q&A robot application."""
    functions = [
        FunctionSpec.for_model("textcnn-69", slo_s, name=f"{prefix}-textcnn-69"),
        FunctionSpec.for_model("lstm-2365", slo_s, name=f"{prefix}-lstm-2365"),
        FunctionSpec.for_model("dssm-2389", slo_s, name=f"{prefix}-dssm-2389"),
    ]
    return Application(name=prefix, functions=functions)
