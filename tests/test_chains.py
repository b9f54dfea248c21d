"""Tests for the topology of inference function chains (section 7 future
work).  Chains run as linear workflows; their execution is covered in
``tests/test_workflows.py``."""

import pytest

from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.profiling import GroundTruthExecutor
from repro.simulation import ServingSimulation
from repro.workflows import WorkflowSpec, WorkflowStage
from repro.workloads import build_osvt, constant_trace


class TestChainTopology:
    def test_chain_map_is_consecutive(self):
        app = build_osvt()
        assert app.as_workflow().edges() == [
            ("osvt-ssd", "osvt-mobilenet"),
            ("osvt-mobilenet", "osvt-resnet-50"),
        ]

    def test_entry_function(self):
        app = build_osvt()
        assert app.entry_function.name == "osvt-ssd"
        assert app.as_workflow().entry == "osvt-ssd"

    def test_self_loop_rejected(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        fn = FunctionSpec.for_model("mnist", 0.1)
        engine.deploy(fn)
        with pytest.raises(ValueError, match="forwards to itself"):
            ServingSimulation(
                engine,
                GroundTruthExecutor(),
                {fn.name: constant_trace(10.0, 10.0)},
                workflow=WorkflowSpec(
                    name="loop",
                    stages=(WorkflowStage(
                        fn.name, model="mnist", downstream=(fn.name,)
                    ),),
                    end_to_end_slo_s=0.1,
                ),
            )
