"""The capability table is the oracle for every engine x platform x feature.

Each cell is either supported -- a short run completes under strict
invariants and honours the setting -- or refused when the experiment
is constructed, with exactly the table's reason.
"""

import re
from pathlib import Path

import pytest

from repro.api import Experiment
from repro.api.capabilities import (
    ENGINES,
    FEATURES,
    PLATFORM_CLASSES,
    RULES,
    check_supported,
    rejection,
    render_markdown,
)
from repro.baselines.openfaas import OpenFaaSPlus
from repro.campaign import CampaignSpec
from repro.cluster import build_testbed_cluster
from repro.cluster.fleet import FleetSpec
from repro.core import INFlessEngine
from repro.core.function import FunctionSpec
from repro.llm.engine import ContinuousBatchingLLM
from repro.workloads.generators import constant_trace

DURATION_S = 6.0
FLEET = FleetSpec.homogeneous(2)
OWN_SERVERS = 3

#: case -> (capability classes, is autoregressive, platform builder).
#: Pre-built objects sit on OWN_SERVERS machines so a dropped fleet=
#: would show as the wrong server count.
PLATFORMS = {
    "infless": (("infless",), False, lambda p: "infless"),
    "openfaas+": (("baseline",), False, lambda p: "openfaas+"),
    "batch": (("baseline",), False, lambda p: "batch"),
    "batch+rs": (("baseline",), False, lambda p: "batch+rs"),
    "llm": (("autoregressive",), True, lambda p: "llm"),
    "llm-static": (("autoregressive",), True, lambda p: "llm-static"),
    "llm-fcfs": (("autoregressive",), True, lambda p: "llm-fcfs"),
    "object-infless": (
        ("object", "infless"), False,
        lambda p: INFlessEngine(build_testbed_cluster(OWN_SERVERS), predictor=p),
    ),
    "object-baseline": (
        ("object", "baseline"), False,
        lambda p: OpenFaaSPlus(build_testbed_cluster(OWN_SERVERS), p),
    ),
    "object-llm": (
        ("object", "autoregressive"), True,
        lambda p: ContinuousBatchingLLM(build_testbed_cluster(OWN_SERVERS)),
    ),
    "factory-infless": (
        ("factory", "infless"), False,
        lambda p: (lambda cluster: INFlessEngine(cluster, predictor=p)),
    ),
    "factory-llm": (
        ("factory", "autoregressive"), True,
        lambda p: (lambda cluster: ContinuousBatchingLLM(cluster)),
    ),
}

#: one setting per feature that puts it in use.
SETTINGS = {
    "workflow": {"workflow": "osvt"},
    "faults": {"faults": {"events": [
        {"kind": "server_crash", "at_s": 3.0, "server_id": 0},
    ]}},
    "resilience": {"resilience": True},
    "telemetry": {"telemetry": True},
    "timeline": {"timeline": True},
    "windowed": {"arrival_mode": "windowed"},
    "sketch": {"metrics_mode": "sketch"},
    "fleet": {"fleet": FLEET.to_dict()},
    "coldstart": {"coldstart": "swap"},
    "autoscaler": {"autoscaler": "hybrid"},
    "platform_options": {"platform_options": {"seed": 7}},
    "hot_k": {"hot_k": 2},
}


def test_settings_cover_every_feature():
    assert set(SETTINGS) == set(FEATURES)


def _kwargs(autoregressive, feature):
    if autoregressive:
        function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
        rps = 5.0
    else:
        function = FunctionSpec.for_model("mnist", slo_s=0.1)
        rps = 50.0
    kwargs = {
        "functions": [function],
        "workload": {function.name: constant_trace(rps, DURATION_S)},
    }
    if feature == "workflow":
        kwargs = {"workload": {"osvt-ssd": constant_trace(rps, DURATION_S)}}
    if feature is not None:
        kwargs.update(SETTINGS[feature])
    return kwargs


@pytest.mark.parametrize("feature", [None, *FEATURES])
@pytest.mark.parametrize("case", list(PLATFORMS))
@pytest.mark.parametrize("engine", ENGINES)
def test_every_cell_runs_or_is_refused_with_the_tables_reason(
    engine, case, feature, predictor
):
    classes, autoregressive, build = PLATFORMS[case]
    in_use = () if feature is None else (feature,)
    # A factory's product class is known only once it has run.
    factory = classes[0] == "factory"
    refused_now = rejection(engine, classes[:1] if factory else classes, in_use)
    refused_later = rejection(engine, classes[1:], in_use) if factory else None

    def construct():
        return Experiment(
            platform=build(predictor),
            engine=engine,
            predictor=predictor,
            invariants="strict",
            seed=1,
            **_kwargs(autoregressive, feature),
        )

    if refused_now is not None:
        with pytest.raises(ValueError) as refused:
            construct()
        assert str(refused.value) == refused_now
        return
    experiment = construct()
    if refused_later is not None:
        with pytest.raises(ValueError) as refused:
            experiment.run()
        assert str(refused.value) == refused_later
        return
    report = experiment.run()
    assert report.completed > 0
    assert not report.invariant_violations
    if feature == "timeline":
        assert len(experiment.timeline) > 0
    if feature == "telemetry":
        assert experiment.tracer.events
    if feature == "fleet":
        assert len(experiment.platform.cluster.servers) == len(
            FLEET.build_cluster().servers
        )


@pytest.mark.parametrize("extra", ["faults", "resilience"])
def test_workflow_refuses_faults_and_resilience(extra, predictor):
    expected = rejection("des", ("infless",), ("workflow", extra))
    assert expected is not None and extra in expected
    with pytest.raises(ValueError) as refused:
        Experiment(
            platform="infless",
            predictor=predictor,
            **_kwargs(False, "workflow"),
            **SETTINGS[extra],
        )
    assert str(refused.value) == expected


def test_campaign_expansion_refuses_an_unsupported_cell():
    spec = CampaignSpec.from_dict({
        "schema": 1,
        "name": "refused",
        "axes": {
            "platform": ["batch"],
            "model": ["mnist"],
            "trace": ["constant"],
            "rps": [20.0],
            "slo_ms": [100.0],
            "servers": [2],
            "coldstart": ["swap"],
        },
        "replicates": [0],
        "root_seed": 1,
        "duration_s": 5.0,
    })
    with pytest.raises(ValueError, match="INFless mechanisms"):
        spec.expand()


def test_check_supported_raises_only_for_refused_cells():
    check_supported("des", ("infless",), ("faults", "fleet", "coldstart"))
    check_supported("hybrid", ("infless",), ("sketch", "hot_k"))
    with pytest.raises(ValueError, match=re.escape(RULES[0].reason)):
        check_supported("fluid", ("baseline",), ())


def test_every_rule_refuses_some_cell():
    # A rule shadowed by earlier rules is dead table weight.
    used = set()
    for engine in ENGINES:
        for platform in PLATFORM_CLASSES:
            for features in [(), *([f] for f in FEATURES)]:
                for alongside in ((), ("workflow",)):
                    reason = rejection(
                        engine, (platform,), (*features, *alongside)
                    )
                    if reason is not None:
                        used.add(reason)
    assert used == {rule.reason for rule in RULES}


def test_architecture_doc_embeds_the_rendered_table():
    doc = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"
    text = doc.read_text(encoding="utf-8")
    match = re.search(
        r"<!-- capability-table:begin -->\n(.*?)<!-- capability-table:end -->",
        text,
        re.S,
    )
    assert match, "docs/architecture.md lost its capability-table markers"
    assert match.group(1) == render_markdown(), (
        "docs/architecture.md is stale: replace the block between the"
        " capability-table markers with"
        " repro.api.capabilities.render_markdown()"
    )
