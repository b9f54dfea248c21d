#!/usr/bin/env python
"""Inference function chains: the paper's section 7 future work.

Runs the OSVT application as a *pipeline* workflow -- every request
flows through object detection (SSD), then license recognition
(MobileNet), then vehicle classification (ResNet-50) -- with an
end-to-end 400 ms SLO.  Each stage batches independently under
INFless's rate control, and the report shows how the latency budget
splits across stages.

Run:
    python examples/function_chain.py
"""

from collections import defaultdict

from repro import (
    GroundTruthExecutor,
    INFlessEngine,
    ServingSimulation,
    build_osvt,
    build_testbed_cluster,
    constant_trace,
)
from repro.profiling import build_default_predictor


def main() -> None:
    predictor = build_default_predictor()
    engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
    app = build_osvt(slo_s=0.400)  # end-to-end budget for three stages
    for function in app.as_chain_stages():  # per-stage SLO split
        engine.deploy(function)

    print("OSVT as a pipeline:", " -> ".join(app.function_names()))
    print(f"end-to-end SLO: {app.slo_s * 1e3:.0f} ms\n")

    simulation = ServingSimulation(
        platform=engine,
        executor=GroundTruthExecutor(),
        workload={app.entry_function.name: constant_trace(150.0, 180.0)},
        workflow=app.as_workflow(),
        warmup_s=30.0,
        seed=13,
    )
    report = simulation.run()

    print(f"requests completed : {report.completed}")
    print(f"end-to-end mean    : {report.latency_mean_s * 1e3:7.1f} ms")
    print(f"end-to-end p99     : {report.latency_p99_s * 1e3:7.1f} ms")
    print(f"SLO violations     : {report.violation_rate:7.2%}")
    print(f"drops              : {report.drop_rate:7.2%}\n")

    print("per-stage provisioning:")
    for function in app.functions:
        configs = defaultdict(int)
        for instance in engine.instances(function.name):
            configs[str(instance.config)] += 1
        print(f"  {function.name:18s} {dict(configs)}")


if __name__ == "__main__":
    main()
