"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload osvt_bursty --seed 1 \
        --seconds 10 --trace 0

The measurement runs in :data:`CHILDREN` fresh, single-threaded child
processes, one after another.  Each child imports the simulator and
sets the workload up once -- the set-up a user pays on every fresh
``simulate`` -- then runs the workload repeatedly on fresh experiments
until its share of ``--seconds`` is spent (at least :data:`MIN_RUNS`
times).  The metrics are medians: of the set-ups and peak resident
memories (VmHWM, per child) and of all timed runs.

Every run of one invocation uses the same inputs, so every one must
produce the same digest of simulated statistics.  Discrete-event
workloads also get one untimed ``invariants="strict"`` run, and
``--trace 1`` adds one traced child; both must match that digest too.
A run that raises, breaks a conservation check or disagrees on the
digest counts as failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of the traced run (see NOTES.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: child processes per invocation; each pays one set-up.
CHILDREN = 3
#: timed runs per child, whatever ``--seconds`` says.
MIN_RUNS = 1
#: a child that runs longer than this has hung.
CHILD_TIMEOUT_S = 150.0
#: how far the layers' self times may miss the traced run time.
ATTRIBUTED_SLACK_PCT = 3.0
#: where the traced run writes its spans.
SPAN_DIR = ROOT / ".perfbench"
#: per-layer metrics that are legitimately absent on some workloads:
#: the profiling time of GPU generations the workload does not use.
UNUSED_ZERO = ("profiling.cop_build_s.",)


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def child(args: argparse.Namespace, started: float) -> dict:
    """Set up once, then time runs until ``args.budget`` is spent."""
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.child == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    import repro  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    prepared = workload.setup(args.seed)
    setup_s = time.perf_counter() - started
    setup_parts = prepared.parts_s
    run = workload.run
    if tracer is not None:
        tracer.reset()
        run = tracer.root(run)
    runs = []
    outcomes = []
    while True:
        began = time.perf_counter()
        outcome = run(prepared)
        runs.append(time.perf_counter() - began)
        outcomes.append(outcome)
        if tracer is not None or (
            len(runs) >= MIN_RUNS and sum(runs) >= args.budget
        ):
            break
        # Later runs reuse the profiled predictor: set-up is cheap now.
        gc.collect()
        prepared = workload.setup(args.seed)
    rss_mb = peak_rss_mb()
    if args.strict:
        # Untimed, after the peak-memory reading.
        outcomes.append(
            workload.run(workload.setup(args.seed, invariants="strict"))
        )
    result = {
        "setup_s": setup_s,
        "run_s": runs,
        "work": outcome.work,
        "peak_rss_mb": rss_mb,
        "outcome": outcome.metrics,
        "digests": [o.digest for o in outcomes],
        "errors": [error for o in outcomes for error in o.errors],
        "schedule_ms": outcome.schedule_ms,
        "setup_parts": setup_parts,
    }
    if tracer is not None:
        tracer.uninstall()
        from layers import layer_metrics

        layers = layer_metrics(tracer, runs[0], outcome, prepared)
        # Self-check: the layers' self times partition the traced run.
        if abs(layers["trace.attributed_pct"] - 100.0) > ATTRIBUTED_SLACK_PCT:
            result["errors"].append(
                "layer self times cover"
                f" {layers['trace.attributed_pct']:.1f}% of the traced run"
            )
        result["layers"] = layers
        tracer.write(SPAN_DIR / args.workload)
    return result


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def spawn(args: argparse.Namespace, mode: str, budget: float = 0.0,
          strict: bool = False) -> dict:
    """Run one child to completion; its last stdout line is its result."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--child", mode, "--budget", repr(budget),
    ] + (["--strict"] if strict else [])
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"{mode} child timed out"], "digests": []}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {
            "errors": [f"{mode} child exited {proc.returncode}: {tail[0]}"],
            "digests": [],
        }
    return json.loads(lines[-1])


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def parent(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    des = WORKLOADS[args.workload].des
    children = [
        spawn(args, "timed", args.seconds / CHILDREN, strict=des and not i)
        for i in range(CHILDREN)
    ]
    traced = spawn(args, "traced") if args.trace else None
    everyone = children + ([traced] if traced is not None else [])

    # One attempt per simulated run; a crashed child counts as one.
    attempted = sum(max(1, len(c["digests"])) for c in everyone)
    failed = sum(max(1, len(c["digests"])) for c in everyone if c["errors"])
    for c in everyone:
        for error in c["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
    digests = {d for c in everyone if not c["errors"] for d in c["digests"]}
    if len(digests) > 1:
        print(f"simulated statistics differ: {sorted(digests)}", file=sys.stderr)
        failed += 1
    timed = [c for c in children if not c["errors"]]
    if not timed or (traced is not None and traced["errors"]):
        print("no result: a required child failed", file=sys.stderr)
        return 1

    run_s = [seconds for c in timed for seconds in c["run_s"]]
    outcome = timed[0]["outcome"]
    if args.trace:
        produced = dict(traced["layers"])
        produced.update(traced["setup_parts"])
        produced["trace.overhead_pct"] = 100.0 * (
            traced["run_s"][0] / statistics.median(run_s) - 1.0
        )
        fill = [c["schedule_ms"] for c in timed if c["schedule_ms"]]
        for name, q in (("p50", 0.50), ("p99", 0.99)):
            produced[f"core.scheduler.schedule_ms_{name}"] = (
                statistics.median(quantile(ms, q) for ms in fill)
                if fill else 0.0
            )
        for key, value in outcome.items():
            produced[f"outcome.{key}"] = value
        section = "per_layer"
    else:
        work = timed[0]["work"]
        produced = {
            "setup_s": statistics.median(c["setup_s"] for c in timed),
            "run_s": statistics.median(run_s),
            "work_per_s": statistics.median(work / s for s in run_s),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
            **outcome,
        }
        section = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name in produced:
            value = produced[name]
        elif name.startswith(UNUSED_ZERO):
            value = 0.0
        else:
            raise KeyError(f"{args.workload} produced no metric {name!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: how the parent starts its children.
    parser.add_argument("--child", choices=("timed", "traced"))
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--strict", action="store_true")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"simulator sources not found under {SRC}; run from a full"
            " checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(HERE))
    if args.child:
        print(json.dumps(child(args, started)))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
