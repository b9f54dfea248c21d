"""One-time cross-check linking the benchmark to the older bench macros.

Builds ``osvt_bursty`` and the ``fleet_provision`` sweep with the
settings of ``repro.bench``'s ``fig12_trace`` and ``fig18_largescale``
full-mode macros and checks the work counts recorded for them in
``BENCH_sim_core.json``, so numbers kept under the old names map onto
the new ones.  Run from the repository root::

    python3 perfbench/crosscheck.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

#: (what, expected, settings) as BENCH_sim_core.json records them.
FIG12_EVENTS = 115_170
FIG18_INSTANCES = 3_633


def main() -> int:
    from repro.profiling import build_default_predictor
    from workloads import osvt_experiment, sweep

    predictor = build_default_predictor()
    experiment = osvt_experiment(predictor, trace_seeds=[22], sim_seed=5)
    experiment.run()
    events = experiment.simulation.loop.processed
    results = sweep(predictor, num_servers=1000, base_rps=3000.0)
    instances = sum(r.instances for s in results.values() for _c, r in s)
    ok = True
    for label, got, want in (
        ("osvt_bursty events (fig12_trace)", events, FIG12_EVENTS),
        ("fleet_provision sweep instances (fig18_largescale)",
         instances, FIG18_INSTANCES),
    ):
        status = "ok" if got == want else "MISMATCH"
        ok &= got == want
        print(f"{label}: {got} (expected {want}) {status}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
