"""The seeded golden scenarios pinning the fluid engine's exact output.

Companion to ``tests/golden_scenarios.py`` (DES platforms) for the
fluid and hybrid engines: three Fig. 12 runs, full float precision,
compared byte for byte by ``tests/test_fluid_golden.py``.

* ``fluid_fig12`` -- the reduced Fig. 12 operating point (300 rps,
  60 s) through the pure fluid engine;
* ``hybrid_fig12`` -- the same configuration with the hottest function
  simulated discretely (``hot_k=1``);
* ``fluid_fig12_heavy`` -- 12,000 rps, where the greedy ladder launches
  every batch size from 1 to 32 (so batches above ``FILL_ATOMS`` fill
  through midpoint-sampled strata) and cold starts leave standing
  backlog that is served with a non-zero FIFO wait.

A divergence means a change altered the fluid flow or latency model
(emission order, float folding, sketch binning), not just its speed.
Regenerate only for a deliberate behaviour change, and say so in the
commit message::

    PYTHONPATH=src python -m tests.fluid_golden --write
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

GOLDEN_FLUID_PATH = Path(__file__).parent / "data" / "golden_fluid_report.json"


def _report(mean_rps: float, **kwargs) -> Dict:
    from repro.fluid.validate import fig12_experiment

    report = fig12_experiment(mean_rps, 60.0, **kwargs).run().to_dict()
    # Wall-clock field, as in the DES goldens.
    report.pop("scheduling_overhead_s", None)
    return report


def golden_payload() -> Dict[str, Dict]:
    """Every pinned fluid/hybrid report, keyed by scenario name."""
    return {
        "fluid_fig12": _report(300.0, engine="fluid"),
        "hybrid_fig12": _report(300.0, engine="hybrid", hot_k=1),
        "fluid_fig12_heavy": _report(12000.0, engine="fluid"),
    }


def serialise(payload: Dict[str, Dict]) -> str:
    """The exact text the golden file holds."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main() -> None:
    """Regenerate the golden fluid fixture file."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", action="store_true",
        help="overwrite tests/data/golden_fluid_report.json",
    )
    args = parser.parse_args()
    text = serialise(golden_payload())
    if args.write:
        GOLDEN_FLUID_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_FLUID_PATH.write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN_FLUID_PATH}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
