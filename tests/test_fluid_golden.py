"""Byte-for-byte golden for the fluid and hybrid engines.

``tests/data/golden_fluid_report.json`` pins three seeded Fig. 12 runs
(see ``tests/fluid_golden.py``).  The file is compared as text, so a
change that moves any float by one ulp, reorders a histogram or shifts
a sketch bin fails here.
"""

from __future__ import annotations

from tests.fluid_golden import GOLDEN_FLUID_PATH, golden_payload, serialise


def test_fluid_reports_match_golden_byte_for_byte():
    assert GOLDEN_FLUID_PATH.exists(), (
        f"{GOLDEN_FLUID_PATH} missing; regenerate with"
        " `PYTHONPATH=src python -m tests.fluid_golden --write`"
    )
    golden = GOLDEN_FLUID_PATH.read_text(encoding="utf-8")
    current = serialise(golden_payload())
    assert current == golden, (
        "the fluid golden diverged -- a change altered the fluid flow or"
        " latency model (emission order, float folding, sketch binning);"
        " regenerate only if that change is deliberate"
    )
