"""Differential test: the one-pass latency emission vs a per-atom loop.

``FunctionFluid._record_latency`` builds each tick's latency atoms in
numpy and folds them into the running sums and the sketch in one pass.
:func:`reference_record_latency` below is the per-atom Python loop it
replaced, kept verbatim as the oracle: one call per atom, scalar
``math`` arithmetic, one ``QuantileSketch.add`` per non-zero count.
Both are driven through the same ticks and compared with ``==`` --
the four running sums, the histograms, the sketch carry and the
sketch's serialised bytes -- with every warning raised as an error.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Dict, List, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FunctionSpec
from repro.fluid.model import (
    FILL_ATOMS,
    FILL_Z_ATOMS,
    NOISE_ATOMS,
    ConfigRow,
    FunctionFluid,
)


# ----------------------------------------------------------------------
# the per-atom reference
# ----------------------------------------------------------------------
def _erlang_quantile(k: float, rate: float, z: float) -> float:
    if k <= 0.0 or rate <= 0.0:
        return 0.0
    c = 1.0 - 1.0 / (9.0 * k) + z * math.sqrt(1.0 / (9.0 * k))
    if c <= 0.0:
        return 0.0
    return (k / rate) * c * c * c


def _emit_atoms(fluid, row, base_wait, fill, mass) -> None:
    slo = fluid.function.slo_s
    sigma = fluid.noise_sigma
    wait = base_wait + fill
    for z, weight in NOISE_ATOMS:
        exec_s = row.t_exec_actual * math.exp(sigma * z)
        latency = wait + exec_s
        atom = mass * weight
        fluid.latency_sum += atom * latency
        fluid.queue_wait_sum += atom * wait
        fluid.exec_sum += atom * exec_s
        if latency > slo + 1e-9:
            fluid.violations_kept += atom
        scaled = atom + fluid._sketch_carry
        count = int(scaled)
        fluid._sketch_carry = scaled - count
        if count:
            fluid.sketch.add(latency, count)


def _emit_fill_atoms(fluid, row, lam_inst, mass) -> None:
    batch = row.batch
    if batch <= 1 or lam_inst <= 0.0:
        fill = row.timeout_s if batch > 1 else 0.0
        _emit_atoms(fluid, row, 0.0, fill, mass)
        return
    strata = min(batch, FILL_ATOMS)
    for s in range(strata):
        if batch <= FILL_ATOMS:
            j = float(s + 1)
        else:
            j = 1 + (batch - 1) * (s + 0.5) / strata
        k = batch - j
        stratum_mass = mass / strata
        if k <= 1e-9:
            _emit_atoms(fluid, row, 0.0, 0.0, stratum_mass)
            continue
        cap = max(0.0, row.timeout_s - (j - 1.0) / lam_inst)
        for z, weight in FILL_Z_ATOMS:
            fill = min(_erlang_quantile(k, lam_inst, z), cap)
            _emit_atoms(fluid, row, 0.0, fill, stratum_mass * weight)


def reference_record_latency(fluid, served, pieces, lam) -> None:
    """The per-atom ``_record_latency`` the one-pass emission replaced."""
    capacity = fluid.capacity_rps
    if capacity <= 0.0 or not fluid.active:
        return
    groups: Dict[Tuple[int, int, int], Tuple[ConfigRow, int]] = {}
    for row in fluid.active:
        key = row.key
        prev = groups.get(key)
        groups[key] = (row, 1 if prev is None else prev[1] + 1)
    for key in sorted(groups):
        row, count = groups[key]
        share = row.r_up * count / capacity
        group_served = served * share
        if group_served <= 0.0:
            continue
        lam_fill = lam * row.r_up / capacity
        fluid.batch_hist[row.batch] = (
            fluid.batch_hist.get(row.batch, 0.0) + group_served
        )
        fluid.config_hist[key] = fluid.config_hist.get(key, 0.0) + group_served
        fluid.batches_served += group_served / row.batch
        for backlog_wait, piece_mass in pieces:
            mass = piece_mass * share
            if mass <= 0.0:
                continue
            if backlog_wait > 1e-9:
                _emit_atoms(fluid, row, backlog_wait, 0.0, mass)
            else:
                _emit_fill_atoms(fluid, row, lam_fill, mass)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
Tick = Tuple[float, List[Tuple[float, float]], float]  # served, pieces, lam


def make_row(batch: int, cpu: int, *, t_exec: float = 0.05,
             r_up: float = 100.0, timeout_s: float = 0.1) -> ConfigRow:
    return ConfigRow(
        batch=batch, cpu=cpu, gpu=10, t_exec_pred=t_exec,
        t_exec_actual=t_exec, r_low=0.0, r_up=r_up,
        weighted_cost=float(cpu), timeout_s=timeout_s,
    )


def make_fluid(active: Sequence[ConfigRow], *, slo_s: float = 0.2,
               noise_sigma: float = 0.1,
               subbuckets: int = 256) -> FunctionFluid:
    fluid = FunctionFluid(
        FunctionSpec.for_model("resnet-50", slo_s=slo_s),
        trace=None,
        ladder=None,
        ewma=0.5,
        keepalive_s=60.0,
        pending_cap=1_000_000,
        warmup_s=0.0,
        noise_sigma=noise_sigma,
        sketch_subbuckets=subbuckets,
    )
    fluid.active = list(active)
    return fluid


def state(fluid: FunctionFluid) -> Dict[str, object]:
    return {
        "latency_sum": fluid.latency_sum,
        "queue_wait_sum": fluid.queue_wait_sum,
        "exec_sum": fluid.exec_sum,
        "violations_kept": fluid.violations_kept,
        "sketch_carry": fluid._sketch_carry,
        "batch_hist": fluid.batch_hist,
        "config_hist": fluid.config_hist,
        "batches_served": fluid.batches_served,
        "sketch": json.dumps(fluid.sketch.to_dict(), sort_keys=True),
    }


def assert_same_emission(active, ticks: Sequence[Tick], **kwargs) -> None:
    reference = make_fluid(active, **kwargs)
    vectorised = make_fluid(active, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for served, pieces, lam in ticks:
            reference_record_latency(reference, served, pieces, lam)
            vectorised._record_latency(served, pieces, lam)
            # == on floats: bit-identical (no NaNs arise here).
            assert state(vectorised) == state(reference)


# ----------------------------------------------------------------------
# named cases
# ----------------------------------------------------------------------
B1 = make_row(1, 1, t_exec=0.02, r_up=40.0, timeout_s=0.0)
B4 = make_row(4, 2, t_exec=0.04, r_up=90.0, timeout_s=0.12)
B8 = make_row(8, 3, t_exec=0.06, r_up=130.0, timeout_s=0.09)
B32 = make_row(32, 4, t_exec=0.11, r_up=280.0, timeout_s=0.07)


class TestNamedCases:
    def test_batch_one(self):
        assert_same_emission([B1], [(30.0, [(0.0, 30.0)], 35.0)])

    def test_batch_within_fill_atoms(self):
        assert_same_emission([B4], [(80.0, [(0.0, 80.0)], 85.0)])
        assert_same_emission([B8], [(120.0, [(0.0, 120.0)], 125.0)])

    def test_batch_above_fill_atoms(self):
        assert_same_emission([B32], [(250.0, [(0.0, 250.0)], 260.0)])

    def test_no_arrivals_fill_to_the_timeout(self):
        # lam_inst == 0: served mass drains with no fresh arrivals.
        assert_same_emission([B8, B32], [(90.0, [(0.0, 90.0)], 0.0)])

    def test_backlog_pieces(self):
        pieces = [(0.35, 40.0), (0.12, 25.0), (1e-10, 3.0), (0.0, 60.0)]
        assert_same_emission([B4, B32], [(128.0, pieces, 300.0)])

    def test_several_groups_and_repeated_rows(self):
        active = [B32, B1, B8, B32, B4, B8, B32]
        pieces = [(0.2, 150.0), (0.0, 400.0)]
        assert_same_emission(active, [(550.0, pieces, 700.0)])

    def test_zero_mass_pieces_and_no_service(self):
        assert_same_emission(
            [B8, B4],
            [(0.0, [(0.0, 10.0)], 50.0), (40.0, [(0.0, 0.0), (0.3, 0.0)], 50.0)],
        )

    def test_carry_across_ticks(self):
        # Small masses keep most atoms below one count, so the carry
        # does the work and must thread through every tick in order.
        ticks = [
            (0.37 * (i + 1), [(0.0, 0.37 * (i + 1))], 3.0 + i)
            for i in range(6)
        ] + [(2.5, [(0.4, 1.5), (0.0, 1.0)], 2.0)]
        assert_same_emission([B8, B32], ticks)

    def test_violations_counted(self):
        # A tight SLO puts part of every pattern over the line.
        assert_same_emission(
            [B8, B32], [(300.0, [(0.05, 100.0), (0.0, 200.0)], 400.0)],
            slo_s=0.12,
        )


# ----------------------------------------------------------------------
# property: arbitrary rows, ticks and carries
# ----------------------------------------------------------------------
BATCHES = st.one_of(
    st.sampled_from([1, 2, 3, 4, 7, 8, 9, 12, 16, 32]),
    st.integers(1, 64),
)


@st.composite
def row_pools(draw):
    size = draw(st.integers(1, 4))
    pool = [
        make_row(
            draw(BATCHES),
            cpu + 1,  # distinct keys, as one function's ladder has
            t_exec=draw(st.floats(1e-3, 0.3)),
            r_up=draw(st.floats(0.5, 2000.0)),
            timeout_s=draw(st.floats(0.0, 0.3)),
        )
        for cpu in range(size)
    ]
    picks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
    return [pool[i] for i in picks]


WAITS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-9),
    st.floats(1e-9, 3.0),
)
MASSES = st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(0.0, 5e3))
TICKS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 5e3)),
        st.lists(st.tuples(WAITS, MASSES), max_size=4),
        st.one_of(st.just(0.0), st.floats(1e-2, 1e5)),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(
    active=row_pools(),
    ticks=TICKS,
    slo_s=st.floats(0.01, 1.0),
    noise_sigma=st.floats(0.0, 0.5),
    subbuckets=st.sampled_from([1, 7, 256]),
)
@example(
    active=[B1, B8, B32, B32],
    ticks=[(400.0, [(0.3, 100.0), (0.0, 300.0)], 0.0),
           (410.0, [(0.0, 410.0)], 500.0)],
    slo_s=0.15,
    noise_sigma=0.2,
    subbuckets=7,
)
def test_one_pass_matches_per_atom_loop(
    active, ticks, slo_s, noise_sigma, subbuckets
):
    assert_same_emission(
        active, ticks, slo_s=slo_s, noise_sigma=noise_sigma,
        subbuckets=subbuckets,
    )
