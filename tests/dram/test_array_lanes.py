"""Array-scale lane batching: parity, warm starts, bisection identity.

:class:`repro.dram.runner.ArrayLaneRunner` stacks same-topology array
requests (one geometry/address/trim plan, many defect resistances) into
one batched transient, with a :class:`~repro.spice.lanes.LaneWarmBank`
carrying quasi-Newton factorizations and trajectories across successive
bisection generations.  These tests pin the contract at tier-1 speed;
the exhaustive 16×16 comparison lives in
``benchmarks/bench_array_lanes.py``.

The hypothesis sweep at the bottom is the trimmed-vs-full sensed-bit
property the trim layer documents: for any geometry, accessed address,
and defect kind, activation/retention cycles must sense the same bits
with and without the active-window trim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.column import DEFECT_KINDS, DefectSite
from repro.dram.runner import ArrayLaneRunner, ArrayRunner
from repro.engine import BatchExecutor
from repro.experiments.array import activation_disturb_br
from repro.spice.errors import NetlistError
from repro.stress import NOMINAL_STRESS

#: The documented lane-vs-serial tolerance (DESIGN.md sections 5d/5h).
LANE_TOL = 1e-5

RESISTANCES = (1e4, 3e5, 1e7)
VDD = NOMINAL_STRESS.vdd


def _serial_reference(kind, cell, resistances, ops, *, geometry, trim):
    out = []
    for r in resistances:
        runner = ArrayRunner(defect=DefectSite(kind, cell, r),
                             geometry=geometry, trim=trim, record=True)
        out.append(runner.run_sequence(ops, init_vc=VDD))
    return out


class TestArrayLaneParity:
    @pytest.mark.parametrize("kind", DEFECT_KINDS)
    def test_lanes_match_serial_within_tolerance(self, kind):
        runner = ArrayLaneRunner(defect_kind=kind, cell=5,
                                 geometry=(4, 4), trim="off", record=True)
        rows, counters = runner.run_sequences(
            "r", [(r, VDD) for r in RESISTANCES])
        assert counters["lanes_isolated"] == 0
        legacy = _serial_reference(kind, 5, RESISTANCES, "r",
                                   geometry=(4, 4), trim="off")
        for row, ref in zip(rows, legacy):
            assert row is not None
            for a, b in zip(row.results, ref.results):
                assert np.abs(a.vc - b.vc).max() <= LANE_TOL
                assert np.abs(a.extra["bl"]
                              - b.extra["bl"]).max() <= LANE_TOL
                assert a.sensed == b.sensed

    def test_trimmed_lanes_match_serial(self):
        runner = ArrayLaneRunner(defect_kind="open_sn", cell=5,
                                 geometry=(4, 4), trim="force",
                                 record=True)
        rows, _ = runner.run_sequences(
            "nop r", [(r, VDD) for r in RESISTANCES])
        legacy = _serial_reference("open_sn", 5, RESISTANCES, "nop r",
                                   geometry=(4, 4), trim="force")
        for row, ref in zip(rows, legacy):
            for a, b in zip(row.results, ref.results):
                assert abs(a.vc_end - b.vc_end) <= LANE_TOL
                assert a.sensed == b.sensed

    def test_writes_rejected(self):
        runner = ArrayLaneRunner(geometry=(4, 4))
        with pytest.raises(NetlistError):
            runner.run_sequences("w1 r1", [(2e5, 0.0)])

    def test_serial_cell_override_rejected(self):
        """The shared serial driver's ``cell`` override is column-only:
        an array cycle always accesses the runner's address."""
        runner = ArrayRunner(geometry=(4, 4))
        with pytest.raises(NetlistError):
            runner.run_op("r", runner.idle_state(VDD), cell=3)


class TestWarmStarts:
    def test_second_generation_hits_the_bank(self):
        """A bisection's second generation warm-starts from the first
        one's converged neighbours — and stays on the serial answer."""
        runner = ArrayLaneRunner(defect_kind="open_sn", cell=5,
                                 geometry=(4, 4), trim="off")
        _, first = runner.run_sequences("r", [(1e4, VDD), (1e7, VDD)])
        assert first["lane_warm_start_hits"] == 0
        rows, second = runner.run_sequences("r", [(1e5, VDD), (1e6, VDD)])
        assert second["lane_warm_start_hits"] > 0
        legacy = _serial_reference("open_sn", 5, (1e5, 1e6), "r",
                                   geometry=(4, 4), trim="off")
        for row, ref in zip(rows, legacy):
            got = row.results[-1].vc_end
            assert abs(got - ref.results[-1].vc_end) <= LANE_TOL

    def test_stress_change_clears_the_bank(self):
        from repro.stress import StressConditions
        runner = ArrayLaneRunner(defect_kind="open_sn", cell=5,
                                 geometry=(4, 4), trim="off")
        runner.run_sequences("r", [(1e4, VDD), (1e7, VDD)])
        hot = NOMINAL_STRESS
        runner.set_stress(StressConditions(
            vdd=hot.vdd, tcyc=hot.tcyc, temp_c=hot.temp_c + 30.0))
        _, counters = runner.run_sequences("r", [(1e5, VDD)])
        assert counters["lane_warm_start_hits"] == 0


class TestBisectionIdentity:
    def test_batched_br_equals_serial_br(self):
        """The speculative lane-batched bisection consumes bitwise the
        serial loop's probes, so the border is exactly equal."""
        borders = {}
        for lanes in (0, 8):
            engine = BatchExecutor(cache=None, lanes=lanes)
            borders[lanes] = activation_disturb_br(
                "open_sn", geometry=(4, 4), cell=5, trim="off",
                engine=engine, rel_tol=0.05)
            if lanes:
                assert engine.stats.lane_groups > 0
        assert borders[8] == borders[0]


class TestTrimmedSensedParity:
    @given(rows=st.integers(3, 5), cols=st.integers(3, 5),
           kind=st.sampled_from(DEFECT_KINDS),
           ops=st.sampled_from(["r", "nop r"]),
           exp=st.sampled_from([4.0, 7.0]),
           data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_trimmed_vs_full_sensed_bits(self, rows, cols, kind, ops,
                                         exp, data):
        """Property: the active-window trim never flips a sensed bit,
        for any geometry, accessed address, and defect kind."""
        row = data.draw(st.integers(0, rows - 1), label="row")
        col = data.draw(st.integers(0, cols - 1), label="col")
        cell = data.draw(st.integers(0, rows * cols - 1), label="cell")
        defect = DefectSite(kind, cell, 10.0 ** exp)
        sensed = {}
        for policy in ("off", "force"):
            runner = ArrayRunner(defect=defect, geometry=(rows, cols),
                                 address=(row, col), trim=policy)
            res = runner.run_sequence(ops, init_vc=VDD)
            sensed[policy] = [r.sensed for r in res.results]
        assert sensed["off"] == sensed["force"]
