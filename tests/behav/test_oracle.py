"""Behavioral column vs. its per-sub-step reference oracle: bit for bit.

The production model resolves the technology, stress and defect once per
sequence and integrates on local floats; :mod:`tests.behav.oracle`
re-derives everything on every 0.5 ns sub-step.  Both perform the same
float operations in the same order, so every cell voltage must carry the
same IEEE-754 bits — including the NaN the unstable low-R shorts reach.
"""

import math
import struct

from hypothesis import example, given, settings, strategies as st

from repro.behav import BehavioralColumn
from repro.defects import Defect, DefectKind
from repro.diagnostics import reset_diagnostics
from repro.dram.column import DEFECT_KINDS, DefectSite
from repro.stress import StressConditions
from tests.behav.oracle import OracleColumn

_OPS = ("w0", "w1", "r", "r0", "r1", "nop")


def _bits(x: float) -> str:
    """The double's raw bits, so a NaN only equals a NaN of equal bits."""
    return struct.pack("<d", x).hex()


def _pair(kind, cell, resistance, stress):
    site = DefectSite(kind, cell, resistance)
    return (OracleColumn(stress=stress, defect=site, target_cell=cell),
            BehavioralColumn(stress=stress, defect=site, target_cell=cell))


def _assert_same(ref, new):
    assert [(_bits(r.vc_end), r.sensed) for r in ref] \
        == [(_bits(r.vc_end), r.sensed) for r in new]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(DEFECT_KINDS),
       cell=st.integers(0, 3),
       log_r=st.floats(2.0, 9.0),
       temp_c=st.floats(-40.0, 125.0),
       vdd=st.floats(1.8, 3.0),
       tcyc=st.floats(30e-9, 100e-9),
       init_frac=st.floats(0.0, 1.0),
       ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=5))
@example(kind="open_gate", cell=1, log_r=6.5, temp_c=87.0, vdd=2.7,
         tcyc=40e-9, init_frac=0.5, ops=["w1", "nop", "r"])
@example(kind="short_gnd", cell=0, log_r=3.0, temp_c=27.0, vdd=2.4,
         tcyc=60e-9, init_frac=0.0, ops=["w1", "r1"])
def test_bitwise_equal_to_oracle(kind, cell, log_r, temp_c, vdd, tcyc,
                                 init_frac, ops):
    stress = StressConditions(tcyc=tcyc, temp_c=temp_c, vdd=vdd)
    init_vc = init_frac * vdd
    ref, new = _pair(kind, cell, 10.0 ** log_r, stress)
    _assert_same(ref.run_sequence(ops, init_vc).results,
                 new.run_sequence(ops, init_vc).results)
    # The op-by-op path (march runner) chains the same state dict.
    ref_state, new_state = ref.idle_state(init_vc), new.idle_state(init_vc)
    assert ref_state == new_state
    ref_res = [ref.run_op(op, ref_state)[0] for op in ops]
    new_res = [new.run_op(op, new_state)[0] for op in ops]
    _assert_same(ref_res, new_res)


def test_unstable_short_is_nan_in_both_and_counted():
    """Forward Euler is unstable below dt / (2 Cs) ~ 2.1 kOhm: the charge
    share overflows to NaN, the read senses 0, and the sequence is
    counted in the run diagnostics (values deliberately unchanged)."""
    site = Defect(DefectKind.SG, resistance=1e3).site()
    diag = reset_diagnostics()
    model = BehavioralColumn(defect=site)
    seq = model.run_sequence("w1 r1", init_vc=0.0)
    ref = OracleColumn(defect=site).run_sequence("w1 r1", init_vc=0.0)
    assert math.isnan(seq.results[-1].vc_end)
    assert seq.results[-1].sensed == 0
    _assert_same(ref.results, seq.results)
    assert diag.nonfinite_sequences == 1
    assert not diag.eventful
    model.set_defect_resistance(1e4)
    model.run_sequence("w1 r1", init_vc=0.0)
    assert diag.nonfinite_sequences == 1
    reset_diagnostics()
