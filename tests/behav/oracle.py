"""Reference oracle: the behavioral column integrated one sub-step at a time.

This is the straightforward form of :class:`repro.behav.BehavioralColumn`:
every 0.5 ns sub-step re-derives the device parameters, the leakage and
the defect's series/shunt/gate terms from the technology, the stress and
the defect.  The production model resolves those once per sequence; the
tests require both to agree bit for bit (``float.hex``), NaN included.
"""

from __future__ import annotations

import math

from repro.behav.model import BehavioralColumn
from repro.dram import timing
from repro.dram.ops import Op, Operation, OpResult, SequenceResult, parse_ops
from repro.spice.mosfet import mosfet_curves


class _Phase:
    """One integration segment of a cycle."""

    __slots__ = ("t0", "t1", "wl_high", "bl_mode", "bl_level")

    def __init__(self, t0, t1, wl_high, bl_mode, bl_level=None):
        self.t0 = t0
        self.t1 = t1
        self.wl_high = wl_high
        self.bl_mode = bl_mode      # "held" or "share"
        self.bl_level = bl_level    # for "held"


class OracleColumn(BehavioralColumn):
    """Per-sub-step reference integration of the behavioral column."""

    # ------------------------------------------------------------------
    # device helpers
    # ------------------------------------------------------------------
    def _access_current(self, v_bl: float, v_cell: float, v_gate: float,
                        series_r: float, temp_c: float) -> float:
        """Current flowing bit line → cell through access + series open."""
        tech = self.tech
        w_over_l = tech.access_w / tech.access_l
        dv = v_bl - v_cell
        if dv == 0.0:
            return 0.0
        vs = min(v_bl, v_cell)
        vgs = v_gate - vs
        ids, _, _ = mosfet_curves(tech.access_params, w_over_l, vgs,
                                  abs(dv), temp_c)
        if ids <= 0.0:
            return 0.0
        # Series combination of the transistor (as its large-signal
        # conductance) and the open resistance.
        g_tx = ids / abs(dv)
        g = g_tx if series_r <= 0 else g_tx / (1.0 + g_tx * series_r)
        return g * dv

    def _leak_current(self, v_cell: float, temp_c: float) -> float:
        """Storage-node junction leakage (discharges a stored high)."""
        if v_cell <= 0.0:
            return 0.0
        tech = self.tech
        return tech.leak_isat * 2.0 ** ((temp_c - tech.leak_tnom_c)
                                        / tech.leak_tdouble)

    def _shunt_current(self, v_cell: float, v_bl: float,
                       v_wl: float) -> float:
        """Current *into* the cell node from a short/bridge defect."""
        d = self.defect
        if d is None:
            return 0.0
        r = d.resistance
        kind = d.kind
        if kind == "short_gnd":
            return (0.0 - v_cell) / r
        if kind == "short_vdd":
            return (self.stress.vdd - v_cell) / r
        if kind == "bridge_bl":
            return (v_bl - v_cell) / r
        if kind == "bridge_wl":
            return (v_wl - v_cell) / r
        return 0.0

    def _series_resistance(self) -> float:
        d = self.defect
        if d is not None and d.kind in ("open_bl", "open_sn"):
            return d.resistance
        return 0.0

    def _gate_tau(self) -> float | None:
        d = self.defect
        if d is not None and d.kind == "open_gate":
            return d.resistance * self.tech.cg_access
        return None

    # ------------------------------------------------------------------
    # cycle phases
    # ------------------------------------------------------------------
    def _phases_for(self, op: Op, plan_times: dict) -> list[_Phase]:
        """Held-bit-line phases of a write cycle (reads and nops are
        assembled inline in :meth:`_run_cycle` because the restore level
        is only known mid-cycle)."""
        t_wl_on = plan_times["t_wl_on"]
        t_wl_off = plan_times["t_wl_off"]
        tcyc = self.stress.tcyc
        vpre = self.tech.vbl_pre(self.stress.vdd)

        level = float(op.operation.write_value) * self.stress.vdd
        if not self.target_on_true:
            level = self.stress.vdd - level
        t_we_on = plan_times["t_we_on"]
        return [
            _Phase(0.0, t_wl_on, False, "held", vpre),
            _Phase(t_wl_on, t_we_on, True, "held", vpre),
            _Phase(t_we_on, t_wl_off, True, "held", level),
            _Phase(t_wl_off, tcyc, False, "held", level),
        ]

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def _integrate_held(self, state: dict, phase: _Phase,
                        temp_c: float) -> None:
        """Cell dynamics with the bit line held at a fixed level."""
        tech = self.tech
        cs = tech.cs
        series_r = self._series_resistance()
        gate_tau = self._gate_tau()
        vpp = tech.vpp(self.stress.vdd)
        v_wl_target = vpp if phase.wl_high else 0.0
        t = phase.t0
        while t < phase.t1 - 1e-15:
            dt = min(self.DT_SUB, phase.t1 - t)
            vc = state["vc"]
            if gate_tau is not None:
                vg = state["vg"]
                vg += (v_wl_target - vg) * (1.0 - _exp(-dt / gate_tau))
                state["vg"] = vg
            else:
                vg = v_wl_target
            i_acc = self._access_current(phase.bl_level, vc, vg, series_r,
                                         temp_c) if phase.wl_high or \
                gate_tau is not None else 0.0
            i = (i_acc + self._shunt_current(vc, phase.bl_level,
                                             v_wl_target)
                 - self._leak_current(vc, temp_c))
            state["vc"] = _clip(vc + i * dt / cs, -0.2,
                                self.stress.vdd + 0.3)
            t += dt

    def _integrate_share(self, state: dict, t0: float, t1: float,
                         temp_c: float) -> None:
        """Charge sharing: cell and bit line co-integrate; dummy too."""
        tech = self.tech
        cs, cbl = tech.cs, tech.cbl
        series_r = self._series_resistance()
        gate_tau = self._gate_tau()
        vpp = tech.vpp(self.stress.vdd)
        w_over_l_d = tech.dummy_access_w / tech.access_l
        t = t0
        while t < t1 - 1e-15:
            dt = min(self.DT_SUB, t1 - t)
            vc, vbl = state["vc"], state["vbl"]
            vdum, vblr = state["vdum"], state["vblr"]
            if gate_tau is not None:
                vg = state["vg"]
                vg += (vpp - vg) * (1.0 - _exp(-dt / gate_tau))
                state["vg"] = vg
            else:
                vg = vpp
            i_cell = self._access_current(vbl, vc, vg, series_r, temp_c)
            i_shunt = self._shunt_current(vc, vbl, vpp)
            i_leak = self._leak_current(vc, temp_c)
            # Dummy path (no defect, its own width).
            dvd = vblr - vdum
            if dvd != 0.0:
                vs = min(vblr, vdum)
                idum, _, _ = mosfet_curves(tech.access_params, w_over_l_d,
                                           vpp - vs, abs(dvd), temp_c)
                i_dum = (idum / abs(dvd)) * dvd if idum > 0 else 0.0
            else:
                i_dum = 0.0
            state["vc"] = vc + (i_cell + i_shunt - i_leak) * dt / cs
            state["vbl"] = vbl - i_cell * dt / cbl
            state["vdum"] = vdum + i_dum * dt / cs
            state["vblr"] = vblr - i_dum * dt / cbl
            t += dt

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _run_cycle(self, op: Op, state: dict) -> OpResult:
        stress, tech = self.stress, self.tech
        temp_c = stress.temp_c
        tcyc = stress.tcyc
        t_eq_off = timing.EQ_OFF_FRAC * tcyc
        t_wl_on, t_wl_off = timing.wordline_window(stress)
        plan_times = {
            "t_eq_off": t_eq_off,
            "t_wl_on": t_wl_on,
            "t_wl_off": t_wl_off,
            "t_we_on": t_wl_on + timing.WEN_DELAY_FRAC * tcyc,
        }

        sensed = None
        if op.operation is Operation.NOP:
            vpre = tech.vbl_pre(stress.vdd)
            self._integrate_held(
                state, _Phase(0.0, tcyc, False, "held", vpre), temp_c)
        elif op.operation.is_write:
            for phase in self._phases_for(op, plan_times):
                self._integrate_held(state, phase, temp_c)
        else:
            vpre = tech.vbl_pre(stress.vdd)
            # idle + precharge
            self._integrate_held(
                state, _Phase(0.0, t_wl_on, False, "held", vpre), temp_c)
            # charge share until the (race-delayed) decision instant
            t_sense = t_wl_on + timing.SHARE_FRAC * tcyc
            t_dec = min(t_sense + self.calibration.delay_at(temp_c),
                        t_wl_off)
            state["vbl"] = vpre
            state["vblr"] = vpre
            state["vdum"] = tech.v_ref(stress.vdd, temp_c)
            self._integrate_share(state, t_wl_on, t_dec, temp_c)
            stored_one = state["vbl"] > state["vblr"]
            sensed = (1 if stored_one else 0) if self.target_on_true \
                else (0 if stored_one else 1)
            # restore: the SA drives the bit line to the winning rail
            rail = stress.vdd if stored_one else 0.0
            self._integrate_held(
                state, _Phase(t_dec, t_wl_off, True, "held", rail), temp_c)
            self._integrate_held(
                state, _Phase(t_wl_off, tcyc, False, "held", rail), temp_c)

        return OpResult(op=op, vc_end=state["vc"], sensed=sensed)

    def idle_state(self, vc_target: float,
                   background: int = 0) -> dict[str, float]:
        """Interface parity with the electrical runner."""
        state = {"vc": float(vc_target), "vbl": 0.0, "vblr": 0.0,
                 "vdum": 0.0}
        if self._gate_tau() is not None:
            state["vg"] = 0.0
        return state

    def run_op(self, op: Op | str, state: dict) -> tuple[OpResult, dict]:
        if isinstance(op, str):
            op = Op.parse(op)
        result = self._run_cycle(op, state)
        return result, state

    def run_sequence(self, ops, init_vc: float, background: int = 0
                     ) -> SequenceResult:
        if isinstance(ops, str):
            ops = parse_ops(ops)
        ops = [Op.parse(o) if isinstance(o, str) else o for o in ops]
        state = self.idle_state(init_vc, background=background)
        results = []
        for op in ops:
            result, state = self.run_op(op, state)
            results.append(result)
        return SequenceResult(ops=ops, results=results)


def _exp(x: float) -> float:
    return math.exp(x) if x > -60.0 else 0.0


def _clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x
