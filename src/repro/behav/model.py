"""Phase-integrated behavioral column model.

Each operation cycle is split at the control-signal corners defined by
:mod:`repro.dram.timing` and integrated segment-by-segment with fixed
0.5 ns sub-steps (explicit forward Euler).  Within a segment the bit line
is either held by the precharge/write driver (a boundary condition) or
co-integrated with the cell during charge sharing.  The access transistor
uses the *same* level-1 equations as the electrical model
(:func:`level1_curves`), so both models share one technology description.
Everything that is constant over a sequence (temperature-resolved device
parameters, leakage, the defect's series/shunt/gate terms, the cycle
timing) is resolved once per sequence, before the sub-step loops.

Approximations (validated against the electrical model in the tests):

* bit lines are ideal rails while a driver holds them;
* the sense amplifier is a calibrated race — the decision samples the
  bit-line differential one latch delay after sense enable, with the
  delay scaling like the inverse SA drive current over temperature;
* after the decision the winning rail is applied to the bit line
  immediately (restore phase);
* non-target cells do not interact with the target (the electrical model
  confirms the coupling is negligible for single-defect analysis).

Forward Euler is stable only while a sub-step is shorter than twice the
fastest cell time constant, ``DT_SUB < 2 * R * Cs``: shorts and bridges
below ~2.1 kΩ (at Cs = 120 fF) oscillate between the clip bounds while
the bit line is held and overflow to NaN during charge sharing.  Such
sequences are counted in the run diagnostics (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.diagnostics import diagnostics
from repro.stress import NOMINAL_STRESS, StressConditions
from repro.defects.catalog import Defect
from repro.dram.column import DefectSite
from repro.dram.ops import Op, Operation, OpResult, SequenceResult, parse_ops
from repro.dram.tech import TechnologyParams, default_tech
from repro.dram import timing
from repro.spice.devices import thermal_voltage
from repro.spice.mosfet import level1_curves


@dataclass
class BehavCalibration:
    """Fitted constants of the sense-decision race.

    ``latch_delay`` is the time between sense enable and the effective
    decision instant at the nominal temperature; it scales with the
    inverse of the SA NMOS drive, i.e. ``(T_K / 300.15) ** latch_texp``.
    """

    latch_delay: float = 2.6e-9
    latch_texp: float = 0.9

    def delay_at(self, temp_c: float) -> float:
        t_k = temp_c + 273.15
        return self.latch_delay * (t_k / 300.15) ** self.latch_texp


class BehavioralColumn:
    """Drop-in fast replacement for :class:`ColumnRunner`.

    Accepts the same construction arguments (low-level
    :class:`DefectSite`) and exposes the same operation-level interface,
    so every analysis routine runs unchanged on either model.
    """

    #: Integration sub-step (seconds).
    DT_SUB = 0.5e-9

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect: DefectSite | None = None,
                 target_cell: int = 0,
                 calibration: BehavCalibration | None = None,
                 record: bool = False):
        self.tech = tech or default_tech()
        self.stress = stress
        self.target_cell = target_cell
        self.defect = defect
        self.calibration = calibration or BehavCalibration()
        self.record = record  # accepted for interface parity (unused)

    # ------------------------------------------------------------------
    # configuration (mirrors ColumnRunner)
    # ------------------------------------------------------------------
    def set_stress(self, stress: StressConditions) -> None:
        self.stress = stress

    def set_defect_resistance(self, resistance: float) -> None:
        if self.defect is None:
            raise ValueError("this column has no injected defect")
        self.defect = self.defect.with_resistance(resistance)

    @property
    def target_on_true(self) -> bool:
        return self.target_cell % 2 == 0

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def idle_state(self, vc_target: float,
                   background: int = 0) -> dict[str, float]:
        """Interface parity with the electrical runner."""
        state = {"vc": float(vc_target), "vbl": 0.0, "vblr": 0.0,
                 "vdum": 0.0}
        if self.defect is not None and self.defect.kind == "open_gate":
            state["vg"] = 0.0
        return state

    def run_op(self, op: Op | str, state: dict) -> tuple[OpResult, dict]:
        if isinstance(op, str):
            op = Op.parse(op)
        return _Resolved(self).cycle(op, state), state

    def run_sequence(self, ops, init_vc: float, background: int = 0
                     ) -> SequenceResult:
        if isinstance(ops, str):
            ops = parse_ops(ops)
        ops = [Op.parse(o) if isinstance(o, str) else o for o in ops]
        state = self.idle_state(init_vc, background=background)
        column = _Resolved(self)
        results = [column.cycle(op, state) for op in ops]
        if not all(math.isfinite(r.vc_end) for r in results):
            diagnostics().record_nonfinite_sequence()
        return SequenceResult(ops=ops, results=results)


class _Resolved:
    """A :class:`BehavioralColumn` with its stress, defect and technology
    resolved to the plain floats the sub-step loops run on."""

    __slots__ = ("dt_sub", "beta", "beta_dum", "nvt", "vth", "lam", "cs",
                 "cbl", "vdd", "v_hi", "vpp", "vpre", "v_ref", "leak",
                 "series_r", "gate_tau", "shunt", "shunt_r", "on_true",
                 "tcyc", "t_wl_on", "t_we_on", "t_wl_off", "t_dec")

    def __init__(self, column: BehavioralColumn):
        tech, stress, d = column.tech, column.stress, column.defect
        temp_c, vdd, tcyc = stress.temp_c, stress.vdd, stress.tcyc
        acc = tech.access_params
        kp = acc.kp_at(temp_c)
        self.dt_sub = column.DT_SUB
        self.beta = kp * (tech.access_w / tech.access_l)
        self.beta_dum = kp * (tech.dummy_access_w / tech.access_l)
        self.nvt = acc.n_ss * thermal_voltage(temp_c)
        self.vth = acc.vth_at(temp_c)
        self.lam = acc.lam
        self.cs, self.cbl = tech.cs, tech.cbl
        self.vdd = vdd
        self.v_hi = vdd + 0.3
        self.vpp = tech.vpp(vdd)
        self.vpre = tech.vbl_pre(vdd)
        self.v_ref = tech.v_ref(vdd, temp_c)
        self.leak = tech.leak_isat * 2.0 ** ((temp_c - tech.leak_tnom_c)
                                             / tech.leak_tdouble)
        kind = d.kind if d is not None else None
        r = d.resistance if d is not None else 0.0
        self.series_r = r if kind in ("open_bl", "open_sn") else 0.0
        self.gate_tau = r * tech.cg_access if kind == "open_gate" else None
        is_shunt = kind in ("short_gnd", "short_vdd", "bridge_bl",
                            "bridge_wl")
        self.shunt = kind if is_shunt else None
        self.shunt_r = r if is_shunt else None
        self.on_true = column.target_on_true
        self.tcyc = tcyc
        self.t_wl_on, self.t_wl_off = timing.wordline_window(stress)
        self.t_we_on = self.t_wl_on + timing.WEN_DELAY_FRAC * tcyc
        t_sense = self.t_wl_on + timing.SHARE_FRAC * tcyc
        self.t_dec = min(t_sense + column.calibration.delay_at(temp_c),
                         self.t_wl_off)

    def _shunt_level(self, v_bl: float, v_wl: float) -> float | None:
        """Far-end voltage of a short/bridge defect (``None``: no shunt)."""
        return {"short_gnd": 0.0, "short_vdd": self.vdd, "bridge_bl": v_bl,
                "bridge_wl": v_wl, None: None}[self.shunt]

    def cycle(self, op: Op, state: dict) -> OpResult:
        """Integrate one operation cycle, updating ``state`` in place."""
        vc, vg = state["vc"], state.get("vg")
        held, vpre, vdd = self.held, self.vpre, self.vdd
        sensed = None
        if op.operation is Operation.NOP:
            vc, vg = held(vc, vg, 0.0, self.tcyc, False, vpre)
        elif op.operation.is_write:
            level = float(op.operation.write_value) * vdd
            if not self.on_true:
                level = vdd - level
            vc, vg = held(vc, vg, 0.0, self.t_wl_on, False, vpre)
            vc, vg = held(vc, vg, self.t_wl_on, self.t_we_on, True, vpre)
            vc, vg = held(vc, vg, self.t_we_on, self.t_wl_off, True, level)
            vc, vg = held(vc, vg, self.t_wl_off, self.tcyc, False, level)
        else:
            # idle + precharge, then charge share until the
            # (race-delayed) decision instant
            vc, vg = held(vc, vg, 0.0, self.t_wl_on, False, vpre)
            vc, vg, vbl, vblr, vdum = self.share(vc, vg, vpre, vpre,
                                                 self.v_ref)
            state["vbl"], state["vblr"], state["vdum"] = vbl, vblr, vdum
            stored_one = vbl > vblr
            sensed = (1 if stored_one else 0) if self.on_true \
                else (0 if stored_one else 1)
            # restore: the SA drives the bit line to the winning rail
            rail = vdd if stored_one else 0.0
            vc, vg = held(vc, vg, self.t_dec, self.t_wl_off, True, rail)
            vc, vg = held(vc, vg, self.t_wl_off, self.tcyc, False, rail)
        state["vc"] = vc
        if vg is not None:
            state["vg"] = vg
        return OpResult(op=op, vc_end=vc, sensed=sensed)

    def held(self, vc: float, vg: float | None, t0: float, t1: float,
             wl_high: bool, bl: float) -> tuple[float, float | None]:
        """Cell dynamics with the bit line held at ``bl``."""
        dt_sub, beta, nvt, vth, lam = (self.dt_sub, self.beta, self.nvt,
                                       self.vth, self.lam)
        cs, v_hi, leak = self.cs, self.v_hi, self.leak
        series_r, gate_tau = self.series_r, self.gate_tau
        v_wl_target = self.vpp if wl_high else 0.0
        v_sh, r_sh = self._shunt_level(bl, v_wl_target), self.shunt_r
        access = wl_high or gate_tau is not None
        t_end = t1 - 1e-15
        t = t0
        while t < t_end:
            span = t1 - t
            dt = span if span < dt_sub else dt_sub
            if gate_tau is not None:
                vg += (v_wl_target - vg) * (1.0 - _exp(-dt / gate_tau))
                v_gate = vg
            else:
                v_gate = v_wl_target
            # access current bit line -> cell: the transistor's
            # large-signal conductance in series with the open
            i_acc = 0.0
            dv = bl - vc
            if access and dv != 0.0:
                vs = vc if vc < bl else bl
                ids = level1_curves(beta, nvt, vth, lam, v_gate - vs,
                                    abs(dv))[0]
                if not ids <= 0.0:
                    g_tx = ids / abs(dv)
                    g = g_tx if series_r <= 0 else \
                        g_tx / (1.0 + g_tx * series_r)
                    i_acc = g * dv
            i = (i_acc + (0.0 if r_sh is None else (v_sh - vc) / r_sh)
                 - (0.0 if vc <= 0.0 else leak))
            vc = vc + i * dt / cs
            vc = -0.2 if vc < -0.2 else v_hi if vc > v_hi else vc
            t += dt
        return vc, vg

    def share(self, vc: float, vg: float | None, vbl: float, vblr: float,
              vdum: float) -> tuple[float, float | None, float, float,
                                    float]:
        """Charge sharing up to the sense decision: cell and bit line
        co-integrate, and so do the dummy cell and the reference line."""
        dt_sub, beta, beta_dum, nvt, vth, lam = (
            self.dt_sub, self.beta, self.beta_dum, self.nvt, self.vth,
            self.lam)
        cs, cbl, leak, vpp = self.cs, self.cbl, self.leak, self.vpp
        series_r, gate_tau = self.series_r, self.gate_tau
        v_sh, r_sh = self._shunt_level(None, vpp), self.shunt_r
        sh_bl = self.shunt == "bridge_bl"
        t1 = self.t_dec
        t_end = t1 - 1e-15
        t = self.t_wl_on
        while t < t_end:
            span = t1 - t
            dt = span if span < dt_sub else dt_sub
            if gate_tau is not None:
                vg += (vpp - vg) * (1.0 - _exp(-dt / gate_tau))
                v_gate = vg
            else:
                v_gate = vpp
            i_cell = 0.0
            dv = vbl - vc
            if dv != 0.0:
                vs = vc if vc < vbl else vbl
                ids = level1_curves(beta, nvt, vth, lam, v_gate - vs,
                                    abs(dv))[0]
                if not ids <= 0.0:
                    g_tx = ids / abs(dv)
                    g = g_tx if series_r <= 0 else \
                        g_tx / (1.0 + g_tx * series_r)
                    i_cell = g * dv
            i_shunt = 0.0 if r_sh is None else \
                ((vbl if sh_bl else v_sh) - vc) / r_sh
            i_leak = 0.0 if vc <= 0.0 else leak
            # dummy path (no defect, its own width)
            i_dum = 0.0
            dvd = vblr - vdum
            if dvd != 0.0:
                vs = vdum if vdum < vblr else vblr
                idum = level1_curves(beta_dum, nvt, vth, lam, vpp - vs,
                                     abs(dvd))[0]
                if idum > 0:
                    i_dum = (idum / abs(dvd)) * dvd
            vc, vbl, vdum, vblr = (
                vc + (i_cell + i_shunt - i_leak) * dt / cs,
                vbl - i_cell * dt / cbl,
                vdum + i_dum * dt / cs,
                vblr - i_dum * dt / cbl)
            t += dt
        return vc, vg, vbl, vblr, vdum


def _exp(x: float) -> float:
    return math.exp(x) if x > -60.0 else 0.0


def behavioral_model(defect: Defect | None = None,
                     stress: StressConditions = NOMINAL_STRESS,
                     tech: TechnologyParams | None = None,
                     calibration: BehavCalibration | None = None
                     ) -> BehavioralColumn:
    """Build the behavioral column model for a high-level defect."""
    site = defect.site() if defect is not None else None
    target = defect.cell_index if defect is not None else 0
    return BehavioralColumn(tech=tech, stress=stress, defect=site,
                            target_cell=target, calibration=calibration)
