"""Reference oracle: the array border search as its own bisection loop.

Before the array border went through
:func:`repro.analysis.border.border_resistance`, the array study ran
this loop itself, with its own memo and midpoint-tree speculation.  It
is kept here verbatim so the tests can require the shared bisection to
issue the same engine calls, probe for probe, and return the same
border bit for bit.
"""

from __future__ import annotations

import math

from repro.dram.column import DefectSite
from repro.engine import SequenceRequest
from repro.stress import NOMINAL_STRESS, StressConditions

SPECULATE_DEPTH = 2


def _vc_end(engine, *, kind: str, cell: int, resistance: float,
            geometry, address, trim, ops: str, init_vc: float,
            stress: StressConditions, tech) -> float:
    request = SequenceRequest.build(
        ops, init_vc, backend="electrical",
        defect=DefectSite(kind, cell, resistance), stress=stress,
        tech=tech, geometry=geometry, address=address, trim=trim)
    return engine.run(request).results[-1].vc_end


def _midpoint_tree(lo: float, hi: float, depth: int) -> list[float]:
    if depth <= 0:
        return []
    mid = math.sqrt(lo * hi)
    out = [mid]
    if depth > 1:
        out += _midpoint_tree(lo, mid, depth - 1)
        out += _midpoint_tree(mid, hi, depth - 1)
    return out


def oracle_disturb_br(kind: str, *, geometry: tuple[int, int],
                      cell: int | None = None,
                      address: tuple[int, int] | None = None,
                      trim: str | None = None,
                      ops: str = "r",
                      init_vc: float | None = None,
                      stress: StressConditions = NOMINAL_STRESS,
                      tech=None,
                      engine,
                      r_lo: float = 1e3,
                      r_hi: float = 1e9,
                      rel_tol: float = 0.05) -> float:
    rows, cols = geometry
    if cell is None:
        cell = (rows // 2) * cols + cols // 2
    if init_vc is None:
        init_vc = stress.vdd

    speculate = getattr(engine, "effective_lanes", lambda: 0)() >= 2
    memo: dict[float, float] = {}

    def prefetch(resistances) -> None:
        todo = [r for r in dict.fromkeys(resistances) if r not in memo]
        if not todo:
            return
        requests = [SequenceRequest.build(
            ops, init_vc, backend="electrical",
            defect=DefectSite(kind, cell, r), stress=stress,
            tech=tech, geometry=geometry, address=address, trim=trim)
            for r in todo]
        for r, result in zip(todo, engine.map(requests)):
            memo[r] = result.results[-1].vc_end

    def f(resistance: float) -> float:
        if speculate:
            prefetch([resistance])
            return memo[resistance]
        return _vc_end(engine, kind=kind, cell=cell,
                       resistance=resistance, geometry=geometry,
                       address=address, trim=trim, ops=ops,
                       init_vc=init_vc, stress=stress, tech=tech)

    if speculate:
        prefetch([r_lo, r_hi] + _midpoint_tree(r_lo, r_hi,
                                               SPECULATE_DEPTH))
    v_lo, v_hi = f(r_lo), f(r_hi)
    if math.isclose(v_lo, v_hi, abs_tol=1e-6):
        raise ValueError(
            f"defect {kind!r} shows no resistance dependence on "
            f"[{r_lo:.3g}, {r_hi:.3g}] ohm (Δvc={abs(v_hi - v_lo):.2e})")
    v_mid = 0.5 * (v_lo + v_hi)
    lo, hi = r_lo, r_hi
    below = v_lo < v_mid
    while hi / lo > 1.0 + rel_tol:
        mid = math.sqrt(lo * hi)
        if speculate and mid not in memo:
            left = math.ceil(math.log2(
                math.log(hi / lo) / math.log(1.0 + rel_tol)))
            prefetch(_midpoint_tree(lo, hi,
                                    min(SPECULATE_DEPTH, max(1, left))))
        if (f(mid) < v_mid) == below:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
