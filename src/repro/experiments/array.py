"""Array-scale activation-disturbance study (ROADMAP "Scale the DUT").

The seed 2×2 column cannot express neighborhood coupling: a defective
cell sitting in a sea of unselected neighbors, disturbed by activating
its own (or an adjacent) row.  The R×C array builder plus the trimming
layer make that affordable — this module turns it into the same
border-resistance currency the column experiments speak:

* :func:`activation_disturb_br` — bisect the defect resistance where
  one activation cycle's end-of-cycle victim voltage crosses the
  midpoint between its healthy-side and defective-side extremes (the
  array analogue of the column's sensed-based border search);
* :func:`array_disturb_study` — the per-kind sweep behind the CLI's
  ``array`` command, rendered as a table.

Every simulation goes through :class:`~repro.engine.SequenceRequest`
with the array ``geometry``/``trim`` fields, so results are cached,
trimmed/full runs never collide, and the trim policy is a pure
accuracy/speed knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.border import (SPECULATE_DEPTH, _midpoint_tree,
                                   border_resistance)
from repro.dram.column import DEFECT_KINDS, DefectSite
from repro.engine import SequenceRequest, default_engine
from repro.report.tables import render_table
from repro.stress import NOMINAL_STRESS, StressConditions

#: Resistance decade window bracketing every array-routed border.
DEFAULT_R_LO = 1e3
DEFAULT_R_HI = 1e9


def activation_disturb_br(kind: str, *, geometry: tuple[int, int],
                          cell: int | None = None,
                          address: tuple[int, int] | None = None,
                          trim: str | None = None,
                          ops: str = "r",
                          init_vc: float | None = None,
                          stress: StressConditions = NOMINAL_STRESS,
                          tech=None,
                          engine=None,
                          r_lo: float = DEFAULT_R_LO,
                          r_hi: float = DEFAULT_R_HI,
                          rel_tol: float = 0.05) -> float:
    """Border resistance of one defect kind under array activation.

    Bisects (in log-resistance, through
    :func:`repro.analysis.border.border_resistance`) the point where
    the victim's end-of-sequence voltage crosses the midpoint between
    its value at ``r_lo`` (defect fully expressed for shorts/bridges,
    healed for opens) and at ``r_hi``.  ``rel_tol`` bounds the returned
    border's relative width, matching the column optimizer's convention.

    ``cell`` defaults to the array's center cell so the trimming
    neighborhood is fully interior; ``init_vc`` defaults to a stored
    ``1`` (``stress.vdd``), the worst case for activation disturbance.

    When the engine's lane width admits batching
    (:meth:`~repro.engine.BatchExecutor.effective_lanes` ≥ 2), the
    search *speculatively* probes the midpoint tree of each bracket
    (the bisection's ``prefetch`` hook): the probes differ only in
    defect resistance, so they stack as lanes of one batched transient,
    and successive generations warm-start from the previous one's
    converged trajectories.  The tree holds exactly the midpoints the
    bisection computes, so the border is identical either way.
    """
    rows, cols = geometry
    if cell is None:
        cell = (rows // 2) * cols + cols // 2
    if init_vc is None:
        init_vc = stress.vdd
    if engine is None:
        engine = default_engine()

    def request(resistance: float) -> SequenceRequest:
        return SequenceRequest.build(
            ops, init_vc, backend="electrical",
            defect=DefectSite(kind, cell, resistance), stress=stress,
            tech=tech, geometry=geometry, address=address, trim=trim)

    speculate = getattr(engine, "effective_lanes", lambda: 0)() >= 2
    memo: dict[float, float] = {}

    def fetch(resistances) -> None:
        todo = [r for r in dict.fromkeys(resistances) if r not in memo]
        if todo:
            results = engine.map([request(r) for r in todo])
            for r, result in zip(todo, results):
                memo[r] = result.results[-1].vc_end

    def vc_end(resistance: float) -> float:
        if resistance not in memo:
            if speculate:
                fetch([resistance])
            else:
                memo[resistance] = \
                    engine.run(request(resistance)).results[-1].vc_end
        return memo[resistance]

    def speculative(tree: list[float]) -> None:
        if tree[0] not in memo:
            fetch(tree)

    if speculate:
        fetch([r_lo, r_hi] + _midpoint_tree(r_lo, r_hi, SPECULATE_DEPTH))
    v_lo, v_hi = vc_end(r_lo), vc_end(r_hi)
    if math.isclose(v_lo, v_hi, abs_tol=1e-6):
        raise ValueError(
            f"defect {kind!r} shows no resistance dependence on "
            f"[{r_lo:.3g}, {r_hi:.3g}] ohm (Δvc={abs(v_hi - v_lo):.2e})")
    v_mid = 0.5 * (v_lo + v_hi)
    below = v_lo < v_mid
    # "Faulty" here means: on the r_hi side of the crossing.
    border = border_resistance(
        None, fails_high=True, r_lo=r_lo, r_hi=r_hi, rel_tol=rel_tol,
        predicate=lambda r: (vc_end(r) < v_mid) != below,
        prefetch=speculative if speculate else None)
    if not border.found:
        raise ValueError(f"defect {kind!r}: vc_end never crosses "
                         f"{v_mid:.4g} V on [{r_lo:.3g}, {r_hi:.3g}] ohm")
    return border.resistance


@dataclass
class ArrayStudy:
    """Per-kind activation-disturbance borders of one array geometry."""

    geometry: tuple[int, int]
    trim: str
    stress: StressConditions
    rows: list[tuple[str, int, float]]     # (kind, cell, border)

    def render(self) -> str:
        table = [(kind, str(cell), f"{br:.4g}")
                 for kind, cell, br in self.rows]
        return (f"array activation disturbance, "
                f"{self.geometry[0]}x{self.geometry[1]} "
                f"(trim={self.trim}, {self.stress.describe()})\n"
                + render_table(["defect", "cell", "BR [ohm]"], table))


def array_disturb_study(*, geometry: tuple[int, int] = (6, 6),
                        kinds=DEFECT_KINDS,
                        trim: str | None = None,
                        stress: StressConditions = NOMINAL_STRESS,
                        tech=None,
                        engine=None,
                        rel_tol: float = 0.05) -> ArrayStudy:
    """Border resistances of every array-routed defect kind.

    The array-scale counterpart of the per-defect Table-1 rows: for
    each kind, one victim at the array center, activated by its own
    row, border bisected to ``rel_tol``.  ``trim=None`` follows the
    process-wide policy (CLI ``--trim``).
    """
    from repro.dram.trim import resolve_trim
    if engine is None:
        engine = default_engine()
    resolved = resolve_trim(trim)
    rows_n, cols_n = geometry
    cell = (rows_n // 2) * cols_n + cols_n // 2
    rows = []
    for kind in kinds:
        br = activation_disturb_br(kind, geometry=geometry, cell=cell,
                                   trim=resolved, stress=stress,
                                   tech=tech, engine=engine,
                                   rel_tol=rel_tol)
        rows.append((kind, cell, br))
    return ArrayStudy(geometry=tuple(geometry), trim=resolved,
                      stress=stress, rows=rows)
