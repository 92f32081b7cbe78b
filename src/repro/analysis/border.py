"""Border-resistance (BR) identification.

BR is the resistive value of a defect at which the memory starts to show
faulty behaviour (Sec. 3, citing [Al-Ars02]).  Opens fail *above* their
border; shorts and bridges fail *below* it.  The search bisects in log
space over a detection predicate: "does this operation sequence observe a
functional fault at resistance R?".

The default predicate uses a saturating charge phase (several ``w1``/``w0``
operations) so the detection is not limited by incomplete charging — the
paper's Sec. 4.4 makes the same adjustment when the stress combination
weakens writes.

Bisection is inherently sequential, so the engine's contribution here is
memoization rather than parallelism: on an engine-backed model
(:class:`repro.engine.EngineModel`) every probe is content-addressed, so
repeated border searches — the quick direction analysis, tie-breaks and
full-plane generation all probe overlapping points — skip resimulation.
The probe battery keeps its short-circuit semantics (later sequences are
not simulated once one detects a fault), matching the hand-rolled search
cycle for cycle on a cold cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.interface import ColumnModel, opposite_rail_init
from repro.dram.ops import parse_ops
from repro.spice.errors import SpiceError

#: Operation sequences probed by the default fault predicate.  The pair
#: covers both data polarities; the saturating charge prefix follows the
#: paper's "two w1 are necessary ... " observation generalised to heavy
#: stress (Fig. 6 needs even more).
DEFAULT_PROBE_SEQUENCES = (
    "w1^6 w0 r0 r0",
    "w0^6 w1 r1 r1",
    "w1 r1 r1 r1",
    "w0 r0 r0 r0",
)


def default_fault_predicate(model: ColumnModel,
                            sequences: Sequence[str] = DEFAULT_PROBE_SEQUENCES
                            ) -> Callable[[float], bool]:
    """Build ``faulty(R)`` running a battery of detection sequences."""
    parsed = [parse_ops(s) for s in sequences]

    def faulty(resistance: float) -> bool:
        model.set_defect_resistance(resistance)
        for ops in parsed:
            init = opposite_rail_init(model, ops)
            if model.run_sequence(ops, init_vc=init).any_fault:
                return True
        return False

    return faulty


@dataclass(frozen=True)
class BorderResult:
    """Outcome of a border search.

    Attributes
    ----------
    resistance:
        The border value, or ``None`` when the whole range behaves
        uniformly (see ``always_faulty``).
    fails_high:
        True when faults live above the border (opens).
    always_faulty / never_faulty:
        Degenerate outcomes: the entire searched range is faulty (the
        border lies below it) or fault-free (above it).
    r_lo, r_hi:
        The searched range.
    n_failed_probes:
        Probes lost to simulation failures during the search (only
        nonzero under ``on_error="isolate"``); the result may then be
        coarser than ``rel_tol``, or undetermined when an endpoint was
        unprobeable.
    """

    resistance: float | None
    fails_high: bool
    always_faulty: bool
    never_faulty: bool
    r_lo: float
    r_hi: float
    n_failed_probes: int = 0

    @property
    def found(self) -> bool:
        return self.resistance is not None

    @property
    def degraded(self) -> bool:
        """True when failed probes may have reduced accuracy."""
        return self.n_failed_probes > 0

    def failing_range(self) -> tuple[float, float] | None:
        """The resistance interval producing faults (within the search)."""
        if self.always_faulty:
            return (self.r_lo, self.r_hi)
        if not self.found:
            return None
        if self.fails_high:
            return (self.resistance, self.r_hi)
        return (self.r_lo, self.resistance)

    def describe(self) -> str:
        note = (f" ({self.n_failed_probes} failed probes)"
                if self.n_failed_probes else "")
        if self.always_faulty:
            return (f"faulty everywhere in [{self.r_lo:.3g}, "
                    f"{self.r_hi:.3g}]{note}")
        if not self.found:
            if self.n_failed_probes and not self.never_faulty:
                return (f"border undetermined in [{self.r_lo:.3g}, "
                        f"{self.r_hi:.3g}]{note}")
            return f"no fault in [{self.r_lo:.3g}, {self.r_hi:.3g}]{note}"
        arrow = ">" if self.fails_high else "<"
        return f"faulty for R {arrow} {self.resistance:.3g} ohm{note}"


#: Relative nudges tried around a resistance whose probe failed before
#: the search gives up on that probe point.
_PROBE_NUDGES = (1.0, 1.03, 1.0 / 1.03)

#: Speculation depth of a prefetching bisection: before each midpoint
#: probe the ``prefetch`` hook receives the full binary subdivision tree
#: of the current bracket to this depth (``2**depth - 1`` probes
#: covering the next ``depth`` bisection levels), e.g. to run them as
#: lanes of one batched transient.  Depth 2 is the sweet spot measured
#: in ``benchmarks/bench_array_lanes.py``: 3 probes per 2 consumed
#: levels (1.5x speculative waste) against the batched transient's
#: per-probe amortization; deeper trees waste more probes than the
#: wider batch recovers.
SPECULATE_DEPTH = 2


def _midpoint_tree(lo: float, hi: float, depth: int) -> list[float]:
    """Every log-midpoint the next ``depth`` bisection levels of
    ``[lo, hi]`` could probe, whichever way each comparison goes.

    Built by the *same* recursive ``sqrt(lo * hi)`` arithmetic the
    bisection uses, so each value is bitwise the probe the bisection
    would compute — a speculating caller answers the identical
    questions, it just asks them ``depth`` levels at a time.
    """
    if depth <= 0:
        return []
    mid = math.sqrt(lo * hi)
    out = [mid]
    if depth > 1:
        out += _midpoint_tree(lo, mid, depth - 1)
        out += _midpoint_tree(mid, hi, depth - 1)
    return out


def border_resistance(model: ColumnModel, *, fails_high: bool,
                      r_lo: float, r_hi: float,
                      predicate: Callable[[float], bool] | None = None,
                      sequences: Sequence[str] | None = None,
                      rel_tol: float = 0.05,
                      on_error: str = "raise",
                      prior: float | None = None,
                      prefetch: Callable[[list[float]], None] | None = None
                      ) -> BorderResult:
    """Bisect the border resistance in ``[r_lo, r_hi]`` (log space).

    ``fails_high`` selects the polarity (True for opens).  A custom
    ``predicate`` (or sequence battery) overrides the default probe.
    The predicate is assumed monotone in R in the paper's sense; the
    endpoints are checked and degenerate outcomes reported explicitly.

    ``prior`` is an optional border estimate (e.g. from the surrogate
    tier).  The search then jumps straight to the bisection leaf that
    would contain it and verifies the leaf's two endpoints; under a
    monotone predicate a verified leaf pins every branch the plain
    bisection would have taken, so the returned border is **bitwise
    identical** at a fraction of the probes (see
    :func:`_prior_guided_search`).  A wrong prior only costs extra
    probes — every return path either verifies against real probes or
    falls back to the plain loop (reusing probe outcomes), never
    trusting the estimate itself.  Priors are ignored under
    ``on_error="isolate"``, where nudged/failed probes would make the
    probe-for-probe accounting diverge from the serial search.

    ``on_error="isolate"`` makes the search survive probes whose
    simulation fails: a failed probe point is retried at slightly nudged
    resistances, an unprobeable midpoint stops the refinement (the
    result brackets around it at reduced accuracy), and an unprobeable
    endpoint yields an undetermined result — all reported through
    ``n_failed_probes`` instead of an exception.

    ``prefetch`` is an optional speculation hook for batch-aware
    callers.  Before each midpoint probe of the plain loop it receives
    :func:`_midpoint_tree` of the current bracket, to at most
    :data:`SPECULATE_DEPTH` levels and never past the levels the
    tolerance leaves; the first entry is the midpoint about to be
    probed.  A hook that already holds that probe is inside a prefetched
    tree and may return at once.  The hook only warms the predicate:
    the probes and the border stay exactly those of the plain loop.
    """
    if r_lo <= 0 or r_hi <= r_lo:
        raise ValueError("require 0 < r_lo < r_hi")
    if not rel_tol > 0:
        # sqrt(lo * hi) stops moving once lo and hi are adjacent floats,
        # so a zero tolerance would never end; a NaN one never starts.
        raise ValueError(f"require rel_tol > 0, got {rel_tol!r}")
    if on_error not in ("raise", "isolate"):
        raise ValueError(f"unknown on_error policy {on_error!r}")
    if predicate is None:
        predicate = default_fault_predicate(
            model, sequences or DEFAULT_PROBE_SEQUENCES)

    if (prior is not None and on_error == "raise"
            and math.isfinite(prior) and prior > 0):
        memo: dict[float, bool] = {}
        raw_predicate = predicate

        def memo_predicate(r: float) -> bool:
            if r not in memo:
                memo[r] = raw_predicate(r)
            return memo[r]

        result = _prior_guided_search(
            memo_predicate, fails_high=fails_high, r_lo=r_lo, r_hi=r_hi,
            rel_tol=rel_tol, prior=prior)
        if result is not None:
            return result
        # Guided search gave up (non-monotone probe outcomes or too many
        # rounds): run the plain loop below, reusing every probe already
        # taken.
        predicate = memo_predicate

    n_failed = 0

    def probe(resistance: float) -> bool | None:
        """``predicate`` hardened against simulation failures."""
        nonlocal n_failed
        if on_error == "raise":
            return predicate(resistance)
        for nudge in _PROBE_NUDGES:
            r = min(max(resistance * nudge, r_lo), r_hi)
            try:
                return predicate(r)
            except SpiceError as exc:
                n_failed += 1
                _log_failed_probe(r, exc)
        return None

    lo_faulty = probe(r_lo)
    hi_faulty = probe(r_hi)
    if lo_faulty is None or hi_faulty is None:
        # An endpoint cannot be classified: the polarity of the whole
        # range is unknown, so the search is undetermined.
        return BorderResult(None, fails_high, always_faulty=False,
                            never_faulty=False, r_lo=r_lo, r_hi=r_hi,
                            n_failed_probes=n_failed)
    faulty_end = r_hi if fails_high else r_lo
    clean_end = r_lo if fails_high else r_hi
    faulty_at_faulty_end = hi_faulty if fails_high else lo_faulty
    faulty_at_clean_end = lo_faulty if fails_high else hi_faulty

    if faulty_at_clean_end:
        return BorderResult(None, fails_high, always_faulty=True,
                            never_faulty=False, r_lo=r_lo, r_hi=r_hi,
                            n_failed_probes=n_failed)
    if not faulty_at_faulty_end:
        return BorderResult(None, fails_high, always_faulty=False,
                            never_faulty=True, r_lo=r_lo, r_hi=r_hi,
                            n_failed_probes=n_failed)

    lo, hi = (clean_end, faulty_end) if fails_high else (faulty_end,
                                                         clean_end)
    # Invariant depends on polarity: for opens lo is clean / hi faulty;
    # for shorts lo is faulty / hi clean.
    while hi / lo > 1.0 + rel_tol:
        if prefetch is not None:
            # Each level halves the log-bracket, so the levels left
            # follow from the current width against the tolerance.
            left = math.ceil(math.log2(
                math.log(hi / lo) / math.log(1.0 + rel_tol)))
            prefetch(_midpoint_tree(lo, hi,
                                    min(SPECULATE_DEPTH, max(1, left))))
        mid = math.sqrt(lo * hi)
        mid_faulty = probe(mid)
        if mid_faulty is None:
            # The midpoint is unprobeable even after nudging: stop
            # refining and bracket around it — a coarser border beats
            # an aborted search.
            break
        if fails_high:
            if mid_faulty:
                hi = mid
            else:
                lo = mid
        else:
            if mid_faulty:
                lo = mid
            else:
                hi = mid
    return BorderResult(math.sqrt(lo * hi), fails_high,
                        always_faulty=False, never_faulty=False,
                        r_lo=r_lo, r_hi=r_hi, n_failed_probes=n_failed)


#: Rounds of leaf re-aiming before a prior-guided search falls back to
#: the plain bisection.  Each non-verifying round probes at least one
#: new lattice point strictly inside the open bracket, so the bound is
#: only ever reached on pathological (non-monotone) predicates.
_PRIOR_MAX_ROUNDS = 64


def _prior_guided_search(predicate: Callable[[float], bool], *,
                         fails_high: bool, r_lo: float, r_hi: float,
                         rel_tol: float,
                         prior: float) -> BorderResult | None:
    """Verify the bisection leaf a prior points at; return its border.

    The plain loop halves the *log-width* of its bracket every step
    (``mid = sqrt(lo * hi)``), so the set of brackets it can terminate
    in — the "leaves" — is a fixed lattice independent of probe
    outcomes.  This search descends to the leaf containing ``prior``
    using the identical float arithmetic, then probes only the leaf's
    two endpoints.  If the low endpoint is clean and the high endpoint
    faulty (polarity-adjusted), monotonicity pins every branch the
    plain loop would have taken: each midpoint it discarded upward lies
    ≥ the verified faulty endpoint, each kept lies ≤ the clean one, so
    the plain loop reaches *this exact bracket* and returns
    ``sqrt(lo * hi)`` — reproduced here bitwise, typically from 2
    probes instead of ~10.

    A miss re-aims at the geometric middle of the tightest known
    clean/faulty bracket and repeats, converging like a bisection over
    leaves.  Returns ``None`` (caller falls back to the plain loop,
    memo intact) when probe outcomes contradict monotonicity or the
    round cap is hit — so a bad prior degrades to the serial cost,
    never to a wrong answer.
    """
    # Work in a polarity-free frame: g(r) is False on the clean-for-
    # opens side (low R) and True above the border, for both kinds.
    def g(r: float) -> bool:
        f = predicate(r)
        return f if fails_high else (not f)

    g_false_max: float | None = None   # largest r observed g(r) False
    g_true_min: float | None = None    # smallest r observed g(r) True

    def classify(r: float) -> bool:
        nonlocal g_false_max, g_true_min
        if g_false_max is not None and r <= g_false_max:
            return False
        if g_true_min is not None and r >= g_true_min:
            return True
        val = g(r)
        if val:
            g_true_min = r if g_true_min is None else min(g_true_min, r)
        else:
            g_false_max = r if g_false_max is None else max(g_false_max, r)
        return val

    target = min(max(prior, r_lo), r_hi)
    step = 1.0   # gallop width in leaves while only one bound is known
    for _ in range(_PRIOR_MAX_ROUNDS):
        lo, hi = r_lo, r_hi
        while hi / lo > 1.0 + rel_tol:
            mid = math.sqrt(lo * hi)
            if target < mid:
                hi = mid
            else:
                lo = mid
        glo = classify(lo)
        ghi = classify(hi)
        if not glo and ghi:
            return BorderResult(math.sqrt(lo * hi), fails_high,
                                always_faulty=False, never_faulty=False,
                                r_lo=r_lo, r_hi=r_hi)
        if (glo and lo == r_lo) or (not ghi and hi == r_hi):
            # The range looks degenerate (border below r_lo or above
            # r_hi).  Replicate the plain search's endpoint probes and
            # its precedence exactly — ``predicate`` memoizes, so a
            # leaf endpoint that coincides with a range endpoint costs
            # nothing extra.
            lo_faulty = predicate(r_lo)
            hi_faulty = predicate(r_hi)
            faulty_at_clean_end = lo_faulty if fails_high else hi_faulty
            faulty_at_faulty_end = hi_faulty if fails_high else lo_faulty
            if faulty_at_clean_end:
                return BorderResult(None, fails_high, always_faulty=True,
                                    never_faulty=False, r_lo=r_lo,
                                    r_hi=r_hi)
            if not faulty_at_faulty_end:
                return BorderResult(None, fails_high, always_faulty=False,
                                    never_faulty=True, r_lo=r_lo,
                                    r_hi=r_hi)
            return None   # endpoints contradict the leaf probes
        if (g_false_max is not None and g_true_min is not None
                and g_false_max >= g_true_min):
            return None   # probes contradict monotonicity
        leaf_ratio = hi / lo
        if g_false_max is not None and g_true_min is not None:
            # Bracketed: bisect the gap geometrically.  Adjacent leaves
            # share endpoints bitwise (both sides recompute them at the
            # common ancestor split), so re-descending reuses probes
            # through the memoizing predicate.
            target = math.sqrt(g_false_max * g_true_min)
        elif g_true_min is not None:
            # Only faulty-side evidence: gallop down, doubling the
            # leaf-count step, until the clean side is found.
            target = max(g_true_min / leaf_ratio ** step, r_lo)
            step *= 2.0
        else:
            target = min(g_false_max * leaf_ratio ** step, r_hi)
            step *= 2.0
    return None


def _log_failed_probe(resistance: float, exc: SpiceError) -> None:
    from repro.diagnostics import get_logger
    get_logger("analysis").warning(
        "border probe failed at R=%.3g ohm (%s: %s)", resistance,
        type(exc).__name__, exc)
