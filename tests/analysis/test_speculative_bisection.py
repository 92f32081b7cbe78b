"""The array border search's speculative schedule, pinned without SPICE.

A fake engine answers every probe from a synthetic monotone ``vc_end(R)``
and logs each ``map``/``run`` call's resistances.  The array border
search (shared bisection plus its ``prefetch`` hook) must issue exactly
the calls of the oracle loop in :mod:`tests.analysis.bisection_oracle`
and return the same border, with lanes on and off.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.border import SPECULATE_DEPTH, _midpoint_tree
from repro.experiments.array import activation_disturb_br

from tests.analysis.bisection_oracle import oracle_disturb_br


class FakeEngine:
    """``effective_lanes``/``map``/``run`` over a synthetic ``vc_end``."""

    def __init__(self, vc, lanes: int):
        self.vc = vc
        self.lanes = lanes
        self.calls: list[tuple[str, list[float]]] = []

    def effective_lanes(self) -> int:
        return self.lanes

    def _result(self, request):
        return SimpleNamespace(
            results=[SimpleNamespace(vc_end=self.vc(request.resistance))])

    def map(self, requests):
        requests = list(requests)
        self.calls.append(("map", [r.resistance for r in requests]))
        return [self._result(r) for r in requests]

    def run(self, request):
        self.calls.append(("run", [request.resistance]))
        return self._result(request)


def _sigmoid(crossing: float, slope: float, rising: bool):
    def vc(resistance: float) -> float:
        v = 2.4 / (1.0 + (crossing / resistance) ** slope)
        return v if rising else 2.4 - v
    return vc


def _border(fn, vc, lanes, rel_tol):
    engine = FakeEngine(vc, lanes)
    br = fn("open_sn", geometry=(4, 4), engine=engine, rel_tol=rel_tol)
    return br, engine.calls


class TestSpeculativeSchedule:
    @given(log_crossing=st.floats(2.0, 10.0),
           slope=st.floats(0.3, 3.0),
           rising=st.booleans(),
           rel_tol=st.floats(1e-4, 2.0),
           lanes=st.sampled_from([0, 1, 2, 8]))
    @settings(max_examples=150, deadline=None)
    def test_calls_and_border_match_the_oracle(self, log_crossing, slope,
                                               rising, rel_tol, lanes):
        vc = _sigmoid(10.0 ** log_crossing, slope, rising)
        got, got_calls = _border(activation_disturb_br, vc, lanes, rel_tol)
        want, want_calls = _border(oracle_disturb_br, vc,
                                   lanes, rel_tol)
        assert got_calls == want_calls
        assert got.hex() == want.hex()
        if lanes < 2:
            assert {kind for kind, _ in got_calls} == {"run"}
        else:
            assert {kind for kind, _ in got_calls} == {"map"}
            serial, _ = _border(activation_disturb_br, vc, 0, rel_tol)
            assert got == serial

    def test_first_generation_prefetches_endpoints_and_tree(self):
        vc = _sigmoid(3e5, 1.0, True)
        _, calls = _border(activation_disturb_br, vc, 8, 0.05)
        assert calls[0] == ("map", [1e3, 1e9] + _midpoint_tree(
            1e3, 1e9, SPECULATE_DEPTH))

    def test_flat_response_raises(self):
        with pytest.raises(ValueError, match="no resistance dependence"):
            _border(activation_disturb_br, lambda r: 1.0, 8, 0.05)

    def test_nan_response_raises(self):
        """A NaN end voltage has no crossing to bisect."""
        with pytest.raises(ValueError, match="never crosses"):
            _border(activation_disturb_br, lambda r: float("nan"), 8, 0.05)


class TestRelTolGuard:
    @pytest.mark.parametrize("rel_tol", [0.0, -0.1, float("nan")])
    @pytest.mark.parametrize("lanes", [0, 8])
    def test_non_positive_or_nan_rel_tol_rejected(self, rel_tol, lanes):
        vc = _sigmoid(3e5, 1.0, True)
        with pytest.raises(ValueError, match="rel_tol"):
            _border(activation_disturb_br, vc, lanes, rel_tol)
