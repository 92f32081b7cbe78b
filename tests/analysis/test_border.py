"""Border-resistance bisection: polarity handling and degenerate cases."""

import pytest

from repro.analysis import border_resistance
from repro.analysis.border import BorderResult
from repro.behav import behavioral_model
from repro.defects import Defect, DefectKind


class TestMockedPredicate:
    """Pure bisection behaviour over synthetic predicates."""

    def _model(self):
        return behavioral_model(Defect(DefectKind.O3, resistance=1e5))

    def test_fails_high_threshold_recovered(self):
        threshold = 3.3e5
        result = border_resistance(
            self._model(), fails_high=True, r_lo=1e4, r_hi=1e7,
            predicate=lambda r: r > threshold, rel_tol=0.02)
        assert result.found
        assert result.resistance == pytest.approx(threshold, rel=0.03)

    def test_fails_low_threshold_recovered(self):
        threshold = 7e4
        result = border_resistance(
            self._model(), fails_high=False, r_lo=1e3, r_hi=1e7,
            predicate=lambda r: r < threshold, rel_tol=0.02)
        assert result.found
        assert result.resistance == pytest.approx(threshold, rel=0.03)

    def test_always_faulty_reported(self):
        result = border_resistance(
            self._model(), fails_high=True, r_lo=1e4, r_hi=1e6,
            predicate=lambda r: True)
        assert result.always_faulty
        assert not result.found
        assert result.failing_range() == (1e4, 1e6)

    def test_never_faulty_reported(self):
        result = border_resistance(
            self._model(), fails_high=True, r_lo=1e4, r_hi=1e6,
            predicate=lambda r: False)
        assert result.never_faulty
        assert result.failing_range() is None

    def test_failing_range_polarity(self):
        up = BorderResult(2e5, True, False, False, 1e4, 1e6)
        down = BorderResult(2e5, False, False, False, 1e4, 1e6)
        assert up.failing_range() == (2e5, 1e6)
        assert down.failing_range() == (1e4, 2e5)

    def test_describe_mentions_direction(self):
        up = BorderResult(2e5, True, False, False, 1e4, 1e6)
        assert ">" in up.describe()
        down = BorderResult(2e5, False, False, False, 1e4, 1e6)
        assert "<" in down.describe()

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            border_resistance(self._model(), fails_high=True,
                              r_lo=1e6, r_hi=1e4)

    @pytest.mark.parametrize("rel_tol", [0.0, -0.05, float("nan")])
    @pytest.mark.parametrize("prior", [None, 3e5])
    def test_rejects_non_positive_or_nan_rel_tol(self, rel_tol, prior):
        """A zero tolerance used to spin forever (sqrt(lo*hi) stops
        moving between adjacent floats); NaN silently skipped the
        search.  Both are refused before any probe."""
        probes = []
        with pytest.raises(ValueError, match="rel_tol"):
            border_resistance(
                self._model(), fails_high=True, r_lo=1e4, r_hi=1e7,
                predicate=lambda r: probes.append(r) or r > 3e5,
                rel_tol=rel_tol, prior=prior)
        assert probes == []

    def test_prefetch_sees_each_midpoint_first(self):
        """The hook gets the bracket's midpoint tree before every
        probe and leaves the probes and the border unchanged."""
        probes, trees = [], []

        def faulty(r):
            probes.append(r)
            return r > 3.3e5

        plain = border_resistance(
            self._model(), fails_high=True, r_lo=1e4, r_hi=1e7,
            predicate=faulty, rel_tol=0.02)
        plain_probes = list(probes)
        probes.clear()
        hooked = border_resistance(
            self._model(), fails_high=True, r_lo=1e4, r_hi=1e7,
            predicate=faulty, rel_tol=0.02, prefetch=trees.append)
        assert hooked == plain
        assert probes == plain_probes
        assert [tree[0] for tree in trees] == plain_probes[2:]
        assert all(len(tree) in (1, 3) for tree in trees)
        assert len(trees[-1]) == 1


class TestRealDefects:
    def test_open_border_found(self):
        model = behavioral_model(Defect(DefectKind.O3, resistance=1e5))
        result = border_resistance(model, fails_high=True, r_lo=2e4,
                                   r_hi=5e6, rel_tol=0.05)
        assert result.found
        assert 5e4 < result.resistance < 1e6

    def test_short_border_found(self):
        model = behavioral_model(Defect(DefectKind.SG, resistance=1e5))
        result = border_resistance(model, fails_high=False, r_lo=1e3,
                                   r_hi=3e7, rel_tol=0.05)
        assert result.found
        # stronger (smaller) shorts fail
        assert result.failing_range()[0] == 1e3

    def test_true_comp_symmetric_border(self):
        from repro.defects import Placement
        rs = {}
        for placement in (Placement.TRUE, Placement.COMP):
            model = behavioral_model(
                Defect(DefectKind.O3, placement, 1e5))
            rs[placement] = border_resistance(
                model, fails_high=True, r_lo=2e4, r_hi=5e6,
                rel_tol=0.05).resistance
        assert rs[Placement.TRUE] == pytest.approx(rs[Placement.COMP],
                                                   rel=0.15)
