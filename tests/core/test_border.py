"""Per-SC border identification and the effectiveness criterion."""

import pytest

from repro.analysis.border import BorderResult
from repro.behav import behavioral_model
from repro.core import find_border_resistance, more_effective
from repro.core.border import border_improvement
from repro.defects import Defect, DefectKind
from repro.stress import NOMINAL_STRESS


def _border(resistance, fails_high=True):
    return BorderResult(resistance, fails_high, False, False, 1e3, 1e7)


class TestEffectivenessCriterion:
    def test_opens_prefer_lower_border(self):
        d = Defect(DefectKind.O3)
        assert more_effective(d, _border(1e5), _border(2e5))
        assert not more_effective(d, _border(2e5), _border(1e5))

    def test_shorts_prefer_higher_border(self):
        d = Defect(DefectKind.SG)
        a, b = _border(8e5, False), _border(4e5, False)
        assert more_effective(d, a, b)

    def test_always_faulty_beats_everything(self):
        d = Defect(DefectKind.O3)
        all_fail = BorderResult(None, True, True, False, 1e3, 1e7)
        assert more_effective(d, all_fail, _border(1e4))

    def test_never_faulty_loses(self):
        d = Defect(DefectKind.O3)
        none_fail = BorderResult(None, True, False, True, 1e3, 1e7)
        assert not more_effective(d, none_fail, _border(1e6))


class TestImprovementMetric:
    def test_open_improvement_positive_when_border_drops(self):
        d = Defect(DefectKind.O3)
        assert border_improvement(d, _border(2e5), _border(1e5)) == \
            pytest.approx(1e5)

    def test_short_improvement_positive_when_border_rises(self):
        d = Defect(DefectKind.SG)
        assert border_improvement(d, _border(4e5, False),
                                  _border(6e5, False)) == pytest.approx(2e5)

    def test_degenerate_stressed_all_fail(self):
        d = Defect(DefectKind.O3)
        all_fail = BorderResult(None, True, True, False, 1e3, 1e7)
        assert border_improvement(d, _border(2e5), all_fail) == \
            float("inf")

    def test_equal_degenerates_zero(self):
        d = Defect(DefectKind.O3)
        all_fail = BorderResult(None, True, True, False, 1e3, 1e7)
        assert border_improvement(d, all_fail, all_fail) == 0.0


class TestRealBorders:
    def test_stress_reduces_open_border(self):
        defect = Defect(DefectKind.O3, resistance=2e5)
        model = behavioral_model(defect)
        nominal = find_border_resistance(model, defect,
                                         stress=NOMINAL_STRESS)
        stressed = find_border_resistance(
            model, defect,
            stress=NOMINAL_STRESS.with_(vdd=2.1, tcyc=55e-9,
                                        temp_c=87.0))
        assert nominal.found and stressed.found
        assert stressed.resistance < nominal.resistance

    def test_uses_defect_search_range(self):
        defect = Defect(DefectKind.O2, resistance=1e6)
        model = behavioral_model(defect)
        border = find_border_resistance(model, defect,
                                        stress=NOMINAL_STRESS)
        lo, hi = defect.kind.search_range
        if border.found:
            assert lo <= border.resistance <= hi

    @pytest.mark.parametrize("rel_tol", [0.0, float("nan")])
    def test_rejects_non_positive_or_nan_rel_tol(self, rel_tol):
        defect = Defect(DefectKind.O3, resistance=2e5)
        with pytest.raises(ValueError, match="rel_tol"):
            find_border_resistance(behavioral_model(defect), defect,
                                   rel_tol=rel_tol, surrogate=False)
