"""Level-1 MOSFET model: regions, symmetry, temperature dependence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.errors import NetlistError
from repro.spice.mosfet import (
    Mosfet,
    MosfetParams,
    NMOS_DEFAULT,
    PMOS_DEFAULT,
    _softplus_sigmoid,
    level1_curves,
    mosfet_curves,
    mosfet_curves_vec,
)
from repro.spice.devices import thermal_voltage
from repro.spice.netlist import Circuit
from repro.dram.tech import default_tech


def _nmos(w=1e-6, l=0.25e-6, params=NMOS_DEFAULT):
    c = Circuit()
    return Mosfet("M", c.node("d"), c.node("g"), c.node("s"), params,
                  w=w, l=l)


def _pmos(w=1e-6, l=0.25e-6):
    c = Circuit()
    return Mosfet("M", c.node("d"), c.node("g"), c.node("s"),
                  PMOS_DEFAULT, w=w, l=l)


class TestParams:
    def test_rejects_bad_polarity(self):
        with pytest.raises(NetlistError):
            MosfetParams(polarity="x")

    def test_rejects_nonpositive_kp(self):
        with pytest.raises(NetlistError):
            MosfetParams(kp=0.0)

    @pytest.mark.parametrize("field, value", [
        ("kp", math.nan), ("kp", -1e-6), ("vth0", math.nan),
        ("vth0", 0.0), ("n_ss", math.nan), ("n_ss", 0.5),
        ("lam", math.nan), ("lam", math.inf), ("mu_exp", math.nan),
        ("vth_tc", -math.inf), ("temp_nom_c", math.nan)])
    def test_rejects_nan_and_out_of_range_fields(self, field, value):
        with pytest.raises(NetlistError, match=field):
            MosfetParams(**{field: value})
        with pytest.raises(NetlistError):
            NMOS_DEFAULT.with_(**{field: value})

    @pytest.mark.parametrize("w, l", [
        (math.nan, 0.25e-6), (1e-6, math.nan), (0.0, 0.25e-6),
        (1e-6, -0.25e-6)])
    def test_mosfet_rejects_bad_geometry(self, w, l):
        with pytest.raises(NetlistError):
            _nmos(w=w, l=l)

    def test_kp_falls_with_temperature(self):
        p = NMOS_DEFAULT
        assert p.kp_at(87.0) < p.kp_at(27.0) < p.kp_at(-33.0)

    def test_kp_nominal_unchanged(self):
        assert NMOS_DEFAULT.kp_at(27.0) == pytest.approx(NMOS_DEFAULT.kp)

    def test_vth_falls_with_temperature(self):
        p = NMOS_DEFAULT
        assert p.vth_at(87.0) < p.vth_at(27.0) < p.vth_at(-33.0)

    def test_vth_clamped_positive(self):
        p = NMOS_DEFAULT.with_(vth0=0.06, vth_tc=-1e-2)
        assert p.vth_at(200.0) == pytest.approx(0.05)

    def test_with_replaces_fields(self):
        p = NMOS_DEFAULT.with_(vth0=0.7)
        assert p.vth0 == 0.7
        assert p.kp == NMOS_DEFAULT.kp


class TestRegions:
    def test_off_below_threshold(self):
        m = _nmos()
        # Deep subthreshold: orders below on-current
        i_off = m.ids(vgs=0.0, vds=1.0)
        i_on = m.ids(vgs=2.0, vds=1.0)
        assert i_off < i_on * 1e-6

    def test_subthreshold_exponential(self):
        m = _nmos()
        i1 = m.ids(vgs=0.30, vds=1.0)
        i2 = m.ids(vgs=0.20, vds=1.0)
        assert i1 / i2 > 5.0   # decade-ish per ~100 mV at n=1.5

    def test_triode_linear_in_small_vds(self):
        m = _nmos()
        i1 = m.ids(vgs=2.0, vds=0.01)
        i2 = m.ids(vgs=2.0, vds=0.02)
        assert i2 / i1 == pytest.approx(2.0, rel=0.02)

    def test_saturation_weakly_depends_on_vds(self):
        m = _nmos(params=NMOS_DEFAULT.with_(lam=0.0))
        i1 = m.ids(vgs=1.5, vds=1.5)
        i2 = m.ids(vgs=1.5, vds=2.5)
        assert i2 == pytest.approx(i1, rel=1e-6)

    def test_channel_length_modulation(self):
        m = _nmos()
        i1 = m.ids(vgs=1.5, vds=1.5)
        i2 = m.ids(vgs=1.5, vds=2.5)
        assert i2 > i1

    def test_square_law_in_overdrive(self):
        m = _nmos(params=NMOS_DEFAULT.with_(lam=0.0))
        i1 = m.ids(vgs=NMOS_DEFAULT.vth0 + 0.5, vds=3.0)
        i2 = m.ids(vgs=NMOS_DEFAULT.vth0 + 1.0, vds=3.0)
        assert i2 / i1 == pytest.approx(4.0, rel=0.05)

    def test_width_scaling(self):
        i1 = _nmos(w=1e-6).ids(2.0, 1.0)
        i2 = _nmos(w=2e-6).ids(2.0, 1.0)
        assert i2 / i1 == pytest.approx(2.0, rel=1e-9)

    def test_continuity_at_saturation_edge(self):
        params = NMOS_DEFAULT
        w_over_l = 4.0
        vgs = 1.5
        veff = vgs - params.vth0
        i_lo, _, _ = mosfet_curves(params, w_over_l, vgs, veff - 1e-6,
                                   27.0)
        i_hi, _, _ = mosfet_curves(params, w_over_l, vgs, veff + 1e-6,
                                   27.0)
        assert i_lo == pytest.approx(i_hi, rel=1e-4)


_PARAMS = (NMOS_DEFAULT, PMOS_DEFAULT, default_tech().access_params)
_VGS = st.floats(-3.0, 5.0)
_VDS = st.floats(0.0, 4.0)
_TEMP = st.floats(-50.0, 150.0)


class TestLevel1Core:
    """The scalar core is the one copy of the device equations; the
    parameter-resolving wrapper and the vectorized form must match it
    bit for bit."""

    @given(params=st.sampled_from(_PARAMS), w_over_l=st.floats(0.5, 20.0),
           vgs=_VGS, vds=_VDS, temp_c=_TEMP)
    def test_wrapper_is_core_at_resolved_params(self, params, w_over_l,
                                                 vgs, vds, temp_c):
        core = level1_curves(params.kp_at(temp_c) * w_over_l,
                             params.n_ss * thermal_voltage(temp_c),
                             params.vth_at(temp_c), params.lam, vgs, vds)
        wrapped = mosfet_curves(params, w_over_l, vgs, vds, temp_c)
        assert [x.hex() for x in core] == [x.hex() for x in wrapped]

    @given(st.lists(st.tuples(st.sampled_from(_PARAMS),
                              st.floats(0.5, 20.0), _VGS, _VDS, _TEMP),
                    min_size=1, max_size=12))
    def test_vectorized_matches_core_elementwise(self, devices):
        rows = [(p.kp_at(t) * wl, p.n_ss * thermal_voltage(t), p.vth_at(t),
                 p.lam, vgs, vds) for p, wl, vgs, vds, t in devices]
        vec = mosfet_curves_vec(*(np.array(col) for col in zip(*rows)))
        for i, row in enumerate(rows):
            assert [float(v[i]).hex() for v in vec] \
                == [x.hex() for x in level1_curves(*row)]


_EPS = np.finfo(float).eps
_NVT_EDGE = 2.0 ** -5   # u = vgs / nvt is exact for this nvt and vth = 0
#: Softplus argument edges: the clamp at +-60, one ulp either side, NaN.
_U_EDGES = (60.0, -60.0, math.nextafter(60.0, math.inf),
            math.nextafter(-60.0, -math.inf), math.nextafter(60.0, 0.0),
            math.nextafter(-60.0, 0.0), math.nan)


@st.composite
def _lane_batches(draw):
    """Per-device ``(beta, nvt, vth, lam)`` and ``(lanes, devices)``
    ``vgs``/``vds``; edge devices put ``u`` exactly on the clamp edges."""
    n_lanes, n_dev = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cols, edge = [], []
    for _ in range(n_dev):
        beta = draw(st.floats(1e-6, 1e-2))
        lam = draw(st.floats(0.0, 0.2))
        edge.append(draw(st.booleans()))
        if edge[-1]:
            cols.append((beta, _NVT_EDGE, 0.0, lam))
        else:
            cols.append((beta, draw(st.floats(0.02, 0.1)),
                         draw(st.floats(0.05, 1.0)), lam))
    vgs = np.empty((n_lanes, n_dev))
    vds = np.empty((n_lanes, n_dev))
    for k in range(n_lanes):
        for j in range(n_dev):
            if edge[j]:
                u = draw(st.sampled_from(_U_EDGES) | st.floats(-100, 100))
                vgs[k, j] = u * _NVT_EDGE
            else:
                vgs[k, j] = draw(st.floats(-5.0, 5.0) | st.just(math.nan))
            vds[k, j] = draw(st.floats(0.0, 5.0))
    beta, nvt, vth, lam = (np.array(c) for c in zip(*cols))
    return beta, nvt, vth, lam, vgs, vds


class TestArrayModes:
    """The one array MOSFET function in its two transcendental modes."""

    @given(_lane_batches())
    @settings(max_examples=200, deadline=None)
    def test_exact_mode_is_scalar_core_bitwise(self, batch):
        beta, nvt, vth, lam, vgs, vds = batch
        got = mosfet_curves_vec(beta, nvt, vth, lam, vgs, vds)
        for k, j in np.ndindex(vgs.shape):
            want = level1_curves(beta[j], nvt[j], vth[j], lam[j],
                                 vgs[k, j], vds[k, j])
            assert [float(g[k, j]).hex() for g in got] \
                == [w.hex() for w in want]

    @given(_lane_batches())
    @settings(max_examples=200, deadline=None)
    def test_simd_mode_matches_exact_mode(self, batch):
        """Same clamps, same branches, same NaNs, values to 1e-12.

        ``gds`` in triode subtracts ``vds`` from ``veff``; near
        ``vds == veff`` a last-ulp ``veff`` difference is all that is
        left, so ``gds`` also gets a few-ulp floor of the
        ``beta * veff * clm`` term.
        """
        beta, nvt, vth, lam, vgs, vds = batch
        exact = mosfet_curves_vec(beta, nvt, vth, lam, vgs, vds)
        simd = mosfet_curves_vec(beta, nvt, vth, lam, vgs, vds,
                                 exact=False)
        u = (vgs - vth) / nvt
        sp_e, sg_e = _softplus_sigmoid(u, True)
        sp_s, sg_s = _softplus_sigmoid(u, False)
        clamped = np.abs(u) > 60.0
        assert np.array_equal(sp_e[clamped], sp_s[clamped])
        assert np.array_equal(sg_e[clamped], sg_s[clamped])
        veff = nvt * sp_e
        tie = np.abs(vds - veff) <= 8 * _EPS * np.abs(veff)
        assert np.array_equal((vds < veff)[~tie],
                              (vds < nvt * sp_s)[~tie])
        floor = 8 * _EPS * beta * np.abs(veff) * (1.0 + lam * vds)
        for name, e, s in zip(("ids", "gm", "gds"), exact, simd):
            assert np.array_equal(np.isnan(e), np.isnan(s)), name
            ok = ~np.isnan(e)
            atol = floor[ok] if name == "gds" else 0.0
            assert np.all(np.abs(s[ok] - e[ok])
                          <= 1e-12 * np.abs(e[ok]) + atol), name


class TestSymmetryAndPolarity:
    def test_source_drain_swap_antisymmetric(self):
        m = _nmos()
        # Swap the physical terminals (vg = 2.0 fixed): (vd, vs) = (1, 0)
        # gives vgs = 2, vds = 1; swapped (vd, vs) = (0, 1) gives vgs = 1,
        # vds = -1 and the same magnitude of current, reversed.
        i_fwd = m.ids(vgs=2.0, vds=1.0)
        i_rev = m.ids(vgs=1.0, vds=-1.0)
        assert i_rev == pytest.approx(-i_fwd, rel=1e-9)

    def test_pmos_mirrors_nmos_shape(self):
        m = _pmos()
        i = m.ids(vgs=-2.0, vds=-1.0)
        assert i < 0
        assert abs(i) > 1e-6

    def test_pmos_off_at_zero_vgs(self):
        m = _pmos()
        assert abs(m.ids(vgs=0.0, vds=-1.0)) < 1e-9

    def test_zero_vds_zero_current(self):
        m = _nmos()
        assert m.ids(vgs=2.0, vds=0.0) == pytest.approx(0.0, abs=1e-15)


class TestTemperature:
    def test_on_current_falls_with_temperature(self):
        m = _nmos()
        assert m.ids(2.0, 1.0, temp_c=87.0) < m.ids(2.0, 1.0, temp_c=27.0)

    def test_subthreshold_rises_with_temperature(self):
        m = _nmos()
        # Lower vth + higher vt -> more leakage at fixed low vgs.
        assert m.ids(0.2, 1.0, temp_c=87.0) > m.ids(0.2, 1.0, temp_c=27.0)

    @given(st.floats(-40.0, 120.0))
    def test_current_finite_over_temperature(self, temp):
        m = _nmos()
        i = m.ids(1.5, 1.0, temp_c=temp)
        assert math.isfinite(i)
        assert i >= 0.0


class TestGeometryValidation:
    def test_rejects_bad_geometry(self):
        c = Circuit()
        with pytest.raises(NetlistError):
            Mosfet("M", c.node("d"), c.node("g"), c.node("s"),
                   NMOS_DEFAULT, w=0.0)

    @given(st.floats(0.5, 3.0), st.floats(0.05, 3.5))
    def test_monotone_in_vgs(self, vgs_base, dv):
        m = _nmos()
        assert m.ids(vgs_base + dv, 1.0) >= m.ids(vgs_base, 1.0)
