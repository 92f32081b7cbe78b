"""Linear devices and the diode junction model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.devices import (
    Capacitor,
    CurrentSource,
    Diode,
    Resistor,
    VoltageSource,
    diode_iv_vec,
    thermal_voltage,
)
from repro.spice.errors import NetlistError
from repro.spice.netlist import Circuit
from repro.spice.waveforms import Constant
from repro.spice import dc_operating_point, transient


class TestResistor:
    def test_rejects_nonpositive(self):
        c = Circuit()
        with pytest.raises(NetlistError):
            Resistor("R", c.node("a"), c.node("0"), 0.0)
        with pytest.raises(NetlistError):
            Resistor("R", c.node("a"), c.node("0"), -5.0)

    def test_divider_dc(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(3.0)))
        c.add(Resistor("R1", c.node("in"), c.node("mid"), 1e3))
        c.add(Resistor("R2", c.node("mid"), c.node("0"), 2e3))
        op = dc_operating_point(c)
        assert op["mid"] == pytest.approx(2.0, rel=1e-6)

    @given(st.floats(1.0, 1e6), st.floats(1.0, 1e6))
    def test_divider_ratio_property(self, r1, r2):
        c = Circuit()
        c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(1.0)))
        c.add(Resistor("R1", c.node("in"), c.node("mid"), r1))
        c.add(Resistor("R2", c.node("mid"), c.node("0"), r2))
        op = dc_operating_point(c)
        assert op["mid"] == pytest.approx(r2 / (r1 + r2), rel=1e-4)


class TestCapacitor:
    def test_rejects_nonpositive(self):
        c = Circuit()
        with pytest.raises(NetlistError):
            Capacitor("C", c.node("a"), c.node("0"), -1e-12)

    def test_open_in_dc(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(2.0)))
        c.add(Resistor("R", c.node("in"), c.node("out"), 1e3))
        c.add(Capacitor("C", c.node("out"), c.node("0"), 1e-9))
        op = dc_operating_point(c)
        # No DC path to ground besides gmin -> output floats to the input.
        assert op["out"] == pytest.approx(2.0, rel=1e-3)

    def test_holds_initial_condition(self):
        c = Circuit()
        c.add(Resistor("R", c.node("a"), c.node("0"), 1e12))
        c.add(Capacitor("C", c.node("a"), c.node("0"), 1e-9))
        res = transient(c, 1e-6, 1e-8, initial={"a": 1.7})
        assert res.final("a") == pytest.approx(1.7, abs=1e-3)


class TestSources:
    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add(CurrentSource("I", c.node("0"), c.node("a"), Constant(1e-3)))
        c.add(Resistor("R", c.node("a"), c.node("0"), 1e3))
        op = dc_operating_point(c)
        assert op["a"] == pytest.approx(1.0, rel=1e-6)

    def test_voltage_source_forces_node(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("a"), c.node("0"), Constant(-1.2)))
        c.add(Resistor("R", c.node("a"), c.node("0"), 50.0))
        op = dc_operating_point(c)
        assert op["a"] == pytest.approx(-1.2)

    def test_floating_differential_source(self):
        c = Circuit()
        c.add(VoltageSource("V1", c.node("a"), c.node("0"), Constant(2.0)))
        c.add(VoltageSource("V2", c.node("b"), c.node("a"), Constant(0.5)))
        c.add(Resistor("R", c.node("b"), c.node("0"), 1e3))
        op = dc_operating_point(c)
        assert op["b"] == pytest.approx(2.5)


class TestDiode:
    def test_forward_conduction(self):
        d = Diode("D", Circuit().node("a"), Circuit().node("0"),
                  isat=1e-14)
        i, g = d.iv(0.7, 27.0)
        assert i > 1e-4
        assert g > 0

    def test_reverse_saturation(self):
        c = Circuit()
        d = Diode("D", c.node("a"), c.node("0"), isat=1e-12)
        i, _ = d.iv(-1.0, 27.0)
        assert i == pytest.approx(-1e-12, rel=1e-3)

    def test_temperature_doubling(self):
        c = Circuit()
        d = Diode("D", c.node("a"), c.node("0"), isat=1e-12,
                  isat_tdouble=10.0, temp_nom_c=27.0)
        assert d.isat_at(37.0) == pytest.approx(2e-12)
        assert d.isat_at(27.0) == pytest.approx(1e-12)
        assert d.isat_at(17.0) == pytest.approx(0.5e-12)

    def test_exp_clamp_no_overflow(self):
        c = Circuit()
        d = Diode("D", c.node("a"), c.node("0"))
        i, g = d.iv(100.0, 27.0)   # absurd forward bias
        assert math.isfinite(i)
        assert math.isfinite(g)

    def test_rejects_bad_isat(self):
        c = Circuit()
        with pytest.raises(NetlistError):
            Diode("D", c.node("a"), c.node("0"), isat=0.0)

    @pytest.mark.parametrize("field, value", [
        ("isat", math.nan), ("isat", -1e-14), ("emission", 0.0),
        ("emission", -1.0), ("emission", math.nan),
        ("isat_tdouble", 0.0), ("isat_tdouble", math.nan),
        ("temp_nom_c", math.nan), ("temp_nom_c", math.inf)])
    def test_rejects_nan_and_out_of_range_parameters(self, field, value):
        c = Circuit()
        with pytest.raises(NetlistError, match=field):
            Diode("D", c.node("a"), c.node("0"), **{field: value})

    def test_dc_forward_drop(self):
        c = Circuit()
        c.add(VoltageSource("V", c.node("in"), c.node("0"), Constant(2.0)))
        c.add(Resistor("R", c.node("in"), c.node("a"), 1e3))
        c.add(Diode("D", c.node("a"), c.node("0"), isat=1e-14))
        op = dc_operating_point(c)
        assert 0.5 < op["a"] < 0.8    # a silicon-ish forward drop


_EPS = np.finfo(float).eps


@st.composite
def _diode_batches(draw):
    """Diodes (emission, isat, temperature) and ``(lanes, devices)``
    junction voltages, including the exp clamp edge, ``v`` near 0 and
    NaN."""
    n_lanes, n_dev = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    c = Circuit()
    temp_c = draw(st.floats(-50.0, 150.0))
    diodes = [Diode(f"D{j}", c.node("a"), c.node("0"),
                    isat=draw(st.floats(1e-18, 1e-9)),
                    emission=draw(st.floats(0.8, 2.0)))
              for j in range(n_dev)]
    vt = np.array([d.emission * thermal_voltage(temp_c) for d in diodes])
    v = np.empty((n_lanes, n_dev))
    for k in range(n_lanes):
        for j in range(n_dev):
            edge = 80.0 * vt[j]
            v[k, j] = draw(st.floats(-5.0, 5.0)
                           | st.floats(-1e-6, 1e-6)
                           | st.sampled_from(
                               [edge, math.nextafter(edge, math.inf),
                                math.nextafter(edge, 0.0), 0.0,
                                math.nan]))
    return diodes, temp_c, v


class TestDiodeArrayModes:
    """The one array diode function in its two transcendental modes."""

    @given(_diode_batches())
    @settings(max_examples=200, deadline=None)
    def test_exact_mode_is_scalar_iv_bitwise(self, batch):
        diodes, temp_c, v = batch
        vt = np.array([d.emission * thermal_voltage(temp_c) for d in diodes])
        isat = np.array([d.isat_at(temp_c) for d in diodes])
        got = diode_iv_vec(v, vt, isat)
        for k, j in np.ndindex(v.shape):
            want = diodes[j].iv(v[k, j], temp_c)
            assert [float(g[k, j]).hex() for g in got] \
                == [w.hex() for w in want]

    @given(_diode_batches())
    @settings(max_examples=200, deadline=None)
    def test_simd_mode_matches_exact_mode(self, batch):
        """Same NaNs, values to 1e-12; ``i = isat (e - 1)`` cancels near
        ``v = 0``, so it also gets a few-ulp floor of ``isat * e``."""
        diodes, temp_c, v = batch
        vt = np.array([d.emission * thermal_voltage(temp_c) for d in diodes])
        isat = np.array([d.isat_at(temp_c) for d in diodes])
        exact = diode_iv_vec(v, vt, isat)
        simd = diode_iv_vec(v, vt, isat, exact=False)
        e = exact[1] * vt / isat
        floor = 8 * _EPS * isat * np.abs(e)
        for name, a, b in zip(("i", "gd"), exact, simd):
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            ok = ~np.isnan(a)
            atol = floor[ok] if name == "i" else 0.0
            assert np.all(np.abs(b[ok] - a[ok])
                          <= 1e-12 * np.abs(a[ok]) + atol), name


class TestThermalVoltage:
    def test_room_temperature(self):
        assert thermal_voltage(27.0) == pytest.approx(0.02585, rel=1e-3)

    def test_monotone_in_temperature(self):
        assert thermal_voltage(87.0) > thermal_voltage(27.0) > \
            thermal_voltage(-33.0)
