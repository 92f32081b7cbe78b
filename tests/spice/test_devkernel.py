"""Compiled Newton device pass: bitwise parity and loader robustness.

The compiled kernel (``repro/spice/_devkernel.c``) must reproduce the
exact numpy array pass (``NonlinearPlan._apply_vec``, libm
transcendentals) and the per-device ``stamp_*`` walk
(``System(use_plans=False)``) bit for bit on every slot of the
``[A | scrapA | b | scrapB]`` scratch — also at the edges of the device
models: NaN iterates, the softplus argument exactly at +-60 and one ulp
either side, the diode argument at its clamp, ground terminals and both
source/drain orientations.  Bit patterns are compared with every NaN
canonicalized, i.e. ``float.hex`` equality (signed zeros must match).

The loader tests isolate the library cache per test and cover the
fallback without a compiler, corrupt and stale cached libraries, an
edited source, an unwritable cache and two processes building at once.
"""

import functools
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dram.array import build_array
from repro.dram.column import build_column
from repro.spice import devkernel
from repro.spice import Circuit, Diode, Mosfet, NMOS_DEFAULT, PMOS_DEFAULT
from repro.spice.devices import thermal_voltage
from repro.spice.mna import System
from repro.spice.netlist import AnalysisContext

SRC = Path(__file__).resolve().parents[2] / "src"

NETS = {
    "column": lambda: build_column().circuit,
    "array4": lambda: build_array(4, 4).circuit,
    "array16": lambda: build_array(16, 16).circuit,
}
TEMPS = (-40.0, 27.0, 125.0)
MOS_CLAMP, DIODE_CLAMP = 60.0, 80.0


@pytest.fixture(scope="module")
def kernel():
    if devkernel.load() is None:
        pytest.skip(f"no compiled device kernel: {devkernel.describe()}")


@functools.lru_cache(maxsize=None)
def _systems(net: str):
    """(planned system, per-device walk system) of one netlist."""
    return System(NETS[net]()), System(NETS[net](), use_plans=False)


def _bits(a) -> np.ndarray:
    """Bit patterns with NaNs canonicalized (``float.hex`` equality)."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.view(np.uint64)


def _same(a, b) -> bool:
    return np.array_equal(_bits(a), _bits(b))


def _v(x, i):
    return 0.0 if i < 0 else x[i]


def _nudge(x, node, f, target, direction) -> None:
    """Step ``x[node]`` by ulps towards ``f(x) == target`` (``f`` grows
    with ``direction * x[node]``); stops on the closest reachable value
    when one ulp of ``x[node]`` moves ``f`` by more than one of its own."""
    for _ in range(400):
        got = f()
        if got == target or np.isnan(got):
            return
        step = np.nextafter(x[node],
                            np.sign((target - got) * direction) * np.inf)
        old, x[node] = x[node], step
        if abs(f() - target) >= abs(got - target):
            x[node] = old
            return


def _aim_mosfet(x, nl, k, temp_c, target, swap) -> None:
    """Put mosfet ``k`` in orientation ``swap`` with its normalized
    overdrive ``u`` at (or, where the netlist's parameters make ``u``
    coarser than one ulp, next to) ``target``."""
    m = nl.mosfets[k]
    d, g, s = m.drain.index, m.gate.index, m.source.index
    if g < 0 or g in (d, s):
        return
    _, nvt, vth, _, _, _ = nl._temp_params(temp_c)
    p = nl._mos_pol[k]
    nd, ns = (s, d) if swap else (d, s)
    if ns >= 0:
        x[ns] = 0.0 if nd >= 0 else -p * 2.0**-10
    if nd >= 0:
        x[nd] = _v(x, ns) + p * 2.0**-10
    vns = _v(x, ns)
    x[g] = vns + p * (vth[k] + target * nvt[k])
    _nudge(x, g, lambda: (p * (x[g] - vns) - vth[k]) / nvt[k], target, p)


def _aim_diode(x, nl, k, temp_c, target) -> None:
    """Put diode ``k``'s exponent argument ``v / vt`` at ``target``."""
    dio = nl.diodes[k]
    a, c = dio.anode.index, dio.cathode.index
    vt = nl._temp_params(temp_c)[5][k]
    node, sign = (a, 1.0) if a >= 0 else (c, -1.0)
    x[node] = (_v(x, c) if a >= 0 else 0.0) + sign * target * vt
    _nudge(x, node, lambda: (_v(x, a) - _v(x, c)) / vt, target, sign)


def _edges(clamp):
    up, down = np.nextafter(clamp, np.inf), np.nextafter(clamp, -np.inf)
    return [clamp, up, down, -clamp, -up, -down]


@st.composite
def iterates(draw, net):
    """An adversarial iterate for one netlist and temperature."""
    sys_p, _ = _systems(net)
    nl = sys_p.plans.nonlinear
    temp_c = draw(st.sampled_from(TEMPS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-3.0, 3.0, sys_p.size)
    for _ in range(draw(st.integers(0, 3))):
        x[draw(st.integers(0, sys_p.size - 1))] = np.nan
    for _ in range(draw(st.integers(0, 4))):
        _aim_mosfet(x, nl, draw(st.integers(0, len(nl.mosfets) - 1)),
                    temp_c, draw(st.sampled_from(_edges(MOS_CLAMP))),
                    draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        _aim_diode(x, nl, draw(st.integers(0, len(nl.diodes) - 1)),
                   temp_c, draw(st.sampled_from(_edges(DIODE_CLAMP)[:3])))
    return x, temp_c, rng


def _three_ways(net, x, temp_c, rng) -> None:
    """Compiled kernel vs exact array pass vs per-device stamp walk."""
    sys_p, sys_f = _systems(net)
    nl, size = sys_p.plans.nonlinear, sys_p.size
    n2 = size * size
    A0 = rng.standard_normal((size, size))
    b0 = rng.standard_normal(size)
    base = np.concatenate([A0.ravel(), [0.0], b0, [0.0]])
    compiled, numpy_pass = base.copy(), base.copy()
    assert nl.apply(compiled, x, temp_c)
    nl._apply_vec(numpy_pass, x, temp_c)
    assert _same(compiled, numpy_pass)
    ctx = AnalysisContext(time=0.0, dt=None, temp_c=temp_c, x=x, x_prev=x)
    A, b = sys_f.build_iteration(A0, b0, ctx)
    assert _same(compiled[:n2], A.ravel())
    assert _same(compiled[n2 + 1:-1], b)


class TestNetlistParity:
    @pytest.mark.parametrize("net,examples", [("column", 80),
                                              ("array4", 60),
                                              ("array16", 12)])
    def test_kernel_array_pass_and_stamp_walk_agree(self, kernel, net,
                                                    examples):
        @given(case=iterates(net))
        @settings(max_examples=examples, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(case):
            _three_ways(net, *case)

        check()

    @pytest.mark.parametrize("net", sorted(NETS))
    @pytest.mark.parametrize("temp_c", TEMPS)
    def test_clamp_edges_hit_exactly(self, kernel, net, temp_c):
        """Every mosfet at every softplus edge, both orientations, and
        every diode at its clamp edges — in one iterate per edge."""
        sys_p, _ = _systems(net)
        nl = sys_p.plans.nonlinear
        for swap in (False, True):
            for target in _edges(MOS_CLAMP):
                x = np.full(sys_p.size, 0.3)
                for k in range(len(nl.mosfets)):
                    _aim_mosfet(x, nl, k, temp_c, target, swap)
                _three_ways(net, x, temp_c, np.random.default_rng(1))
        for target in _edges(DIODE_CLAMP)[:3]:
            x = np.full(sys_p.size, -0.2)
            for k in range(len(nl.diodes)):
                _aim_diode(x, nl, k, temp_c, target)
            _three_ways(net, x, temp_c, np.random.default_rng(2))


def _one_mosfet(polarity, temp_c, d, g, s):
    """One mosfet plus one diode, with parameters for which every clamp
    edge is reachable at ``temp_c``: ``n_ss`` puts ``60 nvt + vth`` just
    below 4 V, where one ulp of the gate voltage moves ``u`` by less than
    one ulp of 60, and ``emission`` puts ``80 vt`` just below 2 V."""
    vt = thermal_voltage(temp_c)
    params = (NMOS_DEFAULT if polarity == "n" else PMOS_DEFAULT).with_(
        vth0=0.05, vth_tc=0.0, n_ss=0.0655 / vt)
    c = Circuit()
    nodes = {n: c.node(n) for n in ("0", "d", "g", "s", "a")}
    c.add(Mosfet("M", nodes[d], nodes[g], nodes[s], params))
    c.add(Diode("D", nodes["a"], nodes["0"], emission=0.0245 / vt))
    return System(c)


TERMINALS = [("d", "g", "s"), ("d", "g", "0"), ("0", "g", "s"),
             ("d", "0", "s")]


class TestSingleDeviceEdges:
    @pytest.mark.parametrize("polarity", ["n", "p"])
    @pytest.mark.parametrize("terms", TERMINALS)
    @pytest.mark.parametrize("temp_c", TEMPS)
    def test_edges_with_ground_terminals(self, kernel, polarity, terms,
                                         temp_c):
        system = _one_mosfet(polarity, temp_c, *terms)
        nl = system.plans.nonlinear
        size = system.size
        cases = [(swap, t) for swap in (False, True)
                 for t in _edges(MOS_CLAMP)] + [(False, np.nan)]
        for (swap, target), d_target in zip(
                cases, itertools.cycle(_edges(DIODE_CLAMP)[:3])):
            x = np.zeros(size)
            if np.isnan(target):
                x[:] = np.nan
            else:
                _aim_mosfet(x, nl, 0, temp_c, target, swap)
                _aim_diode(x, nl, 0, temp_c, d_target)
            flats = [np.zeros(size * size + size + 2) for _ in range(2)]
            assert nl.apply(flats[0], x, temp_c)
            nl._apply_vec(flats[1], x, temp_c)
            assert ([v.hex() for v in flats[0].tolist()]
                    == [v.hex() for v in flats[1].tolist()])

    @pytest.mark.parametrize("polarity", ["n", "p"])
    @pytest.mark.parametrize("terms", TERMINALS)
    @pytest.mark.parametrize("temp_c", TEMPS)
    def test_aiming_reaches_every_edge(self, polarity, terms, temp_c):
        """The edge helpers put ``u`` and the diode argument exactly on
        each edge, in the requested orientation, so the parity test
        above exercises the clamps rather than values near them."""
        system = _one_mosfet(polarity, temp_c, *terms)
        nl = system.plans.nonlinear
        m, dio = nl.mosfets[0], nl.diodes[0]
        _, nvt, vth, _, _, di_vt = nl._temp_params(temp_c)
        p = nl._mos_pol[0]
        d, g, s = m.drain.index, m.gate.index, m.source.index
        for swap in (False, True):
            for target in _edges(MOS_CLAMP):
                x = np.zeros(system.size)
                _aim_mosfet(x, nl, 0, temp_c, target, swap)
                if g < 0:
                    continue  # grounded gate: u is fixed by vth
                vd, vs = _v(x, d), _v(x, s)
                assert (p * (vd - vs) < 0.0) == swap
                vns = vd if swap else vs
                assert (p * (x[g] - vns) - vth[0]) / nvt[0] == target
        for target in _edges(DIODE_CLAMP)[:3]:
            x = np.zeros(system.size)
            _aim_diode(x, nl, 0, temp_c, target)
            assert x[dio.anode.index] / di_vt[0] == target


# ----------------------------------------------------------------------
# loader robustness
# ----------------------------------------------------------------------
@pytest.fixture
def cache(monkeypatch, tmp_path):
    """A private, empty library cache and a fresh loader state."""
    root = tmp_path / "cache"
    monkeypatch.setattr(devkernel, "cache_dir", lambda: str(root))
    devkernel.reset()
    yield root
    devkernel.reset()


def _library(root: Path) -> Path:
    (lib,) = root.glob("devkernel-*.so")
    return lib


def _column_run():
    from repro.analysis.interface import electrical_model
    from repro.diagnostics import diagnostics, reset_diagnostics
    from repro.experiments.figures import REFERENCE_DEFECT
    reset_diagnostics()
    seq = electrical_model(REFERENCE_DEFECT, record=True).run_sequence(
        "w0 w1 r1", init_vc=0.0)
    return seq, dict(diagnostics().solver_kernels)


class TestLoader:
    def test_no_compiler_falls_back_bitwise(self, kernel, cache,
                                            monkeypatch):
        compiled, kc = _column_run()
        assert kc["device_kernel_compiled"] > 0
        assert "device_kernel_numpy" not in kc
        devkernel.reset()
        monkeypatch.setattr(devkernel, "compiler", lambda: None)
        fallback, kc = _column_run()
        assert devkernel.describe() == "numpy (no C compiler)"
        assert kc["device_kernel_numpy"] > 0
        assert "device_kernel_compiled" not in kc
        for a, b in zip(compiled.results, fallback.results):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.vc, b.vc)
            assert a.sensed == b.sensed

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
    def test_damaged_cached_library_is_rebuilt(self, kernel, cache, damage):
        cc, src = devkernel.compiler(), devkernel.source()
        key = devkernel.library_key(src, cc)
        path = cache / f"devkernel-{key}.so"
        assert devkernel.build(cc, src, key, str(path))
        good = path.read_bytes()
        path.write_bytes({"truncate": good[:len(good) // 2],
                          "garbage": b"\x7fELF" + os.urandom(4096),
                          "empty": b""}[damage])
        assert devkernel.load() is not None
        assert devkernel.describe() == "compiled"
        assert path.stat().st_size == len(good)

    def test_foreign_library_under_the_name_is_never_loaded(self, kernel,
                                                            cache,
                                                            monkeypatch):
        """A valid library of another source sitting at this source's
        name is rejected before the loader maps it, and rebuilt."""
        cc, src = devkernel.compiler(), devkernel.source()
        other = src + b"\n/* another revision */\n"
        key = devkernel.library_key(src, cc)
        path = cache / f"devkernel-{key}.so"
        assert devkernel.build(cc, other, "not-" + key, str(path))
        assert devkernel.open_library(str(path), key) is None
        assert devkernel.load() is not None
        assert f"repro-devkernel:{key}".encode() in path.read_bytes()

    def test_edited_source_gets_a_new_library(self, kernel, cache,
                                              monkeypatch):
        assert devkernel.load() is not None
        first = _library(cache)
        edited = devkernel.source() + b"\n/* edited */\n"
        monkeypatch.setattr(devkernel, "source", lambda: edited)
        devkernel.reset()
        assert devkernel.load() is not None
        second = _library(cache)  # the stale build is pruned
        assert second != first
        assert second.name == "devkernel-%s.so" % devkernel.library_key(
            edited, devkernel.compiler())

    def test_unwritable_cache_builds_in_a_temp_dir(self, kernel, tmp_path,
                                                   monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setattr(devkernel, "cache_dir",
                            lambda: str(blocker / "cache"))
        devkernel.reset()
        try:
            assert devkernel.load() is not None
            assert "temp build" in devkernel.describe(path=True)
        finally:
            devkernel.reset()

    def test_concurrent_builders_both_load(self, kernel, tmp_path):
        """Two interpreters racing to build the same library (cache under
        ``sys.pycache_prefix``) both end up with a working kernel."""
        prog = (
            "import numpy as np\n"
            "from repro.spice import devkernel\n"
            "from repro.dram.column import build_column\n"
            "from repro.spice.mna import System\n"
            "s = System(build_column().circuit)\n"
            "nl = s.plans.nonlinear\n"
            "x = np.linspace(-1, 3, s.size)\n"
            "a = np.zeros(s.size * s.size + s.size + 2); b = a.copy()\n"
            "assert nl.apply(a, x, 27.0)\n"
            "nl._apply_vec(b, x, 27.0)\n"
            "assert np.array_equal(a, b)\n"
            "print(devkernel.describe(path=True))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONPYCACHEPREFIX=str(tmp_path / "prefix"))
        procs = [subprocess.Popen([sys.executable, "-c", prog], env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=240) for p in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
            assert out.startswith("compiled (" + str(tmp_path / "prefix"))
        libs = list((tmp_path / "prefix").rglob("devkernel-*"))
        assert len(libs) == 1 and libs[0].suffix == ".so"

    def test_binding_refuses_buffers_it_would_overrun(self, kernel):
        system = System(build_column().circuit)
        nl, size = system.plans.nonlinear, system.size
        x = np.zeros(size)
        with pytest.raises(ValueError):
            nl.apply(np.zeros(size * size), x, 27.0)
        with pytest.raises(ValueError):
            nl.apply(np.zeros(size * size + size + 2, dtype=np.float32), x,
                     27.0)
        with pytest.raises(ValueError):
            nl.apply(np.zeros((size * size + size + 2) * 2)[::2], x, 27.0)
        bad = nl._k_dev.copy()
        bad[0, 1] = size
        with pytest.raises(ValueError):
            devkernel.bind(size, bad)

    def test_pickled_plan_rebinds(self, kernel):
        system = System(build_column().circuit)
        nl = system.plans.nonlinear
        x = np.linspace(-1.0, 3.0, system.size)
        a = np.zeros(system.size ** 2 + system.size + 2)
        assert nl.apply(a, x, 27.0)
        clone = pickle.loads(pickle.dumps(system)).plans.nonlinear
        b = np.zeros_like(a)
        assert clone.apply(b, x, 27.0)
        assert np.array_equal(a, b)


def test_behavioral_runs_never_touch_the_kernel():
    """``import repro`` and the behavioral deliverables neither import
    the loader nor start a compiler."""
    prog = ("import sys\n"
            "import repro\n"
            "from repro.__main__ import main\n"
            "assert main(['planes', '--points', '2']) == 0\n"
            "assert 'repro.spice.devkernel' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", prog],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=240)
    assert done.returncode == 0, done.stderr
