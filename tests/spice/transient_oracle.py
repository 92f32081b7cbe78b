"""The original per-device transient step loop, kept as a parity oracle.

:func:`transient` here is the reference the compiled step loop of
:mod:`repro.spice.transient` is checked against: a ``use_plans=False``
:class:`~repro.spice.mna.System` (every layer on the per-device
``stamp_*`` walk), a ``pending`` list queue for step bisection and the
plain ``np.linalg.solve`` Newton solves, with no step-matrix or
factorization cache and no sparse backend.

``newton_solve`` and ``gmin_step_solve`` are looked up through
``repro.spice.transient`` at call time, so a test that patches them
there (failure injection) reaches both loops.  The module imports only
``numpy`` and ``repro``: ``benchmarks/bench_solver.py`` times its legacy
arm on it.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.spice.errors import ConvergenceError, SpiceError
from repro.spice.mna import DEFAULT_GMIN, System
from repro.spice.netlist import AnalysisContext, Circuit
from repro.spice.transient import (RescueEvent, TransientResult,
                                   _build_grid, _record_rescue)

# The package re-exports the transient() function under the module's
# name; resolve the module itself.
_transient_module = importlib.import_module("repro.spice.transient")


def transient(circuit: Circuit, tstop: float, dt: float, *,
              temp_c: float = 27.0, method: str = "be",
              initial: dict[str, float] | None = None,
              gmin: float = DEFAULT_GMIN,
              max_step_halvings: int = 14,
              system: System | None = None) -> TransientResult:
    """:func:`repro.spice.transient.transient` on the per-device loop.

    ``system`` is accepted so the oracle can stand in for the compiled
    loop in the DRAM drivers, and ignored: every call builds a fresh
    ``use_plans=False`` system.
    """
    if tstop <= 0 or dt <= 0:
        raise SpiceError("tstop and dt must be positive")
    if method not in ("be", "trap"):
        raise SpiceError(f"unknown integration method {method!r}")
    system = System(circuit, gmin=gmin, use_plans=False)
    node_names = circuit.node_names
    num_nodes = circuit.num_nodes

    x = np.zeros(system.size)
    if initial:
        for name, volts in initial.items():
            if name in ("0", "gnd", "GND", "ground"):
                continue
            if not circuit.has_node(name):
                raise SpiceError(f"initial condition for unknown node "
                                 f"{name!r}")
            x[circuit.node(name).index] = float(volts)

    grid = _build_grid(tstop, dt, system.source_waveforms())
    dt_floor = dt / (2 ** max_step_halvings)
    result = _run_legacy_loop(system, grid, x, dt_floor, temp_c, method,
                              node_names, num_nodes)
    system.flush_kernel_counters()
    return result


def _run_legacy_loop(system: System, grid: list[float], x: np.ndarray,
                     dt_floor: float, temp_c: float, method: str,
                     node_names: list[str], num_nodes: int
                     ) -> TransientResult:
    """The original per-device step loop (parity baseline)."""
    newton_solve = _transient_module.newton_solve
    gmin_step_solve = _transient_module.gmin_step_solve
    times = [0.0]
    rows = [x[:num_nodes].copy()]
    rescues: list[RescueEvent] = []

    t = 0.0
    pending = list(grid[1:])
    while pending:
        t_target = pending[0]
        dt_step = t_target - t
        ctx = AnalysisContext(time=t_target, dt=dt_step, temp_c=temp_c,
                              x=x, x_prev=x, method=method)
        A_step, b_step = system.build_step(ctx)
        try:
            x_new = newton_solve(system, A_step, b_step, ctx, x)
        except ConvergenceError as exc:
            if dt_step / 2 >= dt_floor:
                pending.insert(0, t + dt_step / 2)
                continue
            try:
                x_new = gmin_step_solve(system, A_step, b_step, ctx, x)
            except ConvergenceError as gmin_exc:
                nodes = gmin_exc.nodes or exc.nodes
                raise ConvergenceError(
                    f"transient stalled at t={t:.4g}s: step below floor "
                    f"{dt_floor:.3g}s still fails to converge even with "
                    f"a Gmin ramp (moving nodes: "
                    f"{', '.join(nodes) or '-'})",
                    time=t, iterations=gmin_exc.iterations, nodes=nodes,
                    rescue_trail=("bisect", "gmin")) from None
            rescues.append(RescueEvent(t_target, "gmin"))
            _record_rescue("gmin")
        system.accept_step(x, x_new, dt_step, method)
        x = x_new
        t = t_target
        pending.pop(0)
        times.append(t)
        rows.append(x[:num_nodes].copy())

    return TransientResult(np.asarray(times), np.asarray(rows),
                           node_names, x, rescues=rescues)
