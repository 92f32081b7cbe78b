"""Operation-level drivers of the electrical column and array models.

Two drivers apply ``w0``/``w1``/``r``/``nop`` cycles to a target cell,
carrying the node state from cycle to cycle — the electrical-simulation
workhorse behind every result plane in the paper:

* :class:`_SerialDriver` runs one sequence through
  :func:`~repro.spice.transient.transient`;
* :class:`_LaneDriver` runs one sequence over many defect resistances
  at once, as the lanes of one
  :func:`~repro.spice.lanes.lane_transient`.

Each drives either topology: the seed 2×2 column (:class:`_Column`) or
an R×C array (:class:`_Array`).  A topology supplies the netlist, the
idle state, each cycle's waveforms and sample instant, the sensed node
and its threshold, and the nodes recorded beside the cell voltage.  The
four public runners are the four combinations: :class:`ColumnRunner`
and :class:`LaneRunner` on the column, :class:`ArrayRunner` and
:class:`ArrayLaneRunner` on the array.
"""

from __future__ import annotations

import numpy as np

from repro.profiling import profiler
from repro.stress import NOMINAL_STRESS, StressConditions
from repro.dram.column import (DEFECT_DEVICE, ColumnNetlist, DefectSite,
                               build_column)
from repro.dram.ops import Op, Operation, OpResult, SequenceResult, parse_ops
from repro.dram.tech import TechnologyParams, default_tech
from repro.dram.timing import plan_cycle
from repro.spice.errors import NetlistError
from repro.spice.lanes import (LaneSystem, LaneWarmBank, lane_transient,
                               make_lane_system)
from repro.spice.mna import System
from repro.spice.transient import transient
from repro.spice.waveforms import Constant, Pulse


def _op_list(ops) -> list[Op]:
    """``ops`` as a list of :class:`Op` (a string like ``"w1 w0 r0"``
    or a list of ops and op strings)."""
    if isinstance(ops, str):
        ops = parse_ops(ops)
    return [Op.parse(o) if isinstance(o, str) else o for o in ops]


# ----------------------------------------------------------------------
# topologies
# ----------------------------------------------------------------------
class _Topology:
    """What a driver needs from a netlist besides the simulator.

    Subclasses set ``tech``, ``stress``, ``netlist``, ``_sn`` (the
    tracked storage node) and ``_extra`` (recorded key -> node) in
    ``_build``, and implement ``idle_state``, ``_cycle`` and
    ``_sense_point``; ``_check_ops`` may refuse operations.
    """

    record = False

    def _check_ops(self, ops) -> None:
        """Refuse operations this topology cannot apply."""

    def _observe(self, op: Op, res, t_sample: float) -> OpResult:
        """The :class:`OpResult` of one simulated cycle."""
        sensed = None
        if op.operation is Operation.R:
            node, threshold = self._sense_point()
            sensed = 1 if res.at(node, t_sample) > threshold else 0
        result = OpResult(op=op, vc_end=res.final(self._sn), sensed=sensed)
        if self.record:
            result.times = res.time
            result.vc = res.v(self._sn)
            result.extra = {key: res.v(node)
                            for key, node in self._extra.items()}
        return result


class _Column(_Topology):
    """The seed folded column: sensed through its data output buffer."""

    def _build(self, tech, stress, defect, target_cell) -> None:
        self.tech = tech or default_tech()
        self.stress = stress
        self.target_cell = target_cell
        self.netlist: ColumnNetlist = build_column(self.tech, defect)
        self._sn = self.netlist.storage_node(target_cell)
        self._extra = {"blt": "blt", "blc": "blc", "dout": "dout"}

    @property
    def target_on_true(self) -> bool:
        return self.target_cell % 2 == 0

    def idle_state(self, vc_target: float,
                   background: int = 0) -> dict[str, float]:
        """Node voltages of a quiescent column before the first cycle.

        ``vc_target`` is the *physical* storage-node voltage of the target
        cell (the paper's ``Vc``); the other cells hold the logical
        ``background`` value through the differential write convention.
        """
        vdd = self.stress.vdd
        vpre = self.tech.vbl_pre(vdd)
        v_ref = self.tech.v_ref(vdd, self.stress.temp_c)
        state = {
            "blt": vpre, "blc": vpre,
            "san": vpre, "sap": vpre,
            "snd_t": v_ref, "snd_c": v_ref,
            "dx": 0.0, "doutb": vdd, "dout": 0.0,
            "vdd": vdd, "vref": v_ref,
            "vpre": vpre,
        }
        for i in range(self.tech.num_wordlines):
            on_true = i % 2 == 0
            physical = background if on_true else 1 - background
            state[f"sn{i}"] = float(physical) * vdd
        state[self._sn] = float(vc_target)
        # Internal defect nodes start at their neighbour's level.
        if self.netlist.circuit.has_node(f"s_int{self.target_cell}"):
            state[f"s_int{self.target_cell}"] = float(vc_target)
        return state

    def _cycle(self, op: Op, cell: int | None) -> tuple[dict, float]:
        addressed = self.target_cell if cell is None else cell
        plan = plan_cycle(op, self.stress, self.tech, addressed)
        return plan.waveforms, plan.t_sample

    def _sense_point(self) -> tuple[str, float]:
        return "dout", 0.5 * self.stress.vdd


#: Fraction of the cycle an array activation spends precharging before
#: the addressed word line fires.
ARRAY_PRE_FRAC = 0.2

#: Rise/fall time of the array control edges (seconds).
ARRAY_EDGE = 0.5e-9


class _Array(_Topology):
    """An R×C array without a sense path: ``r`` (activation) and ``nop``
    (retention) cycles, sensed on the accessed bit line's head.

    The netlist is built through the trim layer
    (:func:`repro.dram.trim.trim_array`): ``trim=None`` follows the
    process-wide policy, ``"off"`` keeps the full array, ``"auto"`` /
    ``"force"`` simulate only the accessed row/column plus the defect
    neighborhood with boundary loads standing in for the pruned rest.
    """

    def _check_ops(self, ops) -> None:
        if any(op.operation.is_write for op in ops):
            raise NetlistError(
                "the array model has no write path; express array "
                "workloads with r/nop cycles (initial data comes from "
                "init_vc/background)")

    def _build(self, tech, stress, defect, geometry, address, trim,
               halo) -> None:
        from repro.dram.trim import default_address, trim_array
        rows, cols = geometry
        self.tech = tech or default_tech()
        self.stress = stress
        self.rows = int(rows)
        self.cols = int(cols)
        if address is None:
            address = default_address(self.rows, self.cols, defect)
        self.address = (int(address[0]), int(address[1]))
        self.netlist = trim_array(self.rows, self.cols, self.tech, defect,
                                  address=self.address, policy=trim,
                                  halo=halo)
        if defect is not None:
            self.victim = divmod(defect.cell, self.cols)
        else:
            self.victim = self.address
        self._victim_idx = self.victim[0] * self.cols + self.victim[1]
        self._sn = self.netlist.storage_node(*self.victim)
        self._extra = {"bl": f"bl{self.address[1]}_0"}

    @property
    def trimmed(self) -> bool:
        """Did the trim layer actually prune this netlist?"""
        return getattr(self.netlist.circuit, "trimmed", False)

    def idle_state(self, init_vc: float,
                   background: int = 0) -> dict[str, float]:
        """Node voltages of a quiescent array before the first cycle.

        Bit lines rest at the precharge level, word lines low, every
        storage node at the logical ``background`` value — except the
        victim, which holds the physical ``init_vc``.  Works on full
        and trimmed netlists alike (pruned nodes simply do not appear).
        """
        vdd = self.stress.vdd
        vpre = self.tech.vbl_pre(vdd)
        vbg = float(background) * vdd
        state: dict[str, float] = {"vdd": vdd, "vpre": vpre}
        for name in self.netlist.circuit.node_names:
            if name.startswith("sn"):
                state[name] = vbg
            elif name.startswith("bl") or name.startswith("d_int"):
                state[name] = vpre
            elif name.startswith("s_int"):
                state[name] = vbg
        state[self._sn] = float(init_vc)
        if self.netlist.circuit.has_node(f"s_int{self._victim_idx}"):
            state[f"s_int{self._victim_idx}"] = float(init_vc)
        return state

    def cycle_waveforms(self, op: Op) -> tuple[dict, float]:
        """Control waveforms for one cycle plus the sense-sample time.

        An active (``r``) cycle precharges for ``ARRAY_PRE_FRAC`` of
        the stress cycle time, then fires the addressed word line for
        a window scaled by the stress duty cycle — so every ST axis
        (tcyc, duty, T through the simulation, Vdd through the rails
        and boosted levels) stresses the array exactly as it does the
        column.  A ``nop`` cycle holds every control low (retention).
        """
        tcyc = self.stress.tcyc
        vdd = self.stress.vdd
        vpp = self.tech.vpp(vdd)
        t_pre = ARRAY_PRE_FRAC * tcyc
        waves: dict = {"v_vdd": Constant(vdd),
                       "v_pre": Constant(self.tech.vbl_pre(vdd))}
        active = op.operation is Operation.R
        t_act = self.stress.duty * (tcyc - t_pre - 2.0 * ARRAY_EDGE)
        if active:
            waves["v_eq"] = Pulse(vpp, 0.0, delay=t_pre, rise=ARRAY_EDGE,
                                  fall=ARRAY_EDGE, width=10.0)
        else:
            waves["v_eq"] = Constant(0.0)
        for r in range(self.rows):
            if active and r == self.address[0]:
                waves[f"v_wl{r}"] = Pulse(0.0, vpp,
                                          delay=t_pre + ARRAY_EDGE,
                                          rise=ARRAY_EDGE,
                                          fall=ARRAY_EDGE, width=t_act)
            else:
                waves[f"v_wl{r}"] = Constant(0.0)
        t_sample = t_pre + 2.0 * ARRAY_EDGE + t_act
        return waves, t_sample

    def _cycle(self, op: Op, cell: int | None) -> tuple[dict, float]:
        if cell is not None:
            raise NetlistError("array cycles always access the runner's "
                               "address; build another runner to move it")
        return self.cycle_waveforms(op)

    def _sense_point(self) -> tuple[str, float]:
        return self._extra["bl"], self.tech.vbl_pre(self.stress.vdd)


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
class _SerialDriver:
    """Chain single transients, one cycle after another."""

    _system: System | None = None

    def set_stress(self, stress: StressConditions) -> None:
        self.stress = stress

    def set_defect_resistance(self, resistance: float) -> None:
        self.netlist.set_defect_resistance(resistance)
        # The device value changed in place: compiled stamp plans and the
        # step-matrix/factorization caches are stale, so rebuild lazily.
        self._system = None

    @property
    def defect(self) -> DefectSite | None:
        return self.netlist.defect

    def run_op(self, op: Op | str, state: dict[str, float],
               cell: int | None = None
               ) -> tuple[OpResult, dict[str, float]]:
        """Apply one operation cycle starting from ``state``.

        ``cell`` (column only) overrides the addressed cell for this
        cycle — coupling analysis uses this to drive an *aggressor* cell
        while the defective victim floats.  The reported ``vc_end``
        always tracks the runner's target cell.

        Returns the observed :class:`OpResult` and the node state at the
        end of the cycle (input to the next operation).
        """
        if isinstance(op, str):
            op = Op.parse(op)
        self._check_ops((op,))
        waves, t_sample = self._cycle(op, cell)
        self.netlist.set_waveforms(waves)
        dt = self.stress.tcyc * self.tech.dt_frac
        if self._system is None:
            self._system = System(self.netlist.circuit)
        res = transient(self.netlist.circuit, self.stress.tcyc, dt,
                        temp_c=self.stress.temp_c, initial=state,
                        system=self._system)
        return self._observe(op, res, t_sample), res.final_state()

    def run_sequence(self, ops, init_vc: float, background: int = 0
                     ) -> SequenceResult:
        """Apply a whole operation sequence from a fresh idle state.

        ``ops`` may be a string (``"w1 w1 w0 r0"``), or a list of
        :class:`Op`.
        """
        ops = _op_list(ops)
        state = self.idle_state(init_vc, background=background)
        results = []
        for op in ops:
            result, state = self.run_op(op, state)
            results.append(result)
        return SequenceResult(ops=ops, results=results)


class _LaneDriver:
    """Chain lane batches: one sequence over many ``Rop`` lanes.

    One netlist built around a placeholder defect, one compiled
    :class:`System` template, and a lane system (dense or sparse, as
    :func:`~repro.spice.lanes.make_lane_system` resolves) whose per-lane
    statics carry the swept defect resistances.  Lanes that fail the
    batched Newton loop (after the continuation retry) come back as
    ``None`` for the caller — typically the batch executor — to re-run
    on the serial path with its full rescue ladder.

    An optional :class:`~repro.spice.lanes.LaneWarmBank` (``_bank``)
    carries quasi-Newton factorizations and trajectories across
    successive batches, warm-starting each new lane from its nearest
    converged log-R neighbour; it is cleared on stress changes.
    """

    _bank: LaneWarmBank | None = None

    def _init_lanes(self) -> None:
        self._system = System(self.netlist.circuit)
        self._lanes: LaneSystem | None = None

    def set_stress(self, stress: StressConditions) -> None:
        # A new stress moves every waveform and time grid, so nothing
        # in the warm bank remains commensurable.
        if stress != self.stress:
            self.stress = stress
            if self._bank is not None:
                self._bank.clear()

    def _lane_system(self, resistances) -> LaneSystem:
        lanes = self._lanes
        if lanes is None:
            lanes = make_lane_system(self._system, resistances,
                                     DEFECT_DEVICE)
            self._lanes = lanes
        elif lanes.resistances != tuple(float(r) for r in resistances):
            lanes.set_resistances(resistances)
        return lanes

    def _stack_states(self, states) -> np.ndarray:
        """Initial solution vectors from per-lane node-voltage dicts."""
        circ = self.netlist.circuit
        x2 = np.zeros((len(states), self._system.size))
        for k, state in enumerate(states):
            for name, volts in state.items():
                x2[k, circ.node(name).index] = float(volts)
        return x2

    def run_sequences(self, ops, lanes_in, background: int = 0
                      ) -> tuple[list, dict[str, int]]:
        """Apply one operation sequence to every ``(resistance, init_vc)``
        lane.

        Returns ``(results, counters)`` where ``results[k]`` is the
        lane's :class:`SequenceResult`, or ``None`` when that lane was
        isolated mid-batch, and ``counters`` is the lane bookkeeping for
        :mod:`repro.diagnostics` (every counter the batches report).
        """
        ops = _op_list(ops)
        self._check_ops(ops)
        bank = self._bank
        n = len(lanes_in)
        counters = {"lanes_launched": n, "lanes_isolated": 0,
                    "lanes_converged": 0, "lane_continuation_hits": 0}
        if bank is not None:
            counters.update(lane_warm_start_hits=0,
                            lane_warm_start_misses=0)
        # Active lanes, compressed as lanes get isolated: positions into
        # the caller's lane list.
        active = list(range(n))
        x2 = self._stack_states(
            [self.idle_state(init_vc, background=background)
             for _, init_vc in lanes_in])
        per_lane_ops: list = [[] for _ in range(n)]

        dt = self.stress.tcyc * self.tech.dt_frac
        num_nodes = self._system.num_nodes
        for oi, op in enumerate(ops):
            if not active:
                break
            lanes = self._lane_system([lanes_in[k][0] for k in active])
            waves, t_sample = self._cycle(op, None)
            self.netlist.set_waveforms(waves)
            warm = None
            if bank is not None:
                key = (oi, op.operation)
                hits, misses = bank.seed(key, lanes)
                counters["lane_warm_start_hits"] += hits
                counters["lane_warm_start_misses"] += misses
                if profiler.enabled:
                    profiler.count("lanes.warm_start_hits", hits)
                    profiler.count("lanes.warm_start_misses", misses)
                warm = bank.view(key)
            batch = lane_transient(lanes, self.stress.tcyc, dt,
                                   temp_c=self.stress.temp_c,
                                   method="be", x0=x2, warm=warm)
            for name, value in batch.counters.items():
                if name not in ("lanes_launched", "lanes_converged"):
                    counters[name] = counters.get(name, 0) + value
            survivors = []
            x_rows = []
            for row, (pos, res) in enumerate(zip(active, batch.results)):
                if res is None:
                    per_lane_ops[pos] = None
                    continue
                if bank is not None:
                    bank.store(key, lanes, row, res)
                per_lane_ops[pos].append(self._observe(op, res, t_sample))
                survivors.append(pos)
                x_rows.append(res.final_x)
            active = survivors
            if not active:
                break
            # Cycle chaining mirrors the serial path's final_state()
            # round trip: node voltages carry over, branch currents
            # restart at zero.
            x2 = np.zeros((len(active), self._system.size))
            for j, row in enumerate(x_rows):
                x2[j, :num_nodes] = row[:num_nodes]

        counters["lanes_converged"] = len(active)
        results = [
            SequenceResult(ops=ops, results=lane_ops)
            if lane_ops is not None else None
            for lane_ops in per_lane_ops]
        return results, counters


# ----------------------------------------------------------------------
# public runners
# ----------------------------------------------------------------------
class ColumnRunner(_Column, _SerialDriver):
    """Apply operation cycles to one target cell of a (defective) column.

    Parameters
    ----------
    tech:
        Technology parameters; defaults to the shared synthetic technology.
    stress:
        Stress conditions applied to every cycle (mutable via
        :meth:`set_stress`).
    defect:
        Optional injected defect.
    target_cell:
        Cell operated on.  Even cells sit on the true bit line (paper's
        "true" rows), odd cells on the complementary line ("comp.").
    record:
        When True, per-cycle waveforms (cell voltage, bit lines) are kept
        on each :class:`OpResult`.
    """

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect: DefectSite | None = None,
                 target_cell: int = 0,
                 record: bool = False):
        self._build(tech, stress, defect, target_cell)
        self.record = record


class LaneRunner(_Column, _LaneDriver):
    """Run one column operation sequence over many ``Rop`` lanes at once
    (the lane counterpart of :class:`ColumnRunner`)."""

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect_kind: str = "open_sn",
                 target_cell: int = 0):
        # Placeholder resistance: the lanes re-value the device span.
        self._build(tech, stress, DefectSite(kind=defect_kind,
                                             cell=target_cell,
                                             resistance=1.0), target_cell)
        self._init_lanes()


class ArrayRunner(_Array, _SerialDriver):
    """Apply activation cycles to one victim cell of an R×C array.

    The array-scale counterpart of :class:`ColumnRunner` for the
    workloads an array without a sense path can express: ``r`` cycles
    (precharge the bit lines, fire the addressed row, observe the
    charge sharing and the defect's disturbance of the victim) and
    ``nop`` cycles (idle retention).  Write cycles need the column's
    write drivers and raise.

    Parameters
    ----------
    geometry:
        ``(rows, cols)`` of the logical array.
    address:
        Accessed ``(row, col)``; defaults to the defective cell's own
        position (the standard victim-activation scenario).
    defect:
        Optional injected :class:`~repro.dram.column.DefectSite` with
        the cell index flattened row-major over the geometry.
    trim:
        Trim policy (see :mod:`repro.dram.trim`).
    """

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect: DefectSite | None = None,
                 geometry: tuple[int, int] = (4, 4),
                 address: tuple[int, int] | None = None,
                 trim: str | None = None,
                 halo: int = 1,
                 record: bool = False):
        self._build(tech, stress, defect, geometry, address, trim, halo)
        self.record = record


class ArrayLaneRunner(_Array, _LaneDriver):
    """Run one array cycle sequence over many ``Rop`` lanes at once (the
    lane counterpart of :class:`ArrayRunner`).

    Because the template is compiled once, a BR bisection stops paying
    the netlist-build + plan-compile cost per probe that the serial path
    incurs through :meth:`ArrayRunner.set_defect_resistance`.  A
    :class:`~repro.spice.lanes.LaneWarmBank` carries warm starts across
    the *generations* of a bisection.
    """

    def __init__(self, *, tech: TechnologyParams | None = None,
                 stress: StressConditions = NOMINAL_STRESS,
                 defect_kind: str = "open_sn",
                 cell: int = 0,
                 geometry: tuple[int, int] = (4, 4),
                 address: tuple[int, int] | None = None,
                 trim: str | None = None,
                 record: bool = False):
        defect = DefectSite(kind=defect_kind, cell=cell, resistance=1.0)
        self._build(tech, stress, defect, geometry, address, trim, halo=1)
        self.record = record
        self._init_lanes()
        self._bank = LaneWarmBank()
