"""Folded-bit-line DRAM column model.

This package is the synthetic replacement for the proprietary
design-validation memory model used in the paper (Sec. 5.1).  It contains
the same building blocks: one folded cell-array column (2×2 memory cells,
2 reference cells, precharge devices and a sense amplifier), one write
driver and one data output buffer, plus a timing generator parameterised by
the stress conditions.

Beyond the paper, :func:`repro.dram.array.build_array` and the trim layer
(:mod:`repro.dram.trim`) scale the same cells to an R×C array.

Entry points:

* :func:`repro.dram.column.build_column` — build the column netlist,
* :mod:`repro.dram.runner` — apply ``w0``/``w1``/``r`` operation cycles
  to a (possibly defective) cell and observe the cell voltage and the
  sensed bit.  One serial driver and one lane driver (many defect
  resistances per transient) each serve both topologies:
  :class:`~repro.dram.runner.ColumnRunner` and
  :class:`~repro.dram.runner.LaneRunner` on the column,
  :class:`~repro.dram.runner.ArrayRunner` and
  :class:`~repro.dram.runner.ArrayLaneRunner` on the array.
"""

from repro.dram.tech import TechnologyParams, default_tech
from repro.dram.timing import CyclePlan, plan_cycle
from repro.dram.ops import Operation, OpResult, SequenceResult, parse_ops
from repro.dram.column import ColumnNetlist, DefectSite, build_column
from repro.dram.array import ArrayNetlist, build_array
from repro.dram.trim import (TrimPlan, TrimmedArrayNetlist,
                             build_trimmed_array, plan_trim,
                             set_trim_default, trim_array, trim_default)
from repro.dram.runner import ArrayRunner, ColumnRunner

__all__ = [
    "ArrayNetlist",
    "ArrayRunner",
    "ColumnNetlist",
    "ColumnRunner",
    "CyclePlan",
    "DefectSite",
    "OpResult",
    "Operation",
    "SequenceResult",
    "TechnologyParams",
    "TrimPlan",
    "TrimmedArrayNetlist",
    "build_array",
    "build_column",
    "build_trimmed_array",
    "default_tech",
    "parse_ops",
    "plan_cycle",
    "plan_trim",
    "set_trim_default",
    "trim_array",
    "trim_default",
]
