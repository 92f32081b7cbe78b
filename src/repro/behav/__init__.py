"""Fast behavioral column model, calibrated against the electrical one.

The electrical model costs ~0.15 s per operation cycle; Shmoo grids and
march-test coverage sweeps need thousands of cycles.
:class:`~repro.behav.model.BehavioralColumn` integrates the same device
physics (shared MOSFET equations, same technology parameters, same cycle
timing) phase-by-phase with fixed-step forward Euler and ideal bit-line
boundary conditions instead of solving the full MNA system — two to three
orders of magnitude faster.

The sense decision is a calibrated race: the bit-line differential is
evaluated a temperature-dependent latch delay *after* sense enable, which
reproduces the electrical model's non-monotonic read behaviour.
Calibration constants are fitted against the electrical model by
:mod:`repro.behav.calibrate` (defaults are pre-fitted for the default
technology).
"""

from repro.behav.model import BehavCalibration, BehavioralColumn, behavioral_model
from repro.behav.calibrate import calibrate_latch

__all__ = [
    "BehavCalibration",
    "BehavioralColumn",
    "behavioral_model",
    "calibrate_latch",
]
