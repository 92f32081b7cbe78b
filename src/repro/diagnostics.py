"""Run diagnostics: structured logging plus failure/rescue/retry accounting.

The resilience layer spans three tiers — the SPICE solvers (convergence
rescue), the execution engine (fault-isolated batches) and the analysis
sweeps (degraded results with holes).  All three report what happened
through this module so one run produces one coherent story:

* :func:`get_logger` / :func:`configure_logging` — a single stdlib
  ``logging`` tree rooted at ``"repro"``, writing structured one-line
  records to stderr.  Nothing is emitted until :func:`configure_logging`
  installs the handler (library use stays silent by default).
* :class:`RunDiagnostics` — per-run counters of failures, rescues,
  retries, timeouts and worker crashes, with a human-readable summary.
  The process-wide instance (:func:`diagnostics`) is what the CLI prints
  to stderr after a sweep; :func:`reset_diagnostics` starts a fresh run.

Counters recorded inside worker processes stay in those processes; the
parent learns about worker-side problems through the structured
:class:`~repro.engine.failures.FailedResult` records the executor hands
back, which it folds into the parent's diagnostics.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, field

#: Root logger name of the package; every tier logs under a child.
LOGGER_NAME = "repro"

#: One-line structured record: time, severity, subsystem, message.
LOG_FORMAT = "%(asctime)s %(levelname)-8s %(name)s | %(message)s"

#: Levels accepted by :func:`configure_logging` and the CLI flag.
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the package root (``repro`` or ``repro.<name>``)."""
    if not name:
        return logging.getLogger(LOGGER_NAME)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def configure_logging(level: str | int = "warning",
                      stream=None) -> logging.Logger:
    """Install (or retune) the package's stderr handler.

    Idempotent: repeated calls adjust the level of the existing handler
    instead of stacking duplicates, so tests and nested CLI invocations
    never multiply output lines.
    """
    if isinstance(level, str):
        if level.lower() not in LOG_LEVELS:
            raise ValueError(f"unknown log level {level!r}; choose one of "
                             f"{', '.join(LOG_LEVELS)}")
        level = getattr(logging, level.upper())
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(level)
    logger.propagate = False
    for handler in logger.handlers:
        if getattr(handler, "_repro_handler", False):
            handler.setLevel(level)
            if stream is not None:
                try:
                    handler.setStream(stream)
                except ValueError:
                    # The previous stream is already closed (common when
                    # a test harness swapped stderr): skip its flush and
                    # retarget directly.
                    handler.stream = stream
            return logger
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    handler._repro_handler = True
    logger.addHandler(handler)
    return logger


@dataclass
class RunDiagnostics:
    """Failure/rescue/retry accounting of one run.

    ``failures`` counts units of work that produced no result (after all
    rescue and retry machinery gave up); ``rescues`` counts solves that
    only succeeded through a fallback ladder; ``retries`` counts batch
    items re-driven after a worker crash; ``timeouts`` and
    ``worker_crashes`` break the failure causes down; ``cache_evictions``
    counts corrupted on-disk cache entries deleted on read;
    ``nonfinite_sequences`` counts behavioral sequences whose cell
    voltage went non-finite (forward-Euler instability at low defect
    resistance; informational, never ``eventful``, shown by the CLI's
    ``--verbose``/``--profile``).
    """

    failures: int = 0
    rescues: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    cache_evictions: int = 0
    cache_quarantined: int = 0
    cache_tmp_reclaimed: int = 0
    journal_recovered: int = 0
    journal_holes: int = 0
    journal_missing: int = 0
    nonfinite_sequences: int = 0
    failure_kinds: dict[str, int] = field(default_factory=dict)
    rescue_stages: dict[str, int] = field(default_factory=dict)
    solver_kernels: dict[str, int] = field(default_factory=dict)
    lane_counters: dict[str, int] = field(default_factory=dict)
    trim_counters: dict[str, int] = field(default_factory=dict)
    surrogate_counters: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_failure(self, error_type: str, detail: str = "") -> None:
        """One unit of work lost for good (logged at WARNING)."""
        self.failures += 1
        self.failure_kinds[error_type] = \
            self.failure_kinds.get(error_type, 0) + 1
        if error_type == "TimeoutError":
            self.timeouts += 1
        get_logger("diagnostics").warning(
            "failure (%s)%s", error_type, f": {detail}" if detail else "")

    def record_rescue(self, stage: str) -> None:
        """One solve saved by a fallback (``gmin``, ``source``...)."""
        self.rescues += 1
        self.rescue_stages[stage] = self.rescue_stages.get(stage, 0) + 1
        get_logger("diagnostics").info("convergence rescue via %s", stage)

    def record_kernel_counters(self, counters: dict[str, int]) -> None:
        """Fold solver-kernel counters (stamp plans, factorization cache,
        modified-Newton refactors) into the run totals.  Informational:
        kernel activity never makes a run ``eventful``.
        """
        for name, n in counters.items():
            self.solver_kernels[name] = self.solver_kernels.get(name, 0) + n

    def record_lane_counters(self, counters: dict[str, int]) -> None:
        """Fold batched-lane kernel counters (lanes launched, converged,
        isolated, continuation warm-start hits) into the run totals.
        Informational, like the solver-kernel counters — lane activity
        never makes a run ``eventful``.
        """
        for name, n in counters.items():
            self.lane_counters[name] = self.lane_counters.get(name, 0) + n

    def record_trim_counters(self, counters: dict[str, int]) -> None:
        """Fold netlist-trimming counters (windows applied/bypassed,
        cells and nodes pruned) into the run totals.  Informational,
        like the solver-kernel counters — trimming activity never makes
        a run ``eventful``.
        """
        for name, n in counters.items():
            self.trim_counters[name] = self.trim_counters.get(name, 0) + n

    def record_surrogate_counters(self, counters: dict[str, int]) -> None:
        """Fold surrogate-tier counters (queries served, electrical
        fallbacks, calibration refits) into the run totals.
        Informational, like the solver-kernel counters — surrogate
        activity never makes a run ``eventful``.
        """
        for name, n in counters.items():
            self.surrogate_counters[name] = \
                self.surrogate_counters.get(name, 0) + n

    def record_nonfinite_sequence(self) -> None:
        """One behavioral sequence whose cell voltage went non-finite."""
        self.nonfinite_sequences += 1

    def record_retry(self, count: int = 1) -> None:
        """Batch items re-driven after an infrastructure fault."""
        self.retries += count

    def record_worker_crash(self) -> None:
        """One pool breakage (``BrokenProcessPool``)."""
        self.worker_crashes += 1
        get_logger("diagnostics").warning(
            "worker process crashed; respawning pool")

    def record_cache_eviction(self, path: str = "") -> None:
        """One corrupted on-disk cache entry deleted."""
        self.cache_evictions += 1
        get_logger("diagnostics").warning(
            "evicted corrupted cache entry%s",
            f" {path}" if path else "")

    def record_cache_quarantine(self, path: str = "",
                                reason: str = "") -> None:
        """One store entry that failed integrity verification and was
        moved into the store's ``corrupt/`` directory."""
        self.cache_quarantined += 1
        get_logger("diagnostics").warning(
            "quarantined store entry%s%s",
            f" {path}" if path else "",
            f" ({reason})" if reason else "")

    def record_tmp_reclaimed(self, count: int = 1) -> None:
        """Orphaned ``*.tmp`` files swept at store construction —
        leftovers of a crash mid-write."""
        self.cache_tmp_reclaimed += count
        get_logger("diagnostics").info(
            "reclaimed %d orphaned cache temp file(s)", count)

    def record_journal_recovery(self, count: int = 1) -> None:
        """Completed work skipped on resume (journaled + in the store)."""
        self.journal_recovered += count

    def record_journal_hole(self, detail: str = "") -> None:
        """One journaled failure replayed as a hole instead of re-run."""
        self.journal_holes += 1
        get_logger("diagnostics").info(
            "journal-recovered hole%s", f": {detail}" if detail else "")

    def record_journal_missing(self, key: str = "") -> None:
        """One journaled-complete result missing from the store (lost or
        quarantined entry) — re-simulated instead of recovered."""
        self.journal_missing += 1
        get_logger("diagnostics").warning(
            "journaled result missing from store%s; re-running",
            f" ({key[:12]}…)" if key else "")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def eventful(self) -> bool:
        """Did anything noteworthy happen this run?"""
        return bool(self.failures or self.rescues or self.retries
                    or self.worker_crashes or self.cache_evictions
                    or self.cache_quarantined or self.cache_tmp_reclaimed
                    or self.journal_recovered or self.journal_holes
                    or self.journal_missing)

    def summary(self) -> str:
        """Multi-line per-run summary (the CLI prints this to stderr)."""
        lines = [f"resilience: {self.failures} failed, "
                 f"{self.rescues} rescued, {self.retries} retried"]
        if self.failure_kinds:
            kinds = ", ".join(f"{k} x{n}" for k, n in
                              sorted(self.failure_kinds.items()))
            lines.append(f"  failures by kind: {kinds}")
        if self.rescue_stages:
            stages = ", ".join(f"{k} x{n}" for k, n in
                               sorted(self.rescue_stages.items()))
            lines.append(f"  rescues by stage: {stages}")
        if self.timeouts:
            lines.append(f"  timeouts: {self.timeouts}")
        if self.worker_crashes:
            lines.append(f"  worker crashes: {self.worker_crashes}")
        if self.cache_evictions:
            lines.append(f"  corrupted cache entries evicted: "
                         f"{self.cache_evictions}")
        if self.cache_quarantined:
            lines.append(f"  store entries quarantined: "
                         f"{self.cache_quarantined}")
        if self.cache_tmp_reclaimed:
            lines.append(f"  orphaned cache temp files reclaimed: "
                         f"{self.cache_tmp_reclaimed}")
        if self.journal_recovered or self.journal_holes \
                or self.journal_missing:
            lines.append(f"  journal: {self.journal_recovered} results "
                         f"recovered, {self.journal_holes} holes "
                         f"replayed, {self.journal_missing} missing "
                         f"from store")
        if self.solver_kernels:
            kernels = ", ".join(f"{k} x{n}" for k, n in
                                sorted(self.solver_kernels.items()))
            lines.append(f"  solver kernels: {kernels}")
        if self.lane_counters:
            lanes = ", ".join(f"{k} x{n}" for k, n in
                              sorted(self.lane_counters.items()))
            lines.append(f"  lane kernel: {lanes}")
        if self.trim_counters:
            trims = ", ".join(f"{k} x{n}" for k, n in
                              sorted(self.trim_counters.items()))
            lines.append(f"  netlist trim: {trims}")
        if self.surrogate_counters:
            surr = ", ".join(f"{k} x{n}" for k, n in
                             sorted(self.surrogate_counters.items()))
            lines.append(f"  surrogate tier: {surr}")
        return "\n".join(lines)

    def report(self, stream=None) -> None:
        """Print the summary to ``stream`` (stderr) when eventful."""
        if self.eventful:
            print(self.summary(), file=stream if stream is not None
                  else sys.stderr)


_DIAGNOSTICS = RunDiagnostics()


def diagnostics() -> RunDiagnostics:
    """The process-wide diagnostics of the current run."""
    return _DIAGNOSTICS


def reset_diagnostics() -> RunDiagnostics:
    """Start a fresh run (returns the new instance)."""
    global _DIAGNOSTICS
    _DIAGNOSTICS = RunDiagnostics()
    return _DIAGNOSTICS
