"""The benchmark's workloads: CLI flags, seeded inputs, deliverable call
and the row-by-row output check against the reference rendering.

Each workload is one paper deliverable run the way ``python -m repro``
runs it: the engine is configured from the same argv through the CLI's
own parser, then the public deliverable function is called with the
seeded input order and its result rendered.
"""

from __future__ import annotations

import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: name -> CLI argv (checkpoint flags are appended per pass), the
#: reference rendering, and how many leading lines are order-fixed
#: (``None``: every line).  The remaining lines are table rows whose
#: order follows the seeded submission order, so they are compared as
#: a set, row by row.
WORKLOADS = {
    "table1": {
        "argv": ["table1", "--workers", "1"],
        "reference": "table1.txt",
        "fixed_lines": 2,
    },
    "planes_electrical": {
        "argv": ["planes", "--electrical"],
        "reference": "planes_electrical.txt",
        "fixed_lines": None,
    },
    "array16_lanes": {
        "argv": ["array", "--geometry", "16", "16", "--lanes", "8"],
        "reference": "array16_lanes.txt",
        "fixed_lines": 3,
    },
    "table1_durable": {
        "argv": ["table1", "--workers", "2"],
        "reference": "table1.txt",
        "fixed_lines": 2,
    },
}

#: Workloads that run with ``--checkpoint``; their second invocation
#: adds ``--resume`` over the checkpoint the first one wrote.
DURABLE = {"table1_durable"}


def submission_order(workload: str, seed: int) -> list[str] | None:
    """The seeded input order the program receives (``None``: fixed).

    Defect rows for the Table 1 workloads, defect kinds for the array
    study; the Fig. 2 planes have fixed inputs.
    """
    rng = random.Random(seed)
    if workload in ("table1", "table1_durable"):
        from repro.defects import ALL_DEFECTS
        names = [f"{d.kind.value}:{d.placement.value}" for d in ALL_DEFECTS]
    elif workload == "array16_lanes":
        from repro.dram.column import DEFECT_KINDS
        names = list(DEFECT_KINDS)
    else:
        return None
    return rng.sample(names, len(names))


def _defects(order: list[str]):
    from repro.defects import ALL_DEFECTS
    by_name = {f"{d.kind.value}:{d.placement.value}": d for d in ALL_DEFECTS}
    return tuple(by_name[name] for name in order)


def run_deliverable(workload: str, args, order):
    """Call the workload's public deliverable; returns (rendered text,
    holes) where holes counts results the deliverable reports missing.
    ``args`` is the parsed CLI namespace the engine was configured from.
    """
    if workload in ("table1", "table1_durable"):
        from repro.experiments import table1_optimization
        table = table1_optimization(
            backend="behavioral", defects=_defects(order),
            workers=args.workers, engine=True, on_error="raise")
        return table.render(), table.n_failed + table.n_failed_probes
    if workload == "planes_electrical":
        from repro.experiments import fig2_result_planes
        study = fig2_result_planes(backend="electrical", points=args.points,
                                   engine=True)
        return study.render(), study.planes.n_failed
    if workload == "array16_lanes":
        from repro.experiments import array_disturb_study
        rows, cols = args.geometry
        study = array_disturb_study(geometry=(rows, cols), kinds=order)
        return study.render(), 0
    raise ValueError(f"unknown workload {workload!r}")


def reference_text(workload: str) -> str:
    return (REFERENCE_DIR / WORKLOADS[workload]["reference"]).read_text()


def check_output(workload: str, text: str,
                 reference: str | None = None) -> list[str]:
    """Row-by-row differences between ``text`` and the reference
    rendering (empty when they match)."""
    if reference is None:
        reference = reference_text(workload)
    fixed = WORKLOADS[workload]["fixed_lines"]
    got = text.rstrip("\n").split("\n")
    want = reference.rstrip("\n").split("\n")
    if fixed is None:
        fixed = max(len(got), len(want))
    problems = []
    for i in range(fixed):
        g = got[i] if i < len(got) else "<missing>"
        w = want[i] if i < len(want) else "<missing>"
        if g != w:
            problems.append(f"line {i + 1}: got {g!r}, want {w!r}")
    got_rows, want_rows = got[fixed:], want[fixed:]
    for row in want_rows:
        if row in got_rows:
            got_rows.remove(row)
        else:
            problems.append(f"missing row {row!r}")
    problems.extend(f"unexpected row {row!r}" for row in got_rows)
    return problems


def row_set(workload: str, text: str) -> list[str]:
    """The sorted table rows of a rendering (order-free identity)."""
    fixed = WORKLOADS[workload]["fixed_lines"]
    lines = text.rstrip("\n").split("\n")
    return sorted(lines if fixed is None else lines[fixed:])
