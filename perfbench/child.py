"""One benchmark pass in a fresh interpreter (spawned by ``run.py``).

Modes:

``setup``  import, configure the engine from the workload's CLI argv
           (and open the checkpoint), then stop: a set-up time sample;
``run``    set up, call the deliverable and render it;
``trace``  like ``run``, with the tracer's wrappers installed around
           the deliverable call.

Prints one JSON object on stdout.  Times are ``time.monotonic()``
readings, comparable with the parent's, so the parent measures set-up
from just before it spawned this interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"),
                   required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


def import_repro(root: Path) -> None:
    """Import ``repro`` from the checkout's ``src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import repro
    where = Path(repro.__file__).resolve()
    if src not in where.parents:
        raise RuntimeError(f"repro imported from {where}, not {src}")


def collect_counters() -> dict:
    """The program's own counters after a pass."""
    from repro.diagnostics import diagnostics
    from repro.engine import default_engine
    stats = default_engine().stats
    store = stats.store
    diag = diagnostics()
    return {
        "lookups": stats.requests,
        "hits": stats.hits,
        "misses": stats.misses,
        "disk_hits": stats.disk_hits,
        "failures": stats.failures,
        "cycles_simulated": stats.cycles_simulated,
        "cycles_saved": stats.cycles_saved,
        "lane_groups": stats.lane_groups,
        "lane_warm_hits": stats.lane_warm_hits,
        "lane_warm_misses": stats.lane_warm_misses,
        "store_writes": store.writes if store is not None else 0,
        "store_hits": store.hits if store is not None else 0,
        "store_misses": store.misses if store is not None else 0,
        "diag_failures": diag.failures,
        "journal_recovered": diag.journal_recovered,
        "journal_missing": diag.journal_missing,
        "trim_nodes_pruned": diag.trim_counters.get("trim_nodes_pruned", 0),
    }


def host_facts() -> dict:
    import multiprocessing
    import platform

    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    opts = parse_args(argv)
    root = Path(opts.root)
    import_repro(root)
    from workloads import WORKLOADS, run_deliverable, submission_order

    import repro.experiments  # noqa: F401  (the CLI imports it first)
    from repro.__main__ import _setup_engine, build_parser
    cli = list(WORKLOADS[opts.workload]["argv"])
    if opts.checkpoint:
        cli += ["--checkpoint", opts.checkpoint]
    if opts.resume:
        cli.append("--resume")
    args = build_parser().parse_args(cli)
    _setup_engine(args)
    order = submission_order(opts.workload, opts.seed)
    out: dict = {"order": order}

    if opts.mode == "setup":
        out["t_call"] = time.monotonic()
        print(json.dumps(out))
        return 0

    tracer = None
    if opts.mode == "trace":
        from tracer import ROOT, Tracer
        tracer = Tracer()
        tracer.install()
    out["t_call"] = time.monotonic()
    if tracer is not None:
        root_span = tracer.open(ROOT)
    try:
        text, holes = run_deliverable(opts.workload, args, order)
    finally:
        if tracer is not None:
            tracer.close(root_span)
            tracer.uninstall()
    out["t_end"] = time.monotonic()
    out["tracer_imported_during_run"] = "tracer" in sys.modules
    out["text"] = text
    out["holes"] = holes
    out["counters"] = collect_counters()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["rss_kb"] = [self_kb, child_kb]

    from tracer import count_wrapped
    out["wrapped_after"] = count_wrapped()
    if tracer is not None:
        from layers import layer_metrics
        out["layers"] = layer_metrics(tracer, out["counters"])
        out["n_spans"] = len(tracer)
        if opts.spans:
            tracer.dump(opts.spans)
    out["host"] = host_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
