"""Per-layer metrics of the traced run, named after the ``repro`` modules.

:data:`PER_LAYER` is the one list of per-layer metrics and the one
record of which end-to-end metric, on which workload, each should move;
``BENCHMARK.json`` lists the same names, units and directions (the
self-check keeps the two equal).
Times are self times of the traced run's spans (see :mod:`tracer`);
counts come from the program's own counters (``EngineStats``,
``StoreStats``, ``repro.diagnostics``) or from the wrappers.
"""

from __future__ import annotations

import math

E2E_ALL = ("table1", "planes_electrical", "array16_lanes", "table1_durable")

#: (name, unit, better, [(end-to-end metric, workload), ...]).
PER_LAYER = (
    ("analysis.border_calls", "count", "lower",
     [("wall_s", "table1"), ("wall_s", "array16_lanes")]),
    ("analysis.border_probes", "count", "lower",
     [("wall_s", "table1"), ("wall_s", "array16_lanes")]),
    ("analysis.probes_per_border", "ratio", "lower",
     [("wall_s", "table1"), ("wall_s", "array16_lanes")]),
    ("analysis.border_s", "s", "lower",
     [("wall_s", "table1"), ("wall_s", "array16_lanes")]),
    ("analysis.sweep_s", "s", "lower", [("wall_s", "planes_electrical")]),
    ("core.optimize_defect_s", "s", "lower",
     [("wall_s", "table1"), ("wall_s", "table1_durable")]),
    ("core.optimize_defect_max_s", "s", "lower",
     [("wall_s", "table1"), ("wall_s", "table1_durable")]),
    ("core.directions_s", "s", "lower",
     [("wall_s", "table1"), ("wall_s", "table1_durable")]),
    ("engine.lookups", "count", "lower", [("wall_s", "table1")]),
    ("engine.hit_ratio", "ratio", "higher", [("wall_s", "table1")]),
    ("engine.cycles_simulated", "count", "lower", [("wall_s", "table1")]),
    ("engine.cycles_saved", "count", "higher", [("wall_s", "table1")]),
    ("engine.map_s", "s", "lower", [("wall_s", "table1")]),
    ("engine.request_samples", "count", "lower",
     [("wall_s", w) for w in E2E_ALL]),
    ("engine.request_p50_ms", "ms", "lower",
     [("wall_s", w) for w in E2E_ALL]),
    ("engine.request_tail_ms", "ms", "lower",
     [("wall_s", w) for w in E2E_ALL]),
    ("engine.request_tail_pct", "%", "higher",
     [("wall_s", w) for w in E2E_ALL]),
    ("engine.pool_s", "s", "lower", [("wall_s", "table1_durable")]),
    ("engine.pool_wait_s", "s", "lower", [("wall_s", "table1_durable")]),
    ("engine.lane_groups", "count", "lower", [("wall_s", "array16_lanes")]),
    ("engine.lane_warm_hit_ratio", "ratio", "higher",
     [("wall_s", "array16_lanes")]),
    ("engine.journal_records", "count", "higher",
     [("wall_s", "table1_durable")]),
    ("engine.journal_s", "s", "lower", [("wall_s", "table1_durable")]),
    ("engine.resume_simulated", "count", "lower",
     [("resume_s", "table1_durable")]),
    ("store.puts", "count", "higher", [("wall_s", "table1_durable")]),
    ("store.put_s", "s", "lower", [("wall_s", "table1_durable")]),
    ("store.bytes_written", "B", "lower", [("wall_s", "table1_durable")]),
    ("store.gets", "count", "higher", [("resume_s", "table1_durable")]),
    ("store.get_s", "s", "lower", [("resume_s", "table1_durable")]),
    ("store.disk_hits", "count", "higher", [("resume_s", "table1_durable")]),
    ("store.resume_puts", "count", "lower",
     [("resume_s", "table1_durable")]),
    ("store.resume_disk_hits", "count", "higher",
     [("resume_s", "table1_durable")]),
    ("behav.sequences", "count", "lower", [("wall_s", "table1")]),
    ("behav.sequence_s", "s", "lower", [("wall_s", "table1")]),
    ("dram.sequences", "count", "lower", [("wall_s", "planes_electrical")]),
    ("dram.sequence_s", "s", "lower", [("wall_s", "planes_electrical")]),
    ("dram.array_build_s", "s", "lower", [("wall_s", "array16_lanes")]),
    ("dram.trim_s", "s", "lower", [("wall_s", "array16_lanes")]),
    ("dram.trim_nodes_pruned", "count", "higher",
     [("wall_s", "array16_lanes")]),
    ("spice.transients", "count", "lower", [("wall_s", "planes_electrical")]),
    ("spice.steps", "count", "lower", [("wall_s", "planes_electrical")]),
    ("spice.transient_s", "s", "lower", [("wall_s", "planes_electrical")]),
    ("spice.newton_s", "s", "lower", [("wall_s", "planes_electrical")]),
    ("spice.newton_iters", "count", "lower",
     [("wall_s", "planes_electrical")]),
    ("spice.iters_per_step", "ratio", "lower",
     [("wall_s", "planes_electrical")]),
    ("spice.build_iteration_s", "s", "lower",
     [("wall_s", "planes_electrical")]),
    ("spice.assemble_step_s", "s", "lower",
     [("wall_s", "planes_electrical")]),
    ("spice.lu_s", "s", "lower", [("wall_s", "planes_electrical")]),
    ("spice.lu_factorizations", "count", "lower",
     [("wall_s", "planes_electrical")]),
    ("spice.lu_flop_computed", "flop", "lower",
     [("wall_s", "planes_electrical")]),
    ("spice.host_us_per_step", "us", "lower",
     [("wall_s", "planes_electrical")]),
    ("spice.lane_transients", "count", "lower",
     [("wall_s", "array16_lanes")]),
    ("spice.lane_transient_s", "s", "lower", [("wall_s", "array16_lanes")]),
    ("spice.lane_newton_s", "s", "lower", [("wall_s", "array16_lanes")]),
    ("experiments.self_s", "s", "lower", [("wall_s", w) for w in E2E_ALL]),
    ("trace.wall_s", "s", "lower", [("wall_s", w) for w in E2E_ALL]),
    ("trace.overhead_s", "s", "lower", [("wall_s", w) for w in E2E_ALL]),
    ("trace.unattributed_s", "s", "lower",
     [("wall_s", w) for w in E2E_ALL]),
)

#: Layer self-time metric -> the span names whose self time it sums.
#: Every span name the tracer records appears exactly once, so these
#: metrics plus ``experiments.self_s`` partition the traced wall time.
SELF_TIME = {
    "analysis.border_s": ("analysis.border",),
    "analysis.sweep_s": ("analysis.sweep",),
    "core.optimize_defect_s": ("core.optimize_defect",),
    "core.directions_s": ("core.directions",),
    "engine.map_s": ("engine.map", "engine.cache", "engine.request",
                     "engine.lane_group"),
    "engine.pool_s": ("engine.pool",),
    "engine.pool_wait_s": ("engine.pool_wait",),
    "engine.journal_s": ("engine.journal",),
    "store.put_s": ("store.put",),
    "store.get_s": ("store.get",),
    "behav.sequence_s": ("behav.sequence",),
    "dram.sequence_s": ("dram.sequence",),
    "dram.array_build_s": ("dram.array_build",),
    "dram.trim_s": ("dram.trim",),
    "spice.transient_s": ("spice.transient",),
    "spice.newton_s": ("spice.newton",),
    "spice.build_iteration_s": ("spice.build_iteration",),
    "spice.assemble_step_s": ("spice.assemble_step",),
    "spice.lu_s": ("spice.lu",),
    "spice.lane_transient_s": ("spice.lane_transient",),
    "spice.lane_newton_s": ("spice.lane_newton",),
    "experiments.self_s": ("experiments",),
}

#: Percentiles tried for the latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return None


def request_latencies(tracer) -> list[float]:
    """Per-request simulation latency (seconds) of every request the
    traced process executed: a behavioral or electrical sequence takes
    its own span; every request of a batched lane run waits for the
    whole run."""
    out = []
    for name in ("behav.sequence", "dram.sequence"):
        for d, n in tracer.durations(name):
            out.extend([d] * int(n))
    return out


def border_probes(tracer) -> int:
    """Simulation requests issued to the engine from inside a border
    search (speculative lane probes included)."""
    return sum(int(tracer.count[i]) for i in tracer.spans_named("engine.map")
               if tracer.ancestors_named(i, "analysis.border"))


def layer_metrics(tracer, counters: dict) -> dict[str, float]:
    """Every per-layer metric computable from one traced pass.

    ``counters`` holds the program's own counters after the pass (see
    ``child.collect_counters``).  Metrics that need another pass (the
    durable rerun, the untraced wall) are filled in by the driver.
    """
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def count(name):
        return summary.get(name, {}).get("count", 0.0)

    m: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        m[metric] = sum(summary.get(n, {}).get("self_s", 0.0)
                        for n in names)

    m["analysis.border_calls"] = calls("analysis.border")
    m["analysis.border_probes"] = border_probes(tracer)
    m["analysis.probes_per_border"] = (
        m["analysis.border_probes"] / m["analysis.border_calls"]
        if m["analysis.border_calls"] else 0.0)
    rows = tracer.durations("core.optimize_defect")
    m["core.optimize_defect_max_s"] = max((d for d, _ in rows), default=0.0)

    lookups = counters["lookups"]
    m["engine.lookups"] = lookups
    m["engine.hit_ratio"] = counters["hits"] / lookups if lookups else 0.0
    m["engine.cycles_simulated"] = counters["cycles_simulated"]
    m["engine.cycles_saved"] = counters["cycles_saved"]
    lat = sorted(request_latencies(tracer))
    m["engine.request_samples"] = len(lat)
    m["engine.request_p50_ms"] = percentile(lat, 50.0) * 1e3 if lat else 0.0
    pct = tail_percentile(len(lat))
    m["engine.request_tail_pct"] = pct or 0.0
    m["engine.request_tail_ms"] = (percentile(lat, pct) * 1e3
                                   if pct is not None else 0.0)
    m["engine.lane_groups"] = counters["lane_groups"]
    warm = counters["lane_warm_hits"] + counters["lane_warm_misses"]
    m["engine.lane_warm_hit_ratio"] = (counters["lane_warm_hits"] / warm
                                       if warm else 0.0)
    m["engine.journal_records"] = calls("engine.journal")

    m["store.puts"] = counters["store_writes"]
    m["store.gets"] = counters["store_hits"] + counters["store_misses"]
    m["store.disk_hits"] = counters["disk_hits"]

    m["behav.sequences"] = calls("behav.sequence")
    m["dram.sequences"] = count("dram.sequence")
    m["dram.trim_nodes_pruned"] = counters["trim_nodes_pruned"]

    steps = calls("spice.newton")
    m["spice.transients"] = calls("spice.transient")
    m["spice.steps"] = steps
    m["spice.newton_iters"] = calls("spice.build_iteration")
    m["spice.iters_per_step"] = (m["spice.newton_iters"] / steps
                                 if steps else 0.0)
    m["spice.lu_factorizations"] = calls("spice.lu")
    m["spice.lu_flop_computed"] = count("spice.lu")
    m["spice.host_us_per_step"] = (total("spice.transient") / steps * 1e6
                                   if steps else 0.0)
    m["spice.lane_transients"] = calls("spice.lane_transient")

    wall = total("experiments")
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(
        row["self_s"] for row in summary.values())
    return m
