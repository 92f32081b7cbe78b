"""Self-checks of the benchmark itself: ``python3 perfbench/selfcheck.py``.

* the output check rejects one altered row and accepts a reordering;
* two seeds give different submission orders but the same row set;
* self-time arithmetic is exact on a synthetic span tree;
* every wrapper is removed after tracing, and an untraced pass never
  even imports the tracer;
* ``BENCHMARK.json`` lists exactly the per-layer metrics of
  :data:`layers.PER_LAYER`, and the self-time metrics partition the
  traced spans.

Runs in about twenty seconds (one short array pass in a child interpreter).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class OutputCheck(unittest.TestCase):
    def test_reference_matches_itself(self):
        for name in workloads.WORKLOADS:
            ref = workloads.reference_text(name)
            self.assertEqual(workloads.check_output(name, ref), [], name)

    def test_one_altered_row_fails(self):
        for name in workloads.WORKLOADS:
            lines = workloads.reference_text(name).rstrip("\n").split("\n")
            row = len(lines) - 1
            lines[row] = lines[row][:-1] + (
                "0" if lines[row][-1] != "0" else "1")
            problems = workloads.check_output(name, "\n".join(lines))
            self.assertTrue(problems, name)

    def test_reordered_rows_pass(self):
        for name in ("table1", "array16_lanes"):
            lines = workloads.reference_text(name).rstrip("\n").split("\n")
            fixed = workloads.WORKLOADS[name]["fixed_lines"]
            shuffled = lines[:fixed] + lines[fixed:][::-1]
            self.assertEqual(
                workloads.check_output(name, "\n".join(shuffled)), [], name)


class Seeds(unittest.TestCase):
    def test_orders_differ_row_sets_agree(self):
        a = workloads.submission_order("table1", 1)
        b = workloads.submission_order("table1", 2)
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(a), sorted(b))
        self.assertIsNone(workloads.submission_order("planes_electrical", 1))

        from repro.engine import configure_default_engine
        from repro.experiments import table1_optimization
        rendered = []
        for order in (a[:3], a[:3][::-1]):
            configure_default_engine(workers=1)
            table = table1_optimization(defects=workloads._defects(order),
                                        engine=True)
            rendered.append(workloads.row_set("table1", table.render()))
        self.assertEqual(rendered[0], rendered[1])


class SelfTime(unittest.TestCase):
    def test_exact_on_synthetic_tree(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
        t = tracer.Tracer(clock=lambda: next(ticks))
        root = t.open("experiments")   # 0 .. 10
        a = t.open("a")                # 1 .. 4
        g = t.open("g")                # 2 .. 3
        t.close(g)
        t.close(a)
        b = t.open("b")                # 5 .. 9
        t.close(b)
        t.close(root)
        self.assertEqual(t.self_times(), [3.0, 2.0, 1.0, 4.0])
        summary = t.summary()
        self.assertEqual(sum(r["self_s"] for r in summary.values()), 10.0)
        self.assertEqual(summary["experiments"]["total_s"], 10.0)

    def test_wrapper_records_nesting(self):
        ticks = iter(float(i) for i in range(100))
        t = tracer.Tracer(clock=lambda: next(ticks))
        inner = t.wrap(lambda x: x + 1, "inner")
        outer = t.wrap(lambda x: inner(x) * 2, "outer",
                       count=lambda args, kwargs, result: result)
        self.assertEqual(outer(3), 8)
        self.assertEqual(list(t.parent), [-1, 0])
        self.assertEqual(t.summary()["outer"]["count"], 8.0)


class Wrappers(unittest.TestCase):
    def test_install_then_uninstall_restores_everything(self):
        def snapshot():
            return [vars(tracer.resolve_owner(o)).get(a)
                    for o, a, _, _ in tracer.BOUNDARIES]

        before = snapshot()
        self.assertEqual(tracer.count_wrapped(), 0)
        t = tracer.Tracer()
        t.install()
        try:
            self.assertEqual(tracer.count_wrapped(),
                             len(tracer.BOUNDARIES))
        finally:
            t.uninstall()
        self.assertEqual(tracer.count_wrapped(), 0)
        after = snapshot()
        for (owner, attr, _, _), x, y in zip(tracer.BOUNDARIES, before,
                                              after):
            self.assertIs(x, y, f"{owner}.{attr}")

    def test_untraced_pass_installs_nothing(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
             "--workload", "array16_lanes", "--seed", "0", "--mode", "run"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=170,
            check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        self.assertFalse(result["tracer_imported_during_run"])
        self.assertEqual(result["wrapped_after"], 0)
        self.assertEqual(
            workloads.check_output("array16_lanes", result["text"]), [])


class MetricLists(unittest.TestCase):
    def test_benchmark_json_lists_per_layer(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"], m["better"])
                  for m in spec["per_layer"]]
        self.assertEqual(listed, [(n, u, b)
                                  for n, u, b, _ in layers.PER_LAYER])

    def test_benchmark_json_lists_end_to_end(self):
        import run
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)

    def test_every_metric_moves_something(self):
        for name, _unit, _better, moves in layers.PER_LAYER:
            self.assertTrue(moves, name)
            for e2e, workload in moves:
                self.assertIn(e2e, ("wall_s", "resume_s"), name)
                self.assertIn(workload, workloads.WORKLOADS, name)

    def test_self_time_metrics_partition_spans(self):
        claimed = [n for names in layers.SELF_TIME.values() for n in names]
        self.assertEqual(len(claimed), len(set(claimed)))
        spans = {name for _, _, name, _ in tracer.BOUNDARIES}
        spans.add(tracer.ROOT)
        self.assertEqual(set(claimed), spans)


if __name__ == "__main__":
    unittest.main()
