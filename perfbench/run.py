"""End-to-end benchmark of the paper's deliverables.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

Every pass runs in a fresh interpreter (``child.py``), because a CLI
user pays imports, plan compilation and cold caches on every
invocation.  ``--trace 0`` measures the end-to-end metrics with no
wrapper installed; ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics.  Each pass's rendered deliverable is
checked row by row against ``reference/``.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import DURABLE, WORKLOADS, check_output, reference_text, \
    row_set  # noqa: E402

#: Set-up-only interpreters per run (the full passes add more samples).
SETUP_SAMPLES = 5

#: Every child must end by this many seconds after the run started.
RUN_DEADLINE_S = 170.0

#: Thread pinning: a workload's thread count is its worker count.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {
    "wall_s": "s",
    "resume_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    """A child interpreter failed or produced no result."""


def calibration_s(loops: int = 3) -> float:
    """Median time of a short fixed pure-Python loop (host speed)."""
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_line() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "calibration_s": round(calibration_s(), 6)}


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def journal_records(ckpt: Path) -> int:
    journal = ckpt / "journal.jsonl"
    if not journal.exists():
        return 0
    return sum(1 for line in journal.read_text().splitlines() if line)


class Runner:
    """Spawns child passes under one run-wide deadline."""

    def __init__(self, workload: str, seed: int, deadline: float,
                 workdir: Path):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **PINNED_ENV)

    def child(self, mode: str, *, checkpoint: Path | None = None,
              resume: bool = False, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        if checkpoint is not None:
            cmd += ["--checkpoint", str(checkpoint)]
        if resume:
            cmd.append("--resume")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise PassError("run deadline reached")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            out, err = "", "timed out"
        finally:
            _reap_group(proc)
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}")
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            tail = "\n".join(err.strip().splitlines()[-5:])
            raise PassError(f"{mode} pass failed ({exc}): {tail}") from None
        result["setup_s"] = result["t_call"] - t_spawn
        return result

    def fresh_checkpoint(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir))


def _reap_group(proc: subprocess.Popen) -> None:
    """Stop the child's whole session (pool workers included) and wait
    until every process in it has ended."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Tally:
    """Correctness and failure accounting over every pass of a run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reference = reference_text(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.row_sets: set[str] = set()

    def pass_(self, result: dict, label: str) -> None:
        lookups = max(1, result["counters"]["lookups"])
        self.attempted += lookups
        bad = result["counters"]["failures"] + result["holes"]
        diff = check_output(self.workload, result["text"], self.reference)
        if diff:
            self.problems.append(f"{label}: " + "; ".join(diff[:3]))
            bad = lookups
        if result["wrapped_after"]:
            self.problems.append(f"{label}: {result['wrapped_after']} "
                                 f"wrappers left installed")
            bad = lookups
        self.failed += min(bad, lookups)
        rows = "\n".join(row_set(self.workload, result["text"]))
        self.row_sets.add(hashlib.sha256(rows.encode()).hexdigest()[:12])

    def crashed(self, label: str, exc: Exception) -> None:
        self.problems.append(f"{label}: {exc}")
        self.attempted += 1
        self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    start = time.monotonic()
    runner = Runner(workload, seed, start + RUN_DEADLINE_S, workdir)
    tally = Tally(workload)
    durable = workload in DURABLE
    samples = {name: [] for name in END_TO_END}
    info: dict = {"workload": workload, "seed": seed}
    layers: dict[str, float] = {}
    try:
        if trace:
            layers = _traced(runner, tally, info)
        else:
            for _ in range(SETUP_SAMPLES):
                ckpt = runner.fresh_checkpoint() if durable else None
                samples["setup_s"].append(
                    runner.child("setup", checkpoint=ckpt)["setup_s"])
                if ckpt is not None:
                    shutil.rmtree(ckpt, ignore_errors=True)
            # Start another pass only when it should end within the
            # run's seconds (and well before the hard deadline).
            limit = min(seconds, RUN_DEADLINE_S - 40.0)
            while True:
                t0 = time.monotonic()
                _full_pass(runner, tally, samples, info)
                spent = time.monotonic() - t0
                if time.monotonic() - start + spent > limit:
                    break
    except PassError as exc:
        tally.crashed("pass", exc)
    info["elapsed_s"] = time.monotonic() - start
    info["samples"] = samples
    info["correct"] = tally.correct
    info["attempted"] = tally.attempted
    info["failed"] = tally.failed
    info["problems"] = tally.problems
    info["row_set_id"] = sorted(tally.row_sets)
    info["layers"] = layers
    return info


def _full_pass(runner: Runner, tally: Tally, samples: dict,
               info: dict) -> None:
    """One measured repetition: the deliverable in a fresh interpreter,
    then the user's second invocation of it in another one (with
    ``--resume`` over the checkpoint the first wrote, for the durable
    workload; the in-memory workloads keep nothing across invocations)."""
    ckpt = runner.fresh_checkpoint() if runner.workload in DURABLE else None
    first = runner.child("run", checkpoint=ckpt)
    tally.pass_(first, "first pass")
    samples["wall_s"].append(first["t_end"] - first["t_call"])
    samples["setup_s"].append(first["setup_s"])
    self_kb, child_kb = first["rss_kb"]
    samples["peak_rss_mb"].append((self_kb + child_kb) / 1024.0)
    info["order"] = first["order"]
    info["host"] = first["host"]
    info["counters"] = first["counters"]
    if ckpt is not None:
        info["store_bytes_written"] = dir_bytes(ckpt / "store")
        info["journal_records"] = journal_records(ckpt)
    second = runner.child("run", checkpoint=ckpt, resume=ckpt is not None)
    tally.pass_(second, "second pass")
    samples["resume_s"].append(second["t_end"] - second["t_call"])
    samples["setup_s"].append(second["setup_s"])
    if ckpt is not None:
        info["resume_counters"] = second["counters"]
        shutil.rmtree(ckpt, ignore_errors=True)


def _traced(runner: Runner, tally: Tally, info: dict) -> dict:
    """One untraced and one traced pass; returns the per-layer metrics."""
    durable = runner.workload in DURABLE
    ckpt = runner.fresh_checkpoint() if durable else None
    plain = runner.child("run", checkpoint=ckpt)
    tally.pass_(plain, "untraced pass")
    if ckpt is not None:
        shutil.rmtree(ckpt, ignore_errors=True)
    ckpt = runner.fresh_checkpoint() if durable else None
    tag = f"{runner.workload}-seed{runner.seed}"
    traced = runner.child("trace", checkpoint=ckpt,
                          spans=runner.workdir / f"spans-{tag}.json")
    tally.pass_(traced, "traced pass")
    info["order"] = traced["order"]
    info["host"] = traced["host"]
    info["n_spans"] = traced["n_spans"]
    m = dict(traced["layers"])
    m["trace.overhead_s"] = m["trace.wall_s"] - (plain["t_end"]
                                                 - plain["t_call"])
    for name in ("store.bytes_written", "store.resume_puts",
                 "store.resume_disk_hits", "engine.resume_simulated"):
        m[name] = 0
    if ckpt is not None:
        m["store.bytes_written"] = dir_bytes(ckpt / "store")
        m["engine.journal_records"] = journal_records(ckpt)
        resumed = runner.child("trace", checkpoint=ckpt, resume=True,
                               spans=runner.workdir
                               / f"spans-{tag}-resume.json")
        tally.pass_(resumed, "traced resume pass")
        for name in ("store.gets", "store.get_s", "store.disk_hits"):
            m[name] = resumed["layers"][name]
        counters = resumed["counters"]
        m["store.resume_puts"] = counters["store_writes"]
        m["store.resume_disk_hits"] = counters["disk_hits"]
        m["engine.resume_simulated"] = counters["misses"]
        shutil.rmtree(ckpt, ignore_errors=True)
    missing = {name for name, *_ in PER_LAYER} ^ set(m)
    if missing:
        raise PassError(f"per-layer metric set mismatch: {sorted(missing)}")
    return m


def report(info: dict, trace: bool, host: dict) -> dict:
    """Print the human-readable lines; return the JSON result object."""
    wl = info["workload"]
    h = dict(host, **info.get("host", {}))
    print(f"perfbench workload={wl} seed={info['seed']} "
          f"trace={int(trace)} elapsed={info['elapsed_s']:.1f}s")
    print("host: " + " ".join(f"{k}={v}" for k, v in h.items()))
    order = info.get("order")
    print(f"inputs: order={','.join(order) if order else 'fixed'} "
          f"row_set={','.join(info['row_set_id']) or '-'}")
    metrics: dict = {}
    if trace:
        for name, unit, _better, _moves in PER_LAYER:
            value = info["layers"].get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:30s} {value:14.6g} {unit}")
        print(f"  spans recorded: {info.get('n_spans', 0)}")
    else:
        for name, unit in END_TO_END.items():
            values = info["samples"][name]
            value = _median(values)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:12s} median {value:12.6g} {unit:3s} n={len(values)}")
    attempted, failed = info["attempted"], info["failed"]
    print(f"  {'fail_frac':12s} {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} requests)")
    if wl in DURABLE and not trace and "resume_counters" in info:
        rc = info["resume_counters"]
        print(f"durable rerun pass: store.puts={rc['store_writes']} "
              f"store.disk_hits={rc['disk_hits']} "
              f"re-simulated={rc['misses']}; write pass journal_records="
              f"{info.get('journal_records', 0)} store bytes="
              f"{info.get('store_bytes_written', 0)}")
    for problem in info["problems"]:
        print(f"CHECK FAILED: {problem}")
    return {"correct": info["correct"], "attempted": max(1, attempted),
            "failed": failed, "metrics": metrics}


def write_record(workdir: Path, info: dict, result: dict,
                 host: dict, trace: bool) -> None:
    record = dict(info, host=dict(host, **info.get("host", {})),
                  result=result)
    path = workdir / (f"record-{info['workload']}-seed{info['seed']}"
                      f"-trace{int(trace)}.json")
    path.write_text(json.dumps(record, indent=1, default=str))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    host = host_line()
    results = {}
    for name in names:
        info = measure(name, opts.seed, opts.seconds, bool(opts.trace),
                       workdir)
        results[name] = report(info, bool(opts.trace), host)
        write_record(workdir, info, results[name], host, bool(opts.trace))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}.{k}": v for wl, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
