"""Benchmark of the hodgeideals command line, driven in-process.

    python3 perfbench/run.py --workload recursion-chains --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client calls ``hodgeideals.cli.main([...])`` in a closed loop: the
next task starts when the previous one has returned.  The run executes
whole rounds of its workload (see workloads.py) until ``--seconds`` have
passed, checks every output against the independent references, and
prints its metrics; the last line of standard output is one JSON object.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds under per-layer spans (tracing.py) and reports
the per-layer metrics, the tracing overhead and the bypass assertions.
``--workload all`` runs every workload, each in a fresh process, and
exits non-zero if any task failed.

All times are scaled to a reference machine speed, measured in the run
by a fixed calibration kernel (see CAL_REF_S below and README.md).

The package is imported from ``src/`` next to this directory and from
nowhere else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (benchmark-local modules)
import workloads  # noqa: E402

SETUP_REPS = 7
# The host's speed for pure Python drifts by up to +-25% over tens of
# seconds (other tenants share the cores).  Every timing is therefore
# scaled by the speed of a fixed calibration kernel, measured between
# tasks whenever CAL_EVERY_S have passed: a time t in a round becomes
# t * CAL_REF_S / k, with k the median kernel time of the round's
# calibrations (each the median of CAL_REPS kernel runs).  CAL_REF_S is
# a typical kernel time on the machine of the recorded baseline, so
# there the scaled and the wall-clock figures agree on average.
CAL_REF_S = 0.0032
CAL_REPS = 5
CAL_EVERY_S = 0.25
# Tail percentile per workload, fixed so that a faster program (more
# samples) is compared at the same percentile.  Each is as high as allows
# at least ten samples beyond it in a 20-s run of the seed code, and a
# position inside a group of task shapes of similar cost, with gaps on
# both sides, rather than between two shapes of different cost (see
# README.md); on certify-parse it also stays below the last 3%, where
# scheduler stalls of 10-50 ms on 1-2 ms tasks decide the value.  For the
# same reason every round holds an odd number of tasks.
TAIL_PCT = {"recursion-chains": 72, "closed-forms": 89, "verify-suites": 93,
            "certify-parse": 95}
# Bypass assertions of the traced run: the layer a workload must never reach.
MUST_BE_ZERO = {"certify-parse": "ideal.groebner_basis.calls",
                "closed-forms": "recursion.derivation_step.calls"}


class MissingPackage(RuntimeError):
    pass


class Terminated(BaseException):
    """SIGTERM arrived; unlike SystemExit, no task catches it."""


def _terminate(signum, frame):
    raise Terminated(signum)


def import_package():
    """Fresh import of hodgeideals from SRC; returns ``cli.main``."""
    if not (SRC / "hodgeideals" / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {SRC / 'hodgeideals'}")
    for name in [m for m in sys.modules if m == "hodgeideals" or m.startswith("hodgeideals.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("hodgeideals.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "hodgeideals").resolve():
        raise MissingPackage(f"hodgeideals imported from {cli.__file__}, not from {SRC}")
    return cli.main


def _calibration_kernel():
    """Fixed pure-Python work shaped like exact polynomial arithmetic:
    Fraction products accumulated in a dict keyed by exponent tuples."""
    a = {(i % 5, i % 7, i % 3): Fraction(i + 1, i % 9 + 2) for i in range(30)}
    b = {(i % 3, i % 2, i % 5): Fraction(2 * i + 1, i % 7 + 3) for i in range(20)}
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            v = out.get(m, 0) + ca * cb
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return max(out, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))


def machine_scale() -> float:
    """CAL_REF_S over the kernel's current median time: how much faster
    than its reference speed the machine runs Python right now."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return CAL_REF_S / statistics.median(times)


class Tally:
    """Latencies and outcomes of one phase; 8 bytes per task, so the
    benchmark's own memory barely grows with the number of tasks run.
    ``latencies`` are scaled to the reference speed, ``wall_s`` is not."""

    def __init__(self):
        self.latencies = array.array("d")
        self.wall_s = 0.0
        self.failed = 0

    def add(self, latency: float, scale: float, passed: bool) -> None:
        self.latencies.append(latency * scale)
        self.wall_s += latency
        self.failed += not passed

    def tasks_per_s(self) -> float:
        busy = sum(self.latencies)
        return (len(self.latencies) - self.failed) / busy if busy else 0.0

    def wall_tasks_per_s(self) -> float:
        return (len(self.latencies) - self.failed) / self.wall_s if self.wall_s else 0.0


class Runner:
    # Repeated task contents are counted in a fixed bitmap (1 MiB) rather
    # than a growing set, which would raise peak RSS with throughput.
    SEEN_BITS = 1 << 23

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.make_round = workloads.WORKLOADS[workload]
        self.workdir = workdir
        self.refs = None
        self.cli_main = None
        self.tracer = None
        self.next_round = 0
        self.pending = None
        self.seen = bytearray(self.SEEN_BITS // 8)
        self.repeats = 0
        self.scale = 1.0
        self.calibrated_at = -math.inf
        self.scales = array.array("d")

    def calibrate_if_due(self, found: list) -> None:
        """Measure the machine speed scale if CAL_EVERY_S have passed."""
        if time.perf_counter() - self.calibrated_at >= CAL_EVERY_S:
            self.scale = machine_scale()
            self.scales.append(self.scale)
            found.append(self.scale)
            self.calibrated_at = time.perf_counter()

    def setup(self) -> float:
        """Import the package, load the references, generate and write the
        first round.  Returns its duration."""
        t0 = time.perf_counter()
        self.cli_main = import_package()
        self.refs = workloads.load_catalog()
        self.pending = self._generate(self.next_round)
        return time.perf_counter() - t0

    def _generate(self, rnd: int):
        rng = random.Random(f"{self.workload}:{self.seed}:{rnd}")
        tasks = self.make_round(rng, rnd, self.seed, self.refs)
        paths = []
        for i, task in enumerate(tasks):
            path = None
            if task.doc is not None:
                path = self.workdir / f"t{i}.json"
                path.write_text(json.dumps(task.doc), encoding="utf-8")
            paths.append(path)
        return list(zip(tasks, paths))

    def _count_repeat(self, task) -> None:
        byte, bit = divmod(hash(task.key()) % self.SEEN_BITS, 8)
        self.repeats += (self.seen[byte] >> bit) & 1
        self.seen[byte] |= 1 << bit

    def execute(self, task, path):
        """(latency in s, passed) for one task."""
        argv = [str(path) if a == workloads.TASK_FILE else a for a in task.argv]
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        rec = None
        t0 = time.perf_counter()
        if tracer is not None:
            rec = tracer.open(tracer.task_nid, time.perf_counter)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.cli_main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a task that raises is a failed task; the run goes on
            traceback.print_exc(file=sys.stderr)
            rc = None
        finally:
            if rec is not None:
                tracer.close(rec, time.perf_counter)
        latency = time.perf_counter() - t0
        passed = rc is not None and task.check(rc, out.getvalue(), err.getvalue())
        if not passed:
            sys.stderr.write(f"FAILED {task.kind}: argv={argv} rc={rc} "
                             f"doc={json.dumps(task.doc)}\nstdout: {out.getvalue()[:2000]}\n"
                             f"stderr: {err.getvalue()[:2000]}\n")
        return latency, passed

    def run_rounds(self, seconds: float, tracer=None) -> tuple[Tally, Tally]:
        """Whole rounds until ``seconds`` have passed: (untraced, traced).
        With a tracer, rounds alternate untraced and traced, so both
        phases see the same warm-up, machine noise and task mix."""
        plain, traced = Tally(), Tally()
        start = time.perf_counter()
        for count in itertools.count():
            batch = self.pending if self.pending is not None else self._generate(self.next_round)
            self.pending = None
            self.next_round += 1
            self.tracer = tracer if tracer is not None and count % 2 == 1 else None
            tally = traced if self.tracer is not None else plain
            if self.tracer is not None:
                self.tracer.install()
            done, scales = [], []
            try:
                for task, path in batch:
                    self._count_repeat(task)
                    self.calibrate_if_due(scales)
                    if self.tracer is not None:
                        self.tracer.task += 1
                    done.append(self.execute(task, path))
            finally:
                if self.tracer is not None:
                    self.tracer.uninstall()
            # One scale per round, the median of its calibrations.
            scale = statistics.median(scales) if scales else self.scale
            for latency, passed in done:
                tally.add(latency, scale, passed)
            if time.perf_counter() - start >= seconds and (tracer is None or traced.latencies):
                return plain, traced


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_one(args) -> int:
    import_package()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(args.workload, args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPS):
            runner.next_round, runner.pending = 0, None
            scale = machine_scale()
            setups.append(runner.setup() * scale)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.prepare()
        untraced, traced = runner.run_rounds(args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by another run
            WORK.rmdir()

    latencies = untraced.latencies + traced.latencies
    attempted = len(latencies)
    failed = untraced.failed + traced.failed
    tail_pct = TAIL_PCT[args.workload]
    tail, beyond = percentile(latencies, tail_pct)
    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}: {attempted} tasks in "
          f"{runner.next_round} rounds, {failed} failed, {runner.repeats} repeated "
          f"task contents; one client, closed loop")
    scales = runner.scales
    print(f"machine speed scale: median {statistics.median(scales):.4f} over {len(scales)} "
          f"calibrations (min {min(scales):.4f}, max {max(scales):.4f}); unscaled wall-clock "
          f"tasks_per_s {untraced.wall_tasks_per_s():.6g} 1/s")
    print(f"task_s.tail is p{tail_pct}: {beyond} samples beyond it "
          f"(of {attempted}){'' if beyond >= 10 else '  WARNING: fewer than 10'}")
    if args.trace:
        n_traced = len(traced.latencies)
        metrics = {name: (value, unit_of(name))
                   for name, value in tracing.summarize(tracer, n_traced).items()}
        untraced_tps, traced_tps = untraced.tasks_per_s(), traced.tasks_per_s()
        metrics["trace.untraced_tasks_per_s"] = (untraced_tps, "1/s")
        metrics["trace.traced_tasks_per_s"] = (traced_tps, "1/s")
        metrics["trace.overhead_frac"] = (untraced_tps / traced_tps - 1 if traced_tps else 0.0,
                                          "frac")
        metrics["failed_frac"] = (failed / attempted, "frac")
        metrics["repeat_frac"] = (runner.repeats / attempted, "frac")
        bypass = MUST_BE_ZERO.get(args.workload)
        if bypass is not None:
            holds = metrics[bypass][0] == 0
            print(f"bypass assertion {bypass} == 0 on {args.workload}: "
                  f"{'holds' if holds else 'VIOLATED'}")
            correct = correct and holds
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.tsv.gz"
        tracer.write(spans_path)
        print(f"{len(tracer.nid)} spans of {n_traced} traced tasks written to "
              f"{spans_path.relative_to(ROOT)}")
        if tracer.hook_errors:
            print(f"WARNING: {tracer.hook_errors} span extras could not be read; "
                  "the metrics built on them are incomplete")
    else:
        metrics = {
            "tasks_per_s": (untraced.tasks_per_s(), "1/s"),
            "task_s.p50": (statistics.median(latencies), "s"),
            "task_s.tail": (tail, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"failed_frac {failed / attempted:.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.startswith("verify."):
        return "s/call"
    if name.endswith(("_frac", ".share")):
        return "frac"
    if name.endswith(("in_gens", "out_basis")):
        return "gens/call"
    if name.endswith("generators"):
        return "gens/task"
    if name.endswith((".s", "_s")):
        return "s/task"
    return "calls/task"


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False}
        if proc.returncode != 0 or not result["correct"]:
            print(f"[{name}] FAILED (exit code {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the work directory is removed.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except MissingPackage as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Terminated as exc:
        return 128 + exc.args[0]


if __name__ == "__main__":
    sys.exit(main())
