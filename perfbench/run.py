#!/usr/bin/env python3
"""Benchmark of the abcalc command line: explore, check-bisim and
verify-encoding, timed per command and, in a traced run, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Each operation is one CLI call (``abcalc.cli.main``) in a fresh
interpreter, as a user's call would be, and operations run one at a time
from this single driver process (a closed loop with one client).  A run
repeats whole rounds of its workload's operations for about S seconds and
reports, per operation, the median over rounds.  Times are given at the
reference speed: each timed call sits between two runs of the fixed
program reference.py, and what is reported is the median of the ratio of
its time to theirs, times REF_S.  Every output is checked
against closed forms and known verdicts (workloads.py).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of tracer.py and the tracing overhead.
Per-operation details go to ``perfbench/out/results/``, raw spans to
``perfbench/out/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "abcalc" / "corpus"
OUT = HERE / "out"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.py"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
from workloads import WORKLOADS, Result, build_workload  # noqa: E402

CLI = "import sys; from abcalc.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT = "import abcalc.cli"
SETUP_REPEATS = 7
MIN_ROUNDS = 3
OP_TIMEOUT_S = 150
# About the median wall time of reference.py in a fresh interpreter on a
# shared 2-core Xeon VM (2.0 GHz, Python 3.11); it only fixes the scale.
# The host's speed drifts by 20-40% over minutes, in CPU time as much as
# in wall time; the ratio of a call's time to that of the reference runs
# around it does not.  So the time metrics report
# REF_S * (time / reference time): seconds at that VM's typical speed.
REF_S = 0.17


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", as listed in
    the BENCHMARK.json at the root of the checkout."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list, cwd: Path) -> tuple:
    """Run one process to its end; return (Result, wall s, cpu s, max RSS MB)
    from its own resource usage."""
    with open(cwd / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(cwd / "stderr.txt", "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        result = Result(proc.returncode, out.read(), err.read(), cwd)
    cpu = usage.ru_utime + usage.ru_stime
    return result, wall, cpu, usage.ru_maxrss / 1024.0


def run_reference(cwd: Path) -> tuple:
    """(wall s, cpu s) of one run of reference.py."""
    result, wall, cpu, _ = run_child([sys.executable, str(REFERENCE)], cwd)
    if result.returncode != 0:
        raise BenchError(f"reference.py failed: {result.stderr.strip()[-300:]}")
    return wall, cpu


def setup(name: str, seed: int, workdir: Path):
    """Build the workload's inputs, write them, and import abcalc in a
    fresh interpreter; timed SETUP_REPEATS times after one warm-up that
    leaves the bytecode cache filled, each time against the reference runs
    just before and just after.  Returns the workload and set-up seconds
    at the reference speed."""
    workdir.parent.mkdir(parents=True, exist_ok=True)
    ratios = []
    before, _ = run_reference(workdir.parent)
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        workload = build_workload(name, seed, CORPUS)
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        for fname, text in workload.files.items():
            (workdir / fname).write_text(text, encoding="utf-8")
        result, _, _, _ = run_child([sys.executable, "-c", IMPORT], workdir)
        if result.returncode != 0:
            raise BenchError(f"cannot import abcalc: {result.stderr.strip()[-300:]}")
        took = time.perf_counter() - t0
        after, _ = run_reference(workdir.parent)
        if i:
            ratios.append(took / ((before + after) / 2))
        before = after
    return workload, REF_S * statistics.median(ratios)


class Tally:
    def __init__(self, workload):
        self.workload = workload
        # (wall, cpu, rss, reference wall, reference cpu); the reference
        # times are the means of the runs just before and just after
        self.samples = {op.name: [] for op in workload.ops}
        self.traced = {op.name: [] for op in workload.ops}  # (wall, layers)
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.errors = []

    def judge(self, op, result: Result):
        self.attempted += 1
        try:
            problem = op.check(result)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None:
            return
        if op.known_fault:
            self.failed += 1
            self.failures[op.name] = problem
        else:
            self.errors.append(f"{op.name}: {problem}")


def run_round(tally: Tally, workdir: Path, traced: bool, trace_dir: Path):
    """The calls of ``Workload.round``.  Untraced calls alternate with reference
    runs, so each call has one just before and one just after it."""
    before = None if traced else run_reference(workdir)
    for op in tally.workload.round:
        if traced:
            stem = trace_dir / op.name
            result, wall, _, _ = run_child([sys.executable, str(TRACER), str(stem), *op.argv],
                                           workdir)
            tally.traced[op.name].append((wall, tracer.summarize(str(stem))))
        else:
            result, wall, cpu, rss = run_child([sys.executable, "-c", CLI, *op.argv], workdir)
            after = run_reference(workdir)
            tally.samples[op.name].append((wall, cpu, rss, (before[0] + after[0]) / 2,
                                           (before[1] + after[1]) / 2))
            before = after
        tally.judge(op, result)


def measure(tally: Tally, workdir: Path, seconds: float, trace: bool, trace_dir: Path):
    """Whole rounds until the next one would end after ``seconds``; at
    least MIN_ROUNDS untraced rounds, or one untraced and one traced round
    (alternating) in a traced run."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        t0 = time.perf_counter()
        run_round(tally, workdir, False, trace_dir)
        if trace:
            run_round(tally, workdir, True, trace_dir)
        rounds += 1
        took = time.perf_counter() - t0
        enough = rounds >= (1 if trace else MIN_ROUNDS)
        if enough and time.perf_counter() + took > deadline:
            return rounds


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """Per operation, the median over rounds of its time over the time of
    the reference runs around it; the time metrics are REF_S times these
    ratios."""
    wall = {name: statistics.median(s[0] / s[3] for s in rows)
            for name, rows in tally.samples.items()}
    cpu = {name: statistics.median(s[1] / s[4] for s in rows)
           for name, rows in tally.samples.items()}
    return {
        "wall_s": REF_S * sum(wall.values()),
        "cpu_s": REF_S * sum(cpu.values()),
        "largest_op_s": REF_S * wall[tally.workload.largest.name],
        "peak_rss_mb": max(s[2] for rows in tally.samples.values() for s in rows),
        "setup_s": setup_s,
    }


def per_layer(tally: Tally) -> dict:
    """Per-layer values summed over operations, each operation's value
    the median over its traced rounds."""
    sums = {}
    for rows in tally.traced.values():
        keys = rows[0][1].keys()
        for key in keys:
            sums[key] = sums.get(key, 0) + statistics.median(r[1][key] for r in rows)
    reported = sums["lts.states_reported"]
    sums["lts.reexplore_ratio"] = sums["lts.states_expanded"] / reported if reported else 0.0
    traced_wall = sum(statistics.median(r[0] for r in rows) for rows in tally.traced.values())
    untraced_wall = sum(statistics.median(s[0] for s in rows)
                        for rows in tally.samples.values())
    sums["trace.overhead_ratio"] = traced_wall / untraced_wall
    return sums


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "abcalc" / "cli.py").is_file():
        print(f"error: no abcalc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / tag
    trace_dir = OUT / "trace" / tag
    if args.trace:
        if trace_dir.exists():
            shutil.rmtree(trace_dir)
        trace_dir.mkdir(parents=True)
    try:
        workload, setup_s = setup(args.workload, args.seed, workdir)
        tally = Tally(workload)
        rounds = measure(tally, workdir, args.seconds, bool(args.trace), trace_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    values = per_layer(tally) if args.trace else end_to_end(tally, setup_s)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for line in tally.errors:
        print(f"incorrect: {line}", file=sys.stderr)
    for name, problem in tally.failures.items():
        print(f"failed (known fault): {name}: {problem}", file=sys.stderr)
    summary = {"correct": not tally.errors, "attempted": tally.attempted,
               "failed": tally.failed, "metrics": metrics}
    detail = dict(summary, workload=args.workload, seed=args.seed, rounds=rounds,
                  errors=tally.errors, failures=tally.failures,
                  ops={name: {"samples": rows, "traced": tally.traced[name]}
                       for name, rows in tally.samples.items()})
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1),
                                                 encoding="utf-8")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
