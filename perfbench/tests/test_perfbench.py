"""Tests of the benchmark itself: its closed forms against an independent
enumeration, its output parsing, a smoke pass of every workload at its
smallest sizes (untraced and traced), and its refusal to run without
the program's sources.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import product  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_emitters_closed_form(k):
    assert product.counts(product.emitters(k)) == wl.emitters_counts(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tau_leaves_closed_form(k):
    assert product.counts(product.tau_leaves(k)) == wl.tau_leaves_counts(k)


@pytest.mark.parametrize("c,d", [(1, 1), (2, 2), (2, 3), (3, 1), (1, wl.DEEP_CHAIN)])
def test_chains_closed_form(c, d):
    assert product.counts(product.chains([d] * c)) == wl.chains_counts(c, d)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_relay_states_are_fibonacci(k):
    assert product.counts(product.relay(k))["states"] == wl.relay_counts(k)["states"]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_repeaters_closed_form(k):
    got = product.counts(product.repeaters(k))
    assert {key: got[key] for key in ("states", "transitions")} == wl.repeaters_counts(k)


def test_label_kinds():
    assert wl._label_kind("tau") == "tau"
    assert wl._label_kind("{role = 'a'}@(role == 'b')!('e1', 1)") == "out"
    assert wl._label_kind("{}@!(role != 'b' || tier == 1)?('x')") == "in"
    assert wl._label_kind("{}@tt?(tup('a', 1))") == "in"


def test_aut_counts():
    text = 'des (0,3,2)\n(0,"tau",1)\n(0,"{}@tt!(\'a\')",1)\n(1,"{}@tt?(\'a\')",1)\n'
    assert wl.aut_counts(text) == {"states": 2, "transitions": 3, "universe": 1, "taus": 1}
    with pytest.raises(ValueError):
        wl.aut_counts('des (0,2,2)\n(0,"tau",1)\n')


def test_seed_changes_names_not_shape():
    one = wl.build_workload("bisim_decide", 1, run.CORPUS)
    two = wl.build_workload("bisim_decide", 2, run.CORPUS)
    again = wl.build_workload("bisim_decide", 1, run.CORPUS)
    assert one.files == again.files
    assert one.files != two.files
    assert [op.name for op in one.ops] == [op.name for op in two.ops]
    assert [op.size for op in one.ops] == [op.size for op in two.ops]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_round_repeats_only_the_largest(name):
    workload = wl.build_workload(name, 1, run.CORPUS)
    calls = collections.Counter(op.name for op in workload.round)
    assert calls == {op.name: wl.LARGEST_CALLS if op is workload.largest else 1
                     for op in workload.ops}


def test_known_faults_do_not_depend_on_seed():
    for name in wl.WORKLOADS:
        ops = [{op.name: op for op in wl.build_workload(name, seed, run.CORPUS).ops}
               for seed in (1, 2)]
        for op_name, op in ops[0].items():
            if op.known_fault:
                assert op.files == ops[1][op_name].files


def test_time_metrics_follow_the_program_not_the_host():
    """A host that runs everything twice as slowly leaves the time metrics
    alone; a program that takes twice as long doubles them."""
    workload = wl.build_workload("bisim_decide", 1, run.CORPUS)

    def metrics(host, program):
        tally = run.Tally(workload)
        for rows in tally.samples.values():
            for op_s, ref_s in ((0.5, 0.2), (0.7, 0.3), (0.6, 0.2)):
                op_s *= host * program
                ref_s *= host
                rows.append((op_s, op_s, 20.0, ref_s, ref_s))
        return run.end_to_end(tally, 0.1)

    base = metrics(1, 1)
    assert metrics(2, 1) == pytest.approx(base)
    doubled = metrics(1, 2)
    for key in ("wall_s", "cpu_s", "largest_op_s"):
        assert doubled[key] == pytest.approx(2 * base[key])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke(name, tmp_path):
    """One untraced and one traced round at the smallest sizes: every
    operation without a known fault is correct, and both metric sets are
    complete."""
    workload = wl.build_workload(name, 7, run.CORPUS, sizes=wl.SMOKE_SIZES[name])
    for fname, text in workload.files.items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    tally = run.Tally(workload)
    rounds = run.measure(tally, tmp_path, 0, True, trace_dir)
    assert rounds == 1
    assert tally.errors == []
    assert tally.attempted == 2 * len(workload.round)
    assert set(tally.failures) <= {op.name for op in workload.ops if op.known_fault}
    e2e = run.end_to_end(tally, 0.1)
    assert set(e2e) == set(run.metric_units("end_to_end"))
    assert all(v > 0 for v in e2e.values())
    layers = run.per_layer(tally)
    assert set(run.metric_units("per_layer")) <= set(layers)
    if name == "encode_verify":
        assert layers["bpi.steps_calls"] > 0 and layers["lts.explore_calls"] == 0
    else:
        assert layers["lts.explore_calls"] > 0 and layers["bpi.steps_calls"] == 0
    assert (layers["equivalence.decide_s"] > 0) == (name == "bisim_decide")


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload",
                           "explore_scale", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
