"""Golden outputs of the command line on the bundled corpus and on the
model families of ``tests/golden/families/``: every call below runs
``cli.main`` in-process, from the directory of its models, and its exit
code, stdout and stderr must equal what ``tests/golden/`` records.  A
refactor that leaves these files as they are changed no output.

To record the outputs again, after a change that is meant to alter them:
``PYTHONPATH=src python tests/test_golden.py``."""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from abcalc.cli import main
from abcalc.systems import CORPUS_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"
FILES = sorted(p.name for p in CORPUS_DIR.iterdir() if p.suffix in (".abc", ".bpi"))
MODELS = [f for f in FILES if f.endswith(".abc")]
FAMILIES = GOLDEN / "families"
# pairs of family models, each checked in both modes: silent prefixes
# against none (tau-leaves k=1..5, a silent step before an input, silent
# and visible outputs whose inert silent step hides visible ones),
# emitters, guards stated through De Morgan, a changed guard, and
# tau-leaves against emitters, a weak negative decided on quotient products
FAMILY_PAIRS = ([[f"tau-k{k}.abc", f"plain-k{k}.abc"] for k in range(1, 6)]
                + [["tau-input.abc", "input.abc"], ["tau-guards.abc", "nil.abc"],
                   ["emitters-k3.abc", "emitters-k3.abc"], ["emitters-k3.abc", "emitters-k2.abc"],
                   ["guarded-k3.abc", "guarded-k3-demorgan.abc"],
                   ["guarded-k3.abc", "guarded-k3-changed.abc"],
                   ["tau-k3.abc", "emitters-k3.abc"]])
# pairs under other options: bounds that the product hits, a message that
# the product never delivers, and leaves with infinitely many successors,
# one of them nested deeper with each
FAMILY_CALLS = [["--max-states", "50", "tau-k3.abc", "plain-k3.abc"],
                ["--max-depth", "3", "tau-k3.abc", "plain-k3.abc"],
                ["--universe", "none", "sender-late.abc", "sender.abc"],
                ["--universe", "auto", "sender-late.abc", "sender.abc"],
                ["--universe", "none", "counter.abc", "once.abc"],
                ["--universe", "none", "sender-deep.abc", "sender.abc"]]
# weak only: the depth bounds either side of the real depth of tau-leaves
# k=3, 9, which the product of reachable leaves (4^3 - 1 = 63) overstates
DEPTH_EDGES = [["--max-depth", "9", "tau-k3.abc", "plain-k3.abc"],
               ["--max-depth", "8", "tau-k3.abc", "plain-k3.abc"]]
# weak barbs under bounds that the silent moves of tau-leaves k=3 hit
BARB_CALLS = [["--max-depth", "1", "tau-k3.abc"], ["--max-states", "2", "tau-k3.abc"]]
# a system whose second silent step leaves its declared domain, against
# ("a")@tt.0: every check stops with the same error, wherever it meets it
ERROR_CALLS = [["--weak", "--universe", "none"], ["--strong", "--universe", "none"], ["--weak"],
               ["--weak", "--universe", "none", "--max-states", "3"]]


def calls_of(name: str) -> list:
    """The calls recorded in one golden file: every command on one corpus
    file (those that refuse its kind of file included), or the commands
    that take no file or two."""
    if name == "families":
        return ([["check-bisim", mode, "--json", "-", *args] for args in FAMILY_PAIRS + FAMILY_CALLS
                 for mode in ("--weak", "--strong")]
                + [["check-bisim", "--weak", "--json", "-", *args] for args in DEPTH_EDGES]
                + [["barbs", "--weak", *args] for args in BARB_CALLS])
    if name == "errors":
        return [["check-bisim", *args, "overflow.abc", "once.abc"] for args in ERROR_CALLS]
    if name == "pairs":
        return [["corpus"]] + [["check-bisim", mode, a, b] for a in MODELS for b in MODELS
                               for mode in ("--weak", "--strong")]
    calls = [["parse", name], ["translate", name], ["verify-encoding", name]]
    if name.endswith(".bpi"):
        calls.append(["verify-encoding", "--max-depth", "1", name])
    calls += [["steps", "--universe", mode, name] for mode in ("auto", "none", "declared")]
    calls += [["explore", name], ["explore", name, "--json"],
              ["explore", "--max-states", "2", name], ["explore", "--max-depth", "1", name]]
    calls += [["barbs", name], ["barbs", "--weak", name]]
    return calls


GROUPS = FILES + ["pairs", "families", "errors"]


def run(argv: list, where: Path = CORPUS_DIR) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(group: str) -> dict:
    where = FAMILIES if group in ("families", "errors") else CORPUS_DIR
    return {" ".join(argv): run(argv, where) for argv in calls_of(group)}


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_match_the_golden_files(group):
    want = json.loads((GOLDEN / f"{group}.json").read_text(encoding="utf-8"))
    got = record(group)
    assert list(got) == list(want)
    for call, result in got.items():
        assert result == want[call], call


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for group in GROUPS:
        text = json.dumps(record(group), indent=1) + "\n"
        (GOLDEN / f"{group}.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(GROUPS)} files to {GOLDEN}", file=sys.stderr)
