"""The plain command-line reader (``cli._plain_args``) agrees with
argparse.  Command lines are drawn from a per-command alphabet: options
exact and abbreviated, ``=`` forms, ``--``, help, the lone dash, the empty
string, a negative number, ints with spaces or underscores, good and bad
choices and file names.  Every command line the reader accepts parses to
the same attributes under the parser of every command, and ``main``
answers the same with and without the reader: the same exit code,
output, errors and arguments handed to the command."""

import contextlib
import io
import itertools
import random

import pytest

from abcalc import cli

# The table and the reader as the module defines them; ``_answers``
# replaces both on ``cli`` for one call of ``main``.
COMMANDS = cli.COMMANDS
READER = cli._plain_args

COMMON = ("--", "-h", "--help", "-", "", "-1", "3", " 3", "1_0", "a.abc", "b.bpi")
# Tokens for each argument name of ``cli.COMMANDS``; positionals add none
# beyond the file names of ``COMMON``.
TOKENS = {
    "output": ("-o", "--output", "--out", "-oy.aut", "--output=y.aut"),
    "weak": ("--weak", "--we"),
    "mode": ("--strong", "--weak", "--str", "--weak=1"),
    "json": ("--json", "--js", "--json=-"),
    "max_states": ("--max-states", "--max", "--max-s"),
    "max_depth": ("--max-depth", "--max-depth=3"),
    "universe": ("--universe", "--uni", "--universe=none", "none", "declared", "all"),
}
# Tails of up to this many tokens after the command are all tried; longer
# ones are sampled.
EXHAUSTIVE = 3
SAMPLED = 3000


def _alphabet(arguments) -> tuple:
    return COMMON + tuple(t for a in arguments for t in TOKENS.get(a, ()))


def _command_lines(name, arguments):
    alphabet = _alphabet(arguments)
    for size in range(EXHAUSTIVE + 1):
        for tail in itertools.product(alphabet, repeat=size):
            yield [name, *tail]
    rng = random.Random(f"argv-{name}")
    for _ in range(SAMPLED):
        yield [name, *rng.choices(alphabet, k=rng.randint(EXHAUSTIVE + 1, 7))]


@pytest.fixture(scope="module")
def full_parser():
    return cli.build_parser()


@pytest.mark.parametrize("name, arguments", [(e[0], e[3]) for e in COMMANDS],
                         ids=[e[0] for e in COMMANDS])
def test_read_namespace_matches_argparse(full_parser, name, arguments):
    """The reader's namespace holds argparse's attribute names with
    argparse's values."""
    read = 0
    for argv in _command_lines(name, arguments):
        args = READER(argv)
        if args is None:
            continue
        read += 1
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                want = full_parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"read {argv!r}, which argparse refuses: {err.getvalue()}")
        # the reader gives a SimpleNamespace, argparse a Namespace: the
        # same attribute names with the same values
        assert vars(args) == vars(want), argv
    assert read >= 20


def test_other_first_tokens_are_left_to_argparse():
    for first in ("", "-h", "--help", "expl", "--json", "explore=", "Explore", "-", "--"):
        assert READER([first]) is None
        assert READER([first, "a.abc"]) is None
    assert READER([]) is None


def _answers(monkeypatch, argv, reader):
    """What ``main`` does with ``argv``, with the commands replaced by a
    recorder of their arguments; ``reader`` stands in for ``_plain_args``."""
    handed = []

    def record(args):
        handed.append({k: v for k, v in vars(args).items() if k != "fn"})
        return 0

    monkeypatch.setattr(cli, "COMMANDS",
                        tuple((n, record, *rest) for n, _, *rest in COMMANDS))
    monkeypatch.setattr(cli, "_plain_args", reader)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue(), handed


def test_main_answers_as_with_argparse_alone(monkeypatch):
    """On a seeded sample of the lines the reader reads and of those it
    leaves to argparse."""
    rng = random.Random("argv-main")
    lines = [[], ["--help"], ["expl", "a.abc"], ["check-bisim", "--weak", "--weak"]]
    for name, _, _, arguments, _ in COMMANDS:
        drawn = list(_command_lines(name, arguments))
        for read in (True, False):
            some = [argv for argv in drawn if (READER(argv) is not None) == read]
            lines += rng.sample(some, min(len(some), 30))
    for argv in lines:
        want = _answers(monkeypatch, argv, lambda argv: None)
        assert _answers(monkeypatch, argv, READER) == want, argv
