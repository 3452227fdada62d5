"""The exit-code contract under fuzzing: corpus and generated texts with
a few edits (slices cut, repeated or replaced by tokens of either
language) go through every subcommand.  Every call exits 0, 1 or 2 with
no traceback, and exit 1 comes only with a negative verdict or a
violation."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from abcalc.cli import main
from abcalc.systems import corpus_path

from conftest import chains_abc, emitters_abc

CORPUS = {name: corpus_path(name).read_text() for name in (
    "network.abc", "zero.abc", "choice.bpi", "handshake.bpi", "mobile.bpi", "relay.bpi",
    "repeater.bpi", "tau_chain.bpi")}
CORPUS.update({"emitters.abc": emitters_abc(2), "chains.abc": chains_abc((2, 1))})
MODELS = sorted(name for name in CORPUS if name.endswith(".abc"))
TOKENS = ("", "0", "nil", "tt", "ff", "||", "+", ".", "(", ")", "{", "}", "[", "]", ";", ",",
          "!", "?", "@", ":=", "==", "<", ">", "x", "1", '"a"', "this.role", "rec A(x).",
          "A(x)", "tau.", "a!(x).", "a(y).", "def A = 0;", "comp C { iface: []; env: {}; run: 0 }",
          "restrictOut(f){", "system: ", "domain d in {1};", "\n")
BOUND = ["--max-states", "300"]
COMMANDS = (
    lambda f, g: ["parse", f],
    lambda f, g: ["parse", f, "--json"],
    lambda f, g: ["steps", f, *BOUND],
    lambda f, g: ["explore", f, "-o", "out.aut", "--json", "out.json", *BOUND],
    lambda f, g: ["explore", f, "--universe", "none", *BOUND],
    lambda f, g: ["barbs", f, "--weak", *BOUND],
    lambda f, g: ["check-bisim", "--strong", f, g, *BOUND],
    lambda f, g: ["check-bisim", "--weak", f, g, *BOUND],
    lambda f, g: ["translate", f, "-o", "out.abc"],
    lambda f, g: ["verify-encoding", f, *BOUND],
    lambda f, g: ["corpus", *BOUND],
)


@st.composite
def mutated(draw):
    """A corpus file's name and its text after up to three edits."""
    name = draw(st.sampled_from(sorted(CORPUS)))
    text = CORPUS[name]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 12))
        piece = draw(st.sampled_from(TOKENS + (text[at:at + cut],)))
        text = text[:at] + piece * draw(st.integers(1, 2)) + text[at + cut:]
    return name, text


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated(), st.sampled_from(MODELS), st.sampled_from(COMMANDS))
def test_every_call_keeps_the_exit_code_contract(model, other, command):
    (name, text), out, err = model, io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path(name).write_text(text)
        Path(f"other-{other}").write_text(CORPUS[other])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(command(name, f"other-{other}"))
    assert rc in (0, 1, 2), (rc, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert out.getvalue().startswith(("not equivalent", "VIOLATION")), out.getvalue()
