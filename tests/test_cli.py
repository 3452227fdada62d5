"""Command line interface: every subcommand, exit codes, JSON verdicts,
and deterministic exports."""

import gc
import json
import os
import subprocess
import sys

import pytest

from abcalc.cli import COMMANDS, build_parser, main
from abcalc.systems import corpus_path

from conftest import chains_abc, emitters_abc, tau_leaves_abc

NETWORK = str(corpus_path("network.abc"))
ZERO = str(corpus_path("zero.abc"))
HANDSHAKE = str(corpus_path("handshake.bpi"))
RELAY = str(corpus_path("relay.bpi"))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def closed(tmp_path):
    """The restricted network and the three-shot test as model files."""
    text = corpus_path("network.abc").read_text()
    n = tmp_path / "closed.abc"
    n.write_text(text.replace(
        "system: restrictOut(ffwd){ CP1 || CF1 || CF2 };",
        "system: restrictIn(gstar){ restrictOut(ffwd){ CP1 || CF1 || CF2 } };",
    ))
    t = tmp_path / "t.abc"
    t.write_text(text.replace(
        "system: restrictOut(ffwd){ CP1 || CF1 || CF2 };",
        "system: T;",
    ))
    return str(n), str(t)


class TestParse:
    def test_abc(self, capsys):
        rc, out, _ = run(capsys, "parse", NETWORK)
        assert rc == 0 and "restrictOut(ffwd)" in out

    def test_bpi(self, capsys):
        rc, out, _ = run(capsys, "parse", HANDSHAKE)
        assert rc == 0 and out.strip() == "a!(x).b(y).nil || a(u).b!(u).nil"

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "parse", "no_such_file.abc")
        assert rc == 2 and "error" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.abc"
        bad.write_text("comp C { iface: }")
        rc, _, err = run(capsys, "parse", str(bad))
        assert rc == 2 and "error" in err


class TestSteps:
    def test_network_steps(self, capsys):
        rc, out, _ = run(capsys, "steps", NETWORK, "--universe", "none")
        assert rc == 0
        assert '"p", "v"' in out

    def test_auto_universe_steps_are_printed_trees(self, capsys):
        # under auto the steps come from the closure's walk, rebuilt as trees
        rc, out, _ = run(capsys, "steps", NETWORK)
        rc_none, fixed, _ = run(capsys, "steps", NETWORK, "--universe", "none")
        assert rc == rc_none == 0
        assert set(fixed.splitlines()) < set(out.splitlines())
        assert all("  ->  restrictOut(ffwd){ comp {" in line for line in out.splitlines())

    def test_bpi_steps(self, capsys):
        rc, out, _ = run(capsys, "steps", HANDSHAKE)
        assert rc == 0 and "a!(x)" in out

    @pytest.mark.parametrize("mode", ["none", "declared"])
    def test_bpi_steps_follow_the_universe_flag(self, capsys, mode):
        # a .bpi file declares no universe: only auto adds input steps
        _, auto, _ = run(capsys, "steps", "--universe", "auto", HANDSHAKE)
        rc, out, _ = run(capsys, "steps", "--universe", mode, HANDSHAKE)
        assert rc == 0 and out == "a!(x)  ->  b(y).nil || b!(x).nil\n"
        assert {line for line in auto.splitlines() if "?" not in line} == {out.rstrip()}

    def test_no_steps(self, capsys):
        rc, out, _ = run(capsys, "steps", ZERO, "--universe", "none")
        assert rc == 0 and "(no steps)" in out

    def test_max_depth_is_not_an_option(self, capsys, tmp_path):
        # only the auto closure is bounded, and only by --max-states
        model = tmp_path / "counter.abc"
        model.write_text('def A = <(this.k < 5)> ("a")@tt.[k := this.k + 1] A;\n'
                         "comp C { iface: []; env: {k = 0}; run: A }\n")
        rc, out, err = run(capsys, "steps", str(model), "--max-depth", "3")
        assert rc == 2 and out == ""
        assert err.endswith("\nabcalc: error: unrecognized arguments: --max-depth 3\n")
        rc, out, err = run(capsys, "steps", "--max-states", "1", str(model))
        assert (rc, out, err) == (
            2, "", "error: state bound 1 hit (depth reached 0, frontier size 0)\n")


class TestExplore:
    def test_stdout(self, capsys):
        rc, out, _ = run(capsys, "explore", NETWORK, "--universe", "none")
        assert rc == 0 and out.startswith("des (0,13,10)")

    def test_output_file_deterministic_across_runs(self, capsys, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"out{i}.aut"
            rc, _, _ = run(capsys, "explore", NETWORK, "--universe", "none",
                           "-o", str(p))
            assert rc == 0
            paths.append(p.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_bound_exceeded(self, capsys):
        rc, _, err = run(capsys, "explore", NETWORK, "--max-states", "2")
        assert rc == 2 and err == "error: state bound 2 hit (depth reached 1, frontier size 0)\n"
        rc, _, err = run(capsys, "explore", NETWORK, "--universe", "none", "--max-depth", "2")
        assert rc == 2 and err == "error: depth bound 2 hit (depth reached 2, frontier size 1)\n"

    def test_universe_closure_is_exact(self, capsys, tmp_path):
        # a depth-10 chain learns its 11 labels over 12 rounds
        model = tmp_path / "deep.abc"
        model.write_text(chains_abc([10]))
        rc, out, _ = run(capsys, "explore", "--universe", "auto", str(model))
        assert rc == 0 and out.startswith("des (0,253,22)\n")
        labels = {line.split('"')[1] for line in out.splitlines()[1:]}
        assert len({lab for lab in labels if "?(" in lab}) == 11

    def test_label_counter_hits_state_bound(self, capsys, tmp_path):
        model = tmp_path / "counter.abc"
        model.write_text("def A = (tt)(n).(n + 1)@tt.A;\n"
                         "comp K { iface: []; env: {}; run: A }\n"
                         "comp Z { iface: []; env: {}; run: (0)@tt.0 }\n"
                         "system: K || Z;\n")
        rc, _, err = run(capsys, "explore", str(model), "--max-states", "50")
        assert rc == 2 and "bound" in err

    @pytest.mark.parametrize("text", [
        # A's guard holds, so A must accept B's broadcast, but accepting
        # fails to evaluate: the broadcast is blocked
        "comp A { iface: []; env: {a = 1}; run: (tt)(x).[a := this.nope] (\"y\")@tt.0 }\n"
        "comp B { iface: []; env: {}; run: (1)@tt.0 }\n"
        "system: A || B;\n",
        # a call whose arguments fail to evaluate has no steps
        "def A(n) = (n)@tt.0;\n"
        "comp C { iface: []; env: {}; run: A(this.nope) }\n",
    ], ids=["accept-update", "call-argument"])
    def test_evaluation_error_prunes_the_step(self, capsys, tmp_path, text):
        model = tmp_path / "m.abc"
        model.write_text(text)
        rc, out, _ = run(capsys, "explore", str(model))
        assert rc == 0 and out == "des (0,0,1)\n"

    def test_unevaluable_receiving_predicate_discards(self, capsys, tmp_path):
        # R has no k, so its receiving predicate cannot be evaluated on the
        # message: R discards it
        model = tmp_path / "r.abc"
        model.write_text('comp R { iface: []; env: {}; run: (this.k == x)(x).("got")@tt.0 }\n'
                         "universe { msg {} @ tt (1); }\n")
        rc, out, err = run(capsys, "explore", "--universe", "declared", str(model))
        assert (rc, out, err) == (0, 'des (0,1,1)\n(0,"{}@tt?(1)",0)\n', "")

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "explore", NETWORK, "--universe", "none", "--json")
        payload = json.loads(out)
        assert rc == 0
        assert payload["schema_version"] == 1
        assert payload["states"] == 10 and payload["transitions"] == 13
        assert payload["universe_fingerprint"]


class TestBarbs:
    def test_network(self, capsys):
        rc, out, _ = run(capsys, "barbs", NETWORK)
        assert rc == 0 and 'role == "client"' in out

    def test_weak_flag(self, capsys):
        rc, out, _ = run(capsys, "barbs", NETWORK, "--weak", "--json")
        payload = json.loads(out)
        assert rc == 0 and payload["weak"] is True

    def test_none(self, capsys):
        rc, out, _ = run(capsys, "barbs", ZERO)
        assert rc == 0 and "(none)" in out

    @pytest.mark.parametrize("weak", [[], ["--weak"]])
    def test_infinitely_many_states(self, capsys, tmp_path, weak):
        # only the initial state, or the states silent steps reach, are stepped
        model = tmp_path / "count.abc"
        model.write_text('def A = ("a")@tt.[k := this.k + 1] A;\n'
                         'comp C { iface: [k]; env: {k = 0}; run: A }\n')
        assert run(capsys, "barbs", str(model), *weak) == (0, "tt\n", "")

    def test_weak_barbs_after_silent_steps(self, capsys, tmp_path):
        model = tmp_path / "silent.abc"
        model.write_text('def A = ()@ff.("a")@(k == 1).[k := this.k + 1] A;\n'
                         'comp C { iface: [k]; env: {k = 0}; run: A }\n')
        assert run(capsys, "barbs", str(model)) == (0, "(none)\n", "")
        assert run(capsys, "barbs", "--weak", str(model)) == (0, "k == 1\n", "")


class TestCheckBisim:
    def test_equivalent(self, capsys, closed):
        n_closed, t = closed
        rc, out, _ = run(capsys, "check-bisim", "--weak", n_closed, t)
        assert rc == 0 and "equivalent" in out and "not equivalent" not in out

    def test_not_equivalent_with_witness(self, capsys, closed):
        _, t = closed
        rc, out, _ = run(capsys, "check-bisim", "--strong", NETWORK, t)
        assert rc == 1
        assert "not equivalent" in out and "witness:" in out

    def test_set_membership_guard_is_observable(self, capsys, tmp_path):
        h = tmp_path / "h.abc"
        h.write_text('comp H { iface: []; env: {}; run: ("hi")@(tier in {1, 2}).0 }\n')
        rc, out, _ = run(capsys, "check-bisim", "--weak", str(h), ZERO)
        assert rc == 1 and "not equivalent" in out

    def test_json_verdict(self, capsys, closed, tmp_path):
        n_closed, t = closed
        sidecar = tmp_path / "verdict.json"
        rc, _, _ = run(capsys, "check-bisim", "--weak", n_closed, t,
                       "--json", str(sidecar))
        assert rc == 0
        payload = json.loads(sidecar.read_text())
        assert payload["equivalent"] is True and payload["mode"] == "weak"

    def test_inconclusive(self, capsys, closed):
        n_closed, t = closed
        rc, _, _ = run(capsys, "check-bisim", "--weak", n_closed, t,
                       "--max-states", "3")
        assert rc == 2

    def test_inconclusive_reports_merged_universe(self, capsys, closed):
        # both closures succeed and numbering hits the depth bound
        n_closed, t = closed
        _, full, _ = run(capsys, "check-bisim", "--weak", "--json", "-", n_closed, t)
        rc, out, err = run(capsys, "check-bisim", "--weak", "--json", "-", n_closed, t,
                           "--max-depth", "1")
        assert rc == 2 and "depth bound 1 hit" in err
        want = {k: v for k, v in json.loads(full).items() if k.startswith("universe")}
        assert want["universe_size"] == 1
        assert {k: json.loads(out)[k] for k in want} == want

    @pytest.mark.parametrize("declares", ["left", "right"])
    def test_auto_universe_starts_from_declared_blocks(self, capsys, tmp_path, declares):
        # only the declared message reaches A's input: nothing emits "z"
        block = 'universe { msg {} @ tt ("z"); }\n'
        a, b = tmp_path / "a.abc", tmp_path / "b.abc"
        a.write_text('comp A { iface: []; env: {}; run: (tt)(y).("got")@tt.0 }\n'
                     + (block if declares == "left" else ""))
        b.write_text("comp B { iface: []; env: {}; run: 0 }\n"
                     + (block if declares == "right" else ""))
        sizes = {}
        for mode in ("declared", "auto"):
            rc, out, _ = run(capsys, "check-bisim", "--weak", "--universe", mode,
                             "--json", "-", str(a), str(b))
            verdict = json.loads(out)
            assert rc == 1 and verdict["equivalent"] is False and verdict["witness"], mode
            sizes[mode] = verdict["universe_size"]
        # auto adds the harvested ("got") to the declared ("z")
        assert sizes == {"declared": 1, "auto": 2}

    def test_domains_differing_by_value_type(self, capsys, tmp_path):
        paths = []
        for value in ("1", "true"):
            path = tmp_path / f"d{value}.abc"
            path.write_text(f"domain a in {{{value}}};\n"
                            f"comp C {{ iface: [a]; env: {{a = {value}}}; run: (a)@tt.0 }}\n")
            paths.append(str(path))
        rc, out, err = run(capsys, "check-bisim", "--weak", *paths)
        assert (rc, out, err) == (2, "", "error: domain of 'a' differs between the two files\n")

    def test_definitions_differing(self, capsys, tmp_path):
        paths = []
        for value in ("a", "b"):
            path = tmp_path / f"{value}.abc"
            path.write_text(f'def A = ("{value}")@tt.0;\n'
                            "comp C { iface: []; env: {}; run: A }\n")
            paths.append(str(path))
        rc, out, err = run(capsys, "check-bisim", "--weak", *paths)
        assert (rc, out, err) == (2, "", "error: definition 'A' differs between the two files\n")


class TestTranslate:
    def test_output_parses_back(self, capsys, tmp_path):
        out_file = tmp_path / "handshake.abc"
        rc, _, _ = run(capsys, "translate", HANDSHAKE, "-o", str(out_file))
        assert rc == 0
        from abcalc.syntax import parse_abc

        model = parse_abc(out_file.read_text())
        assert model.component is not None

    def test_rejects_abc_input(self, capsys):
        rc, _, err = run(capsys, "translate", NETWORK)
        assert rc == 2 and "expects a .bpi" in err


class TestVerifyEncoding:
    def test_ok(self, capsys):
        rc, out, _ = run(capsys, "verify-encoding", HANDSHAKE)
        assert rc == 0 and out.startswith("ok")

    def test_bound_exceeded(self, capsys):
        rc, _, err = run(capsys, "verify-encoding", RELAY, "--max-states", "3")
        assert rc == 2 and "state bound 3" in err

    def test_unbound_recursion(self, capsys, tmp_path):
        bad = tmp_path / "bad.bpi"
        bad.write_text("A(v)")
        rc, _, err = run(capsys, "verify-encoding", str(bad))
        assert rc == 2 and "error" in err

    @pytest.mark.parametrize("text, states", [
        # the inner rec calls the outer one, whose body uses x0: once the
        # outer one unfolds inside it, x0 is free there too
        ("c!(w).c!(w).nil || (rec A().x0!().(rec B().c(y).A())())()", 6),
        ("c!(w).c!(w).nil || (rec A().d!().(rec B().c(y).A())())()", 6),
        # an inner rec that does not call the outer one skips only its own names
        ("c!(w).c!(w).nil || (rec A().x0!().(rec B().c(y).nil)())()", 9),
    ])
    def test_nested_rec_keeps_one_body(self, capsys, tmp_path, text, states):
        term = tmp_path / "n.bpi"
        term.write_text(text + "\n")
        rc, out, err = run(capsys, "verify-encoding", str(term))
        assert (rc, err) == (0, "")
        assert out.startswith(f"ok: {states} states")


def test_wide_parallel_composition(capsys, tmp_path):
    """1,500 operands side by side: skeletons are read by loops, so width
    meets no recursion limit."""
    term = tmp_path / "wide.bpi"
    term.write_text(" || ".join(["nil"] * 1498 + ["c!(m).nil", "c(x).nil"]) + "\n")
    rc, out, err = run(capsys, "verify-encoding", str(term))
    assert (rc, err) == (0, "") and out.startswith("ok: 3 states")
    model = tmp_path / "wide.abc"
    names = [f"Z{i}" for i in range(1500)]
    model.write_text("".join(f"comp {n} {{ iface: []; env: {{}}; run: 0 }}\n" for n in names)
                     + f"system: {' || '.join(names)};\n")
    rc, out, err = run(capsys, "explore", str(model))
    assert (rc, err) == (0, "") and out == "des (0,0,1)\n"


class TestIllFormedInput:
    """Exit 2 with a one-line diagnostic, never a traceback."""

    @pytest.mark.parametrize("name, text, command", [
        ("undefined.abc", "comp C { iface: []; env: {}; run: B }\n", "explore"),
        ("arity.abc", "def A(n) = (n)@tt.0;\ncomp C { iface: []; env: {}; run: A(1, 2) }\n",
         "explore"),
        ("reused.bpi", "(rec A(x).a!(x).A(x))(v) || (rec A(x).b!(x).A(x))(v)\n",
         "verify-encoding"),
        # the body of B uses A's parameter, so it would change as A unfolds
        ("reused.bpi", "(rec A(x).(rec B().x!(v).B())())(a)\n", "verify-encoding"),
        ("deep.bpi", "tau." * 400 + "a!(v).nil\n", "verify-encoding"),
        ("deep.abc", "comp C { iface: []; env: {}; run: " + "()@ff." * 1000 + "0 }\n",
         "explore"),
        # a .bpi term where a component model is expected; "{}" marks the file
        ("choice.bpi", "a!(v).nil + tau.nil\n", "explore"),
        ("choice.bpi", "a!(v).nil + tau.nil\n", ("barbs", "--weak", "{}")),
        ("choice.bpi", "a!(v).nil + tau.nil\n", ("check-bisim", "--weak", "{}", NETWORK)),
        ("choice.bpi", "a!(v).nil + tau.nil\n", ("check-bisim", "--strong", NETWORK, "{}")),
        # a name bound twice by one input, definition or recursion
        ("dup.abc", "comp R { iface: []; env: {}; run: (tt)(x, x).(x)@tt.0 }\n"
                    "comp S { iface: []; env: {}; run: (1, 2)@tt.0 }\nsystem: R || S;\n",
         "explore"),
        ("dup.abc", "def A(n, n) = (n)@tt.0;\ncomp C { iface: []; env: {}; run: A(1, 2) }\n",
         "explore"),
        ("dup.bpi", "a(x, x).b!(x).nil || a!(u, v).nil\n", "verify-encoding"),
        ("dup.bpi", "(rec A(x, x).a!(x).A(x, x))(u, v)\n", "verify-encoding"),
        # a parallel composition below the top level: under a prefix, in a rec body
        ("nested.bpi", "a(x).b(y).(x!(y).nil || y!(x).nil) || a!(u).nil || b!(u).nil\n",
         "translate"),
        ("nested.bpi", "a(x).b(y).(x!(y).nil || y!(x).nil) || a!(u).nil || b!(u).nil\n",
         "verify-encoding"),
        ("nested.bpi", "(rec A().(a!().nil || A()))()\n", "steps"),
        ("nested.bpi", "(rec A().(a!().nil || A()))()\n", "translate"),
        ("nested.bpi", "(rec A().(a!().nil || A()))()\n", "verify-encoding"),
        # a set that lists both 1 and true, which Python would merge
        ("dom.abc", "domain a in {1, true};\n"
                    "comp C { iface: [a]; env: {a = true}; run: (a)@tt.0 }\nsystem: C;\n",
         "explore"),
    ], ids=["undefined-process", "call-arity", "encoding-error", "encoding-error-successor",
            "deep-bpi", "deep-abc",
            "bpi-explore", "bpi-barbs", "bpi-bisim-left", "bpi-bisim-right",
            "repeated-input-binder", "repeated-def-parameter", "repeated-bpi-binder",
            "repeated-rec-parameter", "parallel-under-prefix-translate",
            "parallel-under-prefix-verify", "parallel-rec-body-steps",
            "parallel-rec-body-translate", "parallel-rec-body-verify", "set-merging-1-and-true"])
    def test_exit_2(self, capsys, tmp_path, name, text, command):
        model = tmp_path / name
        model.write_text(text)
        argv = (command, "{}") if isinstance(command, str) else command
        rc, out, err = run(capsys, *(str(model) if a == "{}" else a for a in argv))
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# A malformed file, as bytes, and the one line that `parse` writes for it.
# Columns count characters from 1, a tab and a comment included; the file
# is read with universal newlines, so `\r\n` ends one line.
@pytest.mark.parametrize("name, raw, message", [
    ("char.abc", b"comp C { iface: []; env: {}; run: 0 # }\n", "1:37: unexpected character '#'"),
    ("char.bpi", b"a!(x).nil\n|| b(y).nil $\n", "2:13: unexpected character '$'"),
    ("string.abc", b'domain a in {"x};\ncomp C { iface: [a]; env: {a = "x"}; run: 0 }\n',
     "1:14: unexpected character '\"'"),
    ("string.bpi", b'a!(x).nil || "b\n', "1:14: unexpected character '\"'"),
    ("trailing.abc", b"comp C { iface: []; env: {}; run: 0 } }\n", "1:39: unexpected '}' at top level"),
    ("trailing.bpi", b"a!(x).nil b(y).nil\n", "1:11: trailing input 'b'"),
    ("paren.abc", b"comp C { iface: []; env: {}; run: (1@tt.0 }\n", "1:35: unbalanced parenthesis"),
    ("paren.bpi", b"(a!(x).nil || b(y).nil\n", "2:1: expected ')', found ''"),
    ("binder.abc", b"comp C { iface: []; env: {}; run: (tt)(x, y, x).0 }\n",
     "1:40: repeated variable 'x'"),
    ("binder.bpi", b"a(x, x).nil\n", "1:2: repeated variable 'x'"),
    ("line3.abc", b"// a comment\r\ncomp C {\r\n\tiface: [];\tenv: {}; run: () @tt.0 | ?\r\n}\r\n",
     "3:38: unexpected character '?'"),
    ("line3-parse.abc", b"// a comment\r\ncomp C {\r\n\tiface: [];\tenv: {}; run: () @tt. | 0\r\n}\r\n",
     "3:35: expected a process, found '|'"),
    ("line3.bpi", b"// a comment\r\n\ta!(x).nil\r\n\t||\tb(y).\tnil!\r\n", "3:14: trailing input '!'"),
    ("eof.abc", b"comp C { iface: []; env: {}; run: 0\n\n  ", "3:3: expected '}', found ''"),
    ("eof.bpi", b"a!(x).\n", "2:1: expected name, found ''"),
])
def test_parse_error_positions(capsys, tmp_path, monkeypatch, name, raw, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(raw)
    assert run(capsys, "parse", name) == (2, "", f"error: {name}:{message}\n")


@pytest.mark.parametrize("argv, message", [
    (("translate", "{abc}"), "translate expects a .bpi file"),
    (("verify-encoding", "{abc}"), "verify-encoding expects a .bpi file"),
    (("explore", "{bpi}"), "{bpi}: a .bpi term is not a component model (translate it first)"),
    (("barbs", "{bpi}"), "{bpi}: a .bpi term is not a component model (translate it first)"),
    (("check-bisim", "--weak", "{bpi}", "{abc}"),
     "{bpi}: a .bpi term is not a component model (translate it first)"),
    (("check-bisim", "--strong", "{abc}", "{bpi}"),
     "{bpi}: a .bpi term is not a component model (translate it first)"),
])
def test_a_file_of_the_wrong_kind_is_refused_before_it_is_parsed(capsys, tmp_path, argv,
                                                                  message):
    """A malformed file of the wrong kind gets the kind's diagnostic, not a
    parse error in the grammar of the other kind."""
    paths = {"abc": tmp_path / "bad.abc", "bpi": tmp_path / "bad.bpi"}
    for path in paths.values():
        path.write_text("comp ( || !\n")
    rc, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (rc, out, err) == (2, "", f"error: {message.format(**paths)}\n")


@pytest.mark.parametrize("raw", [b"\xff", b"comp C { \xc3( }\n", b"\xef\xbb\xbf\xfe"],
                         ids=["ff", "truncated-sequence", "bom-then-fe"])
@pytest.mark.parametrize("argv", [
    ("parse", "{abc}"), ("parse", "{bpi}"), ("steps", "{abc}"), ("steps", "{bpi}"),
    ("explore", "{abc}"), ("barbs", "--weak", "{abc}"),
    ("check-bisim", "--weak", NETWORK, "{abc}"), ("check-bisim", "--strong", "{abc}", NETWORK),
    ("translate", "{bpi}"), ("verify-encoding", "{bpi}"),
])
def test_input_that_is_not_utf8(capsys, tmp_path, raw, argv):
    """A model file that is not UTF-8 is refused like an unreadable one."""
    for suffix in ("abc", "bpi"):
        (tmp_path / f"bad.{suffix}").write_bytes(raw)
    rc, out, err = run(capsys, *(a.format(abc=tmp_path / "bad.abc", bpi=tmp_path / "bad.bpi")
                                 for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
    assert "codec can't decode" in err


class TestCorpus:
    def test_all_green(self, capsys):
        rc, out, _ = run(capsys, "corpus")
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("ok  ") == 8

    def test_json_is_only_json(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "corpus", "--json")
        results = json.loads(out)["results"]
        assert rc == 0 and len(results) == 8 and all(r["ok"] for r in results)
        # written to a file, the JSON leaves stdout to the text
        target = tmp_path / "corpus.json"
        rc, out, _ = run(capsys, "corpus", "--json", str(target))
        assert rc == 0 and out.count("ok  ") == 8
        assert json.loads(target.read_text())["results"] == results


@pytest.mark.parametrize("flag", ["--max-states", "--max-depth"])
def test_zero_bound_is_refused(capsys, flag):
    rc, out, err = run(capsys, "explore", NETWORK, flag, "0")
    assert rc == 2 and out == "" and err == "error: bounds must be positive\n"


def test_environment_outside_declared_domain(capsys, tmp_path):
    # a silent step would deliver S's message to R
    system = ('comp R { iface: [role]; env: {role = "z"}; run: (tt)(x).("got")@tt.0 }\n'
              'comp S { iface: []; env: {}; run: ("hi")@(role == "z").0 }\n'
              "system: R || S;\n")
    domain = 'domain role in {"a", "b"};\n'
    model, left, right = tmp_path / "m.abc", tmp_path / "l.abc", tmp_path / "r.abc"
    model.write_text(domain + system)
    left.write_text(system)
    right.write_text(domain + "comp Z { iface: []; env: {}; run: 0 }\n")
    for argv in (["explore", "--universe", "none", str(model)],
                 ["check-bisim", "--weak", str(left), str(right)]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and 'role = "z" outside its declared domain' in err


def test_update_outside_declared_domain(capsys, tmp_path):
    # R's update leaves the domain of role; a silent step would then
    # deliver S's second message to R
    model = tmp_path / "m.abc"
    model.write_text(
        'domain role in {"a", "b"};\n'
        'comp R { iface: [role]; env: {role = "a"}; '
        'run: (tt)(x).[role := "z"](tt)(y).("got")@tt.0 }\n'
        'comp S { iface: []; env: {}; run: ("go")@tt.("hi")@(role == "z").0 }\n'
        "system: R || S;\n")
    for argv in (["explore", "--universe", "none", str(model)], ["explore", str(model)],
                 ["steps", "--universe", "none", str(model)],
                 ["check-bisim", "--weak", str(model), str(model)]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.count("\n") == 1
        assert err.startswith('error: role := "z" outside its declared domain in comp {')
        assert '[role := "z"]' in err


def test_closed_stdout_ends_quietly(tmp_path):
    # the .aut text is larger than a pipe buffer, so the writer meets the
    # closed pipe; under -X dev, a file or stream left open would be reported
    model = tmp_path / "emitters.abc"
    model.write_text(emitters_abc(5))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen([sys.executable, "-X", "dev", "-m", "abcalc.cli", "explore",
                             str(model)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"des (0,2025,243)")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0 and err == ""


@pytest.mark.parametrize("command", ["explore", "check-bisim --weak", "verify-encoding"])
def test_json_refuses_to_overwrite_a_model(capsys, tmp_path, command):
    """``--json`` takes an optional FILE, so a model path right after it
    is read as the destination: that is refused before anything is
    read or written."""
    ext = ".bpi" if command == "verify-encoding" else ".abc"
    a, b = tmp_path / f"a{ext}", tmp_path / f"b{ext}"
    source = HANDSHAKE if ext == ".bpi" else NETWORK
    for path in (a, b):
        path.write_text(open(source).read())
    rest = [str(b)] * (2 if command.startswith("check-bisim") else 1)
    rc, out, err = run(capsys, *command.split(), "--json", str(a), *rest)
    assert (rc, out) == (2, "")
    assert err == f"error: --json {a}: refusing to write JSON over a model file\n"
    assert a.read_text() == open(source).read()
    rc, out, _ = run(capsys, *command.split(), *rest, "--json", str(tmp_path / "out.json"))
    assert rc == 0 and json.loads((tmp_path / "out.json").read_text())


@pytest.mark.parametrize("command, target", [
    ("explore -o {missing} NETWORK", "{missing}"),
    ("translate -o {directory} RELAY", "{directory}"),
    ("verify-encoding --json {missing} RELAY", "{missing}"),
])
def test_unwritable_output_exits_2(capsys, tmp_path, command, target):
    """An output that cannot be written is a usage error with one line,
    not a traceback and not the exit code of a negative verdict."""
    where = {"missing": tmp_path / "missing" / "x.out", "directory": tmp_path}
    argv = [a.format(**where) for a in command.replace("NETWORK", NETWORK)
            .replace("RELAY", RELAY).split()]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {target.format(**where)}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, message", [
    ("explore -o m.abc m.abc", "-o m.abc: refusing to overwrite the input m.abc"),
    ("explore -o alias m.abc", "-o alias: refusing to overwrite the input m.abc"),
    ("translate -o m.bpi m.bpi", "-o m.bpi: refusing to overwrite the input m.bpi"),
    ("parse --json m.txt m.txt", "--json m.txt: refusing to overwrite the input m.txt"),
    ("check-bisim --weak m.txt n.txt --json n.txt",
     "--json n.txt: refusing to overwrite the input n.txt"),
    ("explore -o out.aut --json out.aut m.abc",
     "--json out.aut: refusing to write JSON over the -o file"),
    ("explore m.abc -o out.aut --json ./out.aut",
     "--json ./out.aut: refusing to write JSON over the -o file"),
])
def test_an_output_never_overwrites_an_input_or_the_other_output(
        capsys, tmp_path, monkeypatch, command, message):
    """Refused before anything is read or written, also when the paths
    differ but resolve to one file."""
    monkeypatch.chdir(tmp_path)
    for name, source in (("m.abc", NETWORK), ("m.txt", NETWORK), ("n.txt", NETWORK),
                         ("m.bpi", RELAY)):
        (tmp_path / name).write_text(open(source).read())
    (tmp_path / "out.aut").write_text("before\n")
    (tmp_path / "alias").symlink_to(tmp_path / "m.abc")
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert run(capsys, *command.split()) == (2, "", f"error: {message}\n")
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before


def test_long_witness_needs_no_recursion(tmp_path):
    """A 300-step counter run that ends in "b" on one side and "c" on the
    other: the witness follows the whole run, under a recursion limit far
    below its length."""
    for name, last in (("A", "b"), ("B", "c")):
        (tmp_path / f"{name}.abc").write_text(
            f'def {name} = <(this.k < 300)> ("a")@tt.[k := this.k + 1] {name} + '
            f'<(this.k == 300)> ("{last}")@tt.0;\n'
            f"comp C {{ iface: []; env: {{k = 0}}; run: {name} }}\nsystem: C;\n")
    script = ("import sys\nfrom abcalc.cli import main\nsys.setrecursionlimit(200)\n"
              "sys.exit(main(['check-bisim', '--strong', '--json', 'out.json', "
              "'A.abc', 'B.abc']))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stderr
    assert "error:" not in result.stdout + result.stderr
    witness = json.loads((tmp_path / "out.json").read_text())["witness"]
    assert len(witness) == 301
    assert witness[:-1] == [{"from": "A", "label": '{}@tt!("a")'}] * 300
    assert witness[-1] == {"from": "A", "label": '{}@tt!("b")'}


@pytest.mark.parametrize("name, text", [
    ("self.abc", "def A = A;\n"),
    ("pair.abc", "def A = B;\ndef B = A;\n"),
    ("choice.abc", 'def A = ("x")@tt.0 + A;\n'),
    ("aware.abc", "def A = <tt>A;\n"),
    ("par.abc", 'def A = ("x")@tt.0 | A;\n'),
    ("rec.bpi", "(rec A().A())()\n"),
    ("choice.bpi", "(rec A().tau.nil + A())()\n"),
    ("inner.bpi", "(rec A(x).(rec B().A(x))())(v)\n"),
])
def test_unguarded_recursion(capsys, tmp_path, name, text):
    """A recursion that calls itself with no action prefix in between is
    refused when the definitions are read, naming the recursion."""
    model = tmp_path / name
    if name.endswith(".abc"):
        text += "comp C { iface: []; env: {}; run: A }\n"
    model.write_text(text)
    command = "explore" if name.endswith(".abc") else "verify-encoding"
    rc, out, err = run(capsys, command, str(model))
    assert (rc, out, err) == (2, "", "error: unguarded recursion: A\n")


@pytest.mark.parametrize("text", [
    'def A = ("x")@tt.A;\n',
    'def A = (tt)(x).A + <tt>("y")@tt.B;\ndef B = A;\n',
    'def A = ("x")@tt.0 | [n := 1] A;\n',
])
def test_guarded_recursion_is_accepted(capsys, tmp_path, text):
    model = tmp_path / "m.abc"
    model.write_text(text + "comp C { iface: []; env: {n = 0}; run: A }\n")
    rc, out, err = run(capsys, "explore", str(model))
    assert rc == 0 and err == "" and out.startswith("des (0,")


def test_corpus_recursions_are_guarded(capsys):
    for path in sorted(corpus_path("network.abc").parent.iterdir()):
        rc, _, err = run(capsys, "parse", str(path))
        assert (rc, err) == (0, ""), path.name


def _full_parse(argv) -> int:
    """Parse with the parser of every subcommand, as ``main`` turns the
    outcome into an exit code."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return 0


USAGE_CASES = [[], ["--help"], ["-h"], ["no-such-command"], ["--bogus"],
               ["check-bisim", NETWORK, NETWORK], ["check-bisim", "--weak", "--strong"],
               ["explore", NETWORK, "--universe", "all"], ["explore", NETWORK, "--max-depth", "x"]]
for _name, *_ in COMMANDS:
    USAGE_CASES += [[_name, "--help"], [_name, "--bogus"], [_name, NETWORK, "--bogus"]]
USAGE_CASES.append(["check-bisim", "--weak", NETWORK, NETWORK, "--bogus"])


@pytest.mark.parametrize("argv", USAGE_CASES,
                         ids=lambda argv: " ".join("F" if a == NETWORK else a for a in argv))
def test_one_subcommand_parser_answers_as_the_full_one(capsys, argv):
    """Help, usage lines and errors from ``main`` are those of the parser
    of every command."""
    want = _full_parse(argv), *capsys.readouterr()
    got = run(capsys, *argv)
    assert got == want and want[0] in (0, 2) and (want[1] or want[2])


def test_usage_errors(capsys):
    rc, _, _ = run(capsys, "check-bisim", NETWORK, NETWORK)  # missing mode
    assert rc == 2
    rc, _, err = run(capsys, "explore", NETWORK, "--max-states", "-1")
    assert rc == 2 and "positive" in err


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, code", [
    (("parse", NETWORK), 0),
    (("check-bisim", "--strong", NETWORK, ZERO), 1),
    (("explore", "no_such_file.abc"), 2),
    (("explore", "--max-states", "1", NETWORK), 2),
    (("explore", "--max-states", "x", NETWORK), 2),
], ids=["exit-0", "exit-1", "cli-error", "bound-exceeded", "usage-error"])
def test_main_leaves_the_collector_as_it_found_it(capsys, collecting, argv, code):
    """``main`` pauses the cyclic collector while a command runs and turns
    it back on only if it was on; it freezes nothing, since the freeze is
    left to the interpreter's exit."""
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        (gc.enable if collecting else gc.disable)()
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is collecting
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


# Registers an exit handler before the CLI registers its own, so that it
# runs after it (last in, first out), reports the freeze count on stderr,
# then exits with what ``main`` returns, as the ``abcalc`` script does.
AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
from abcalc.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, code", [
    (("parse", NETWORK), 0),
    (("check-bisim", "--strong", NETWORK, ZERO), 1),
    (("explore", "no_such_file.abc"), 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_the_exit_freezes_and_keeps_the_exit_code(tmp_path, argv, code):
    """The CLI's exit hook has frozen the heap by the time the handlers
    registered before it run, and the process ends with ``main``'s code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", AT_EXIT, *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == code, result.stderr
    label, count = result.stderr.splitlines()[-1].split()
    assert label == "frozen" and int(count) > 0


# Command lines that write files, each run in a fresh process and in this
# one: ``-o`` and ``--json`` files, relative to the working directory.
WRITERS = [
    ["explore", "-o", "net.aut", "--json", "net.json", NETWORK],
    ["translate", "-o", "hs.abc", "--json", "hs.json", HANDSHAKE],
    ["verify-encoding", "--json", "verify.json", HANDSHAKE],
]


@pytest.mark.parametrize("argv", WRITERS, ids=["explore", "translate", "verify-encoding"])
def test_outputs_survive_the_exit(capsys, tmp_path, monkeypatch, argv):
    """Frozen at exit, a fresh process still leaves every file and all of
    stdout as an in-process call does, and under ``-X dev`` it reports no
    file left open."""
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-X", "dev", "-m", "abcalc.cli", *argv],
                            cwd=fresh, env=env, capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert b"ResourceWarning" not in result.stderr and b"Traceback" not in result.stderr
    monkeypatch.chdir(here)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and result.stdout == out.encode()
    written = sorted(p.name for p in here.iterdir())
    assert written == sorted(p.name for p in fresh.iterdir()) and written
    assert all((fresh / name).read_bytes() == (here / name).read_bytes() for name in written)


# Runs one command line in a fresh process and prints how many objects
# ``gc.collect`` finds unreachable right after ``main``.
GARBAGE = """
import contextlib, gc, io, sys
from abcalc.cli import main
gc.collect()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, gc.collect())
"""


def relay_bpi(k: int) -> str:
    return " || ".join(["c0!(m).nil"] + [f"c{i}(x).c{i + 1}!(x).nil" for i in range(k)]) + "\n"


@pytest.mark.parametrize("command, models, small, large", [
    ("explore", lambda k: {"e.abc": emitters_abc(k)}, 2, 5),
    ("check-bisim --weak", lambda k: {"t.abc": tau_leaves_abc(k),
                                      "p.abc": tau_leaves_abc(k, plain=True)}, 2, 4),
    ("verify-encoding", lambda k: {"r.bpi": relay_bpi(k)}, 2, 5),
])
def test_cyclic_garbage_does_not_grow_with_the_model(tmp_path, command, models, small, large):
    """With the collector paused, the cycles a command leaves are made per
    walk and per leaf, never per state: a model with many times the states
    leaves at most a fixed margin more."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    left = []
    for k in (small, large):
        for name, text in models(k).items():
            (tmp_path / name).write_text(text)
        argv = [*command.split(), *models(k)]
        result = subprocess.run([sys.executable, "-c", GARBAGE, *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        code, garbage = map(int, result.stdout.split())
        assert code == 0, result.stderr
        left.append(garbage)
    assert left[1] <= left[0] + 500, left
