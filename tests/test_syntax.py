"""Parsing and pretty-printing: grammar coverage, exact round trips, and
error locations."""

import re

import pytest

from abcalc.bpi import parse_bpi, pretty_bpi
from abcalc.predicates import And, Atom, FF, Not, Or, TT
from abcalc.semantics import IN, Label, OUT
from abcalc.syntax import (
    ParseError,
    parse_abc,
    parse_predicate,
    parse_process,
    pretty_label,
    pretty_model,
    pretty_pred,
    pretty_process,
    pretty_value,
)
from abcalc.systems import corpus_path
from abcalc.terms import (
    Attr,
    AttrEnv,
    Aware,
    Choice,
    Const,
    In,
    Inact,
    MsgIdx,
    Op,
    Out,
    ParP,
    ResOut,
    SelfAttr,
    Upd,
    Var,
)

from conftest import random_bpi, random_pred, random_process


class TestValues:
    @pytest.mark.parametrize("text, first, second", [
        ("{1, true}", "1", "true"), ("{false, 2, 0}", "false", "0"),
        ("{tup(1), tup(true)}", "tup(1)", "tup(true)"), ("{{0}, {false}}", "{0}", "{false}"),
    ])
    def test_set_literal_cannot_merge_members(self, text, first, second):
        message = f"a set cannot hold both {first} and {second}"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_predicate(f"a in {text}")

    def test_literals(self):
        assert parse_predicate("a == 3") == Atom("==", Attr("a"), Const(3))
        assert parse_predicate("a == -2").right == Const(-2)
        assert parse_predicate('a == "s"').right == Const("s")
        assert parse_predicate("a == true").right == Const(True)
        assert parse_predicate("a == {1, 2}").right == Const(frozenset({1, 2}))

    def test_value_roundtrip(self):
        from abcalc.terms import eval_expr

        for v in (0, -7, True, False, "a b", 'say "hi"', (1, "x"), frozenset({1, 2})):
            # tuples come back as the tup operator in expression context;
            # evaluation recovers the same value either way
            got = parse_predicate(f"a == {pretty_value(v)}").right
            assert eval_expr(got, AttrEnv()) == v


class TestPredicates:
    def test_precedence(self):
        p = parse_predicate("a == 1 && b == 2 || c == 3")
        assert isinstance(p, Or) and isinstance(p.left, And)

    def test_negation(self):
        assert parse_predicate("!(a == 1)") == Not(Atom("==", Attr("a"), Const(1)))

    def test_keyword_constants(self):
        assert parse_predicate("tt") == TT
        assert parse_predicate("ff") == FF

    def test_this_and_templates(self):
        p = parse_predicate("this.a == snd.b && msg[0] != 1")
        assert p.left == Atom("==", SelfAttr("a"), pr_snd("b"))
        assert p.right == Atom("!=", MsgIdx(0), Const(1))

    def test_arith_operands(self):
        p = parse_predicate("a + 1 < b * 2")
        assert p == Atom(
            "<", Op("+", (Attr("a"), Const(1))), Op("*", (Attr("b"), Const(2)))
        )

    def test_bound_variables(self):
        p = parse_predicate("x == 1", bound={"x"})
        assert p.left == Var("x")

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            p = random_pred(rng)
            assert parse_predicate(pretty_pred(p)) == p


def pr_snd(name):
    from abcalc.terms import SndAttr

    return SndAttr(name)


class TestProcesses:
    def test_output(self):
        p = parse_process('(1, "v")@(a == 1).0')
        assert p == Out((Const(1), Const("v")), Atom("==", Attr("a"), Const(1)), Inact())

    def test_input_binders_scope_guard(self):
        p = parse_process("(x in this.nbr)(x, y).(x, y)@tt.0")
        assert isinstance(p, In) and p.vars == ("x", "y")
        assert p.pred == Atom("in", Var("x"), SelfAttr("nbr"))
        assert p.cont == Out((Var("x"), Var("y")), TT, Inact())
        p = parse_process("(!(x == z) && (x + 1) > y)(x).0", bound={"y"})
        assert p.pred == And(Not(Atom("==", Var("x"), Attr("z"))),
                             Atom(">", Op("+", (Var("x"), Const(1))), Var("y")))

    def test_update_prefix(self):
        p = parse_process("[a := 1][b := a] 0")
        assert p == Upd((("a", Const(1)), ("b", Attr("a"))), Inact())

    def test_awareness(self):
        p = parse_process("<(a == 1)> 0")
        assert p == Aware(Atom("==", Attr("a"), Const(1)), Inact())

    def test_choice_and_par(self):
        p = parse_process("0 + 0 | 0")
        assert isinstance(p, Choice) and isinstance(p.right, ParP)

    def test_calls(self):
        from abcalc.terms import Call

        assert parse_process("K") == Call("K", ())
        assert parse_process("K(1, a)") == Call("K", (Const(1), Attr("a")))

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            p = random_process(rng)
            text = pretty_process(p)
            assert parse_process(text) == p, text


class TestModels:
    def test_network_model(self):
        model = parse_abc(corpus_path("network.abc").read_text())
        assert set(model.components) >= {"CP1", "CF1", "CF2", "T", "CP2"}
        assert model.domains.get("role") == frozenset({"client", "fwd"})
        assert "ffwd" in model.fns and "gstar" in model.fns
        assert isinstance(model.component, ResOut)

    def test_model_roundtrip(self):
        for name in ("network.abc", "zero.abc"):
            text = corpus_path(name).read_text()
            model = parse_abc(text)
            again = parse_abc(pretty_model(model))
            assert again.component == model.component
            assert again.defs == model.defs
            assert again.domains == model.domains

    def test_universe_block(self):
        model = parse_abc(
            'comp C { iface: []; env: {}; run: 0 }\n'
            'universe { msg {a = 1} @ (b == 2) ("v"); }'
        )
        [lab] = model.universe
        assert lab.kind == IN
        assert lab.env == AttrEnv.of({"a": 1})
        assert lab.values == ("v",)


class TestBpi:
    def test_corpus_roundtrip(self):
        for name in ("choice.bpi", "handshake.bpi", "mobile.bpi", "relay.bpi", "repeater.bpi", "tau_chain.bpi"):
            text = corpus_path(name).read_text()
            p = parse_bpi(text)
            assert parse_bpi(pretty_bpi(p)) == p

    def test_rec_form(self):
        from abcalc.bpi import BRec

        p = parse_bpi("(rec A(x).a!(x).A(x))(v)")
        assert isinstance(p, BRec) and p.args == ("v",)

    def test_roundtrip_random(self, rng):
        for _ in range(200):
            p = random_bpi(rng)
            assert parse_bpi(pretty_bpi(p)) == p

    @pytest.mark.parametrize("text", [
        "a(x).(x!(v).nil || a!(v).nil)",
        "tau.(a!(v).nil || nil)",
        "(a!(v).nil || nil) + b!(v).nil",
        "b!(v).nil + (a!(v).nil || nil)",
        "(rec A().(a!().nil || A()))()",
        "((a!(v).nil || nil) + nil) || nil",
    ])
    def test_parallel_only_at_top_level(self, text):
        with pytest.raises(ParseError, match="'[|][|]' is allowed only at top level"):
            parse_bpi(text)

    def test_parenthesised_top_level_groups(self):
        flat = parse_bpi("a!(v).nil || b!(v).nil || c!(v).nil")
        assert parse_bpi("(a!(v).nil || b!(v).nil) || c!(v).nil") == flat
        assert parse_bpi("((a!(v).nil || b!(v).nil)) || (c!(v).nil)") == flat


class TestLabels:
    def test_pretty_label(self):
        lab = Label(OUT, AttrEnv.of({"role": "fwd"}), TT, ("p", "v"))
        assert pretty_label(lab) == '{role = "fwd"}@tt!("p", "v")'
        assert pretty_label(Label(IN, AttrEnv(), FF, ())) == "{}@ff?()"


class TestErrors:
    def test_location_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_abc("comp C { iface: [];\nenv: {}; run: @ }")
        assert exc.value.line == 2

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_process("((1)@tt.0")

    @pytest.mark.parametrize("text, message", [
        ("(tt)(x.0", "1:7: expected ')', found '.'"),
        ("(x ==)(x, x).0", "1:6: expected an expression, found ')'"),
    ], ids=["binders-unclosed", "guard-before-binders"])
    def test_input_read_in_order(self, text, message):
        """An input is read left to right: an unclosed binder list is
        reported where it stops, and a bad guard before bad binders."""
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_process(text)

    @pytest.mark.parametrize("text, message", [
        ("(proj(tup(1, 2)))@tt.0", "1:2: proj expects 2 arguments, found 1"),
        ('("a")@(contains({1}) == true).0', "1:8: contains expects 2 arguments, found 1"),
        ("(insert({1}, 2, 3))@tt.0", "1:2: insert expects 2 arguments, found 3"),
        ("(tt)(x).(remove())@tt.0", "1:10: remove expects 2 arguments, found 0"),
    ])
    def test_operator_arity_checked_when_read(self, text, message):
        """An operator called with the wrong number of arguments is refused
        at its name, not left to an output that silently does not exist."""
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_process(text)

    def test_tup_takes_any_number_of_arguments(self):
        for n, args in enumerate(("", "1", "1, 1")):
            assert parse_process(f"(tup({args}))@tt.0").exprs == (Op("tup", (Const(1),) * n),)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_process("0 0")
        with pytest.raises(ParseError):
            parse_predicate("a == 1 b")

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_predicate("a == $")
