"""Broadcast calculus: transitions, substitution, the encoding into
attribute-based components, and the step-by-step correspondence check."""

import pytest

from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.bpi import (
    BCall,
    BIn,
    BNIL,
    BOut,
    BPar,
    BRec,
    BSum,
    BTau,
    EncodingError,
    TAU,
    UnboundRecursionVariable,
    bpi_steps,
    canon_bpi,
    correspondence_check,
    encode,
    harvest_bpi_universe,
    parse_bpi,
    pretty_bpi,
    subst_names,
    _unfold,
)
from abcalc.cli import main
from abcalc.lts import ExploreBounds
from abcalc.systems import corpus_path
from abcalc.terms import Call, Choice, In, Inact, Leaf, Out, ParC, Const, Var

from conftest import random_bpi

CORPUS = ["choice.bpi", "handshake.bpi", "mobile.bpi", "relay.bpi", "repeater.bpi", "tau_chain.bpi"]


def load(name):
    return parse_bpi(corpus_path(name).read_text())


class TestSyntaxHelpers:
    def test_subst_names(self):
        p = parse_bpi("a!(v).nil")
        assert subst_names(p, {"a": "b", "v": "w"}) == parse_bpi("b!(w).nil")

    def test_subst_avoids_capture(self):
        # substituting v -> x into a(x).x!(v).nil must not capture v
        p = BIn("a", ("x",), BOut("x", ("v",), BNIL))
        q = subst_names(p, {"v": "x"})
        assert q.vars != ("x",)
        binder = q.vars[0]
        assert q.cont == BOut(binder, ("x",), BNIL)

    def test_canon_alpha_blind(self):
        p = parse_bpi("a(x).x!(v).nil")
        q = parse_bpi("a(y).y!(v).nil")
        assert p != q
        assert canon_bpi(p) == canon_bpi(q)

    def test_canon_rec_local_numbering(self):
        r1 = parse_bpi("(rec A(z).a!(z).A(z))(v)")
        r2 = parse_bpi("(rec A(u).a!(u).A(u))(v)")
        c1, c2 = canon_bpi(r1), canon_bpi(r2)
        assert c1 == c2
        # the same rec under an input prefix canonicalizes to the same body
        under = canon_bpi(BIn("b", ("q",), r1))
        assert under.cont.body == c1.body


class TestSteps:
    def test_tau_prefix(self):
        p = load("tau_chain.bpi")
        [(lab, succ)] = bpi_steps(p)
        assert lab == TAU
        assert succ == parse_bpi("tau.a!(v).nil")

    def test_broadcast_reaches_listener(self):
        p = load("handshake.bpi")
        [(lab, succ)] = bpi_steps(p)
        assert lab == ("out", "a", ("x",))
        assert succ == parse_bpi("b(y).nil || b!(x).nil")

    def test_broadcast_third_party_discards(self):
        p = parse_bpi("a!(v).nil || a(x).nil || b(y).nil")
        [(lab, succ)] = bpi_steps(p)
        assert succ == parse_bpi("nil || nil || b(y).nil")

    def test_choice_input_consumes_whole_sum(self):
        p = load("choice.bpi")
        steps = bpi_steps(p, universe=(("in", "a", ("m",)),))
        ins = [s for lab, s in steps if lab[0] == "in"]
        assert parse_bpi("m!(w).nil") in ins  # accepting branch wins
        taus = [s for lab, s in steps if lab == TAU]
        assert taus == [parse_bpi("c!(u).nil")]

    def test_universe_input_discard_self(self):
        p = parse_bpi("b(y).nil")
        steps = bpi_steps(p, universe=(("in", "a", ()),))
        assert (("in", "a", ()), p) in steps

    def test_recursion_unfolds(self):
        p = parse_bpi("(rec A(x).a!(x).A(x))(v)")
        [(lab, succ)] = bpi_steps(p)
        assert lab == ("out", "a", ("v",))
        assert canon_bpi(succ) == canon_bpi(p)

    def test_unfolding_does_not_capture(self):
        # b is free in the body of A, and the call of A sits under c(b)
        p = parse_bpi("(rec A(x).c(b).A(x) + b!(x).nil)(v) || c!(w).nil")
        [succ] = [s for lab, s in bpi_steps(p) if lab == ("out", "c", ("w",))]
        assert succ == BPar(p.left, BNIL)
        assert _unfold(p.left).left == BIn("c", ("b#0",), p.left)

    def test_unbound_recursion_variable(self):
        with pytest.raises(UnboundRecursionVariable):
            bpi_steps(BCall("A", ("v",)))

    def test_barbs(self):
        # the channels of the outputs that a term offers at once
        for p, want in ((load("choice.bpi"), set()), (load("handshake.bpi"), {"a"}),
                        (parse_bpi("a!(v).nil + b!(w).nil"), {"a", "b"})):
            assert {lab[1] for lab, _ in bpi_steps(p) if lab != TAU} == want

    def test_harvest_universe(self):
        u, _ = harvest_bpi_universe(load("handshake.bpi"))
        assert ("in", "a", ("x",)) in u and ("in", "b", ("x",)) in u


class TestEncoding:
    def test_nil(self):
        comp, defs = encode(BNIL)
        assert comp == Leaf(comp.env, frozenset(), Inact()) and defs == {}

    def test_tau_is_silent_output(self):
        comp, _ = encode(parse_bpi("tau.nil"))
        assert comp.proc == Out((), pr.FF, Inact())

    def test_output_prepends_channel(self):
        comp, _ = encode(parse_bpi("a!(v, w).nil"))
        assert comp.proc == Out((Const("a"), Const("v"), Const("w")), pr.TT, Inact())

    def test_input_matches_channel_with_fresh_binder(self):
        comp, _ = encode(parse_bpi("a(x).x!(v).nil"))
        proc = comp.proc
        assert isinstance(proc, In)
        y = proc.vars[0]
        assert y.startswith("_y") and proc.vars == (y, "x")
        assert proc.pred == pr.Atom("==", Var(y), Const("a"))
        assert proc.cont == Out((Var("x"), Const("v")), pr.TT, Inact())

    def test_parallel_becomes_component_composition(self):
        comp, _ = encode(parse_bpi("a!(v).nil || b(x).nil"))
        assert isinstance(comp, ParC)

    def test_recursion_becomes_definition(self):
        comp, defs = encode(parse_bpi("(rec A(x).a!(x).A(x))(v)"))
        assert comp.proc == Call("A", (Const("v"),))
        params, body = defs["A"]
        assert params == ("x",)
        assert body == Out((Const("a"), Var("x")), pr.TT, Call("A", (Var("x"),)))

    def test_conflicting_recursion_names(self):
        p = BPar(
            BRec("A", ("x",), BOut("a", ("x",), BNIL), ("v",)),
            BRec("A", ("x",), BOut("b", ("x",), BNIL), ("v",)),
        )
        with pytest.raises(EncodingError):
            encode(p)

    def test_channel_map(self):
        # a channel renaming is a substitution of the term before encoding
        comp, _ = encode(subst_names(parse_bpi("a!(v).nil"), {"a": "chan1"}))
        assert comp.proc.exprs[0] == Const("chan1")


# The exact translations of terms whose inputs nest or whose names look like
# channel variables: an input's channel variable is the first ``_y<i>`` that
# its continuation (not a recursion body), its channel and its binders do
# not mention.
FRESH_NAMES = {
    "a(x).b(y).c!(x, y).nil":
        'system: comp { iface: []; env: {}; run: '
        '(_y1 == "a")(_y1, x).(_y0 == "b")(_y0, y).("c", x, y)@tt.0 };',
    "_y0(x).nil || a!(_y1).nil":
        'system: comp { iface: []; env: {}; run: (_y1 == "_y0")(_y1, x).0 } '
        '|| comp { iface: []; env: {}; run: ("a", "_y1")@tt.0 };',
    "a(_y0).b!(_y0).nil":
        'system: comp { iface: []; env: {}; run: (_y1 == "a")(_y1, _y0).("b", _y0)@tt.0 };',
    "a(x).(rec A(_y1).b(z).A(_y1))(x)":
        'def A(_y1) = (_y0 == "b")(_y0, z).A(_y1);\n'
        'system: comp { iface: []; env: {}; run: (_y0 == "a")(_y0, x).A(x) };',
}


@pytest.mark.parametrize("term", FRESH_NAMES)
def test_fresh_channel_variables(term, tmp_path, capsys):
    path = tmp_path / "t.bpi"
    path.write_text(term + "\n")
    assert main(["translate", str(path)]) == 0
    assert capsys.readouterr().out == FRESH_NAMES[term] + "\n"
    assert main(["verify-encoding", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok: ")


class TestCorrespondence:
    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus(self, name):
        report = correspondence_check(load(name))
        assert report.ok, report.violations
        assert report.states_checked > 0

    def test_report_counts(self):
        report = correspondence_check(load("handshake.bpi"))
        assert report.transitions_checked >= report.states_checked - 1
        assert ("in", "a", ("x",)) in report.universe

    def test_random_terms(self, rng):
        for _ in range(25):
            p = random_bpi(rng)
            report = correspondence_check(p, ExploreBounds(max_states=400))
            assert report.ok, (pretty_bpi(p), report.violations[:3])
