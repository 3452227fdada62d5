"""Label equivalence, barbs, and the bisimilarity checker, including the
equational laws and the named counterexamples."""

import pytest

from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.equivalence import (
    Verdict,
    barbs,
    label_equiv,
    strong_bisim,
    weak_bisim,
)
from abcalc.lts import ExploreBounds, merge_labels
from abcalc.predicates import And, Atom, FF, TT
from abcalc.semantics import IN, Label, OUT
from abcalc.syntax import parse_predicate, parse_process
from abcalc.terms import AttrEnv, Leaf, ParC, ResIn, ResOut, RestrictionFn, ZERO

from abcalc.systems import network

from conftest import choice_or_pair, law_universe, random_component, remark51, remark52


def leaf(text, env=None, iface=()):
    return Leaf(AttrEnv.of(env or {}), frozenset(iface), parse_process(text))


def out_label(pred, values, env=None):
    return Label(OUT, AttrEnv.of(env or {}), pred, tuple(values))


class TestLabelEquiv:
    def test_equal_labels(self):
        l = out_label(TT, (1,))
        assert label_equiv(l, l)

    def test_equivalent_preds(self):
        l1 = out_label(parse_predicate("a != 10"), (1,))
        l2 = out_label(parse_predicate("!(a == 10)"), (1,))
        assert label_equiv(l1, l2)

    def test_silent_outputs_all_identified(self):
        l1 = out_label(FF, (), env={"a": 1})
        l2 = out_label(And(Atom("<", pr.Attr("a"), pr.Const(1)), Atom(">", pr.Attr("a"), pr.Const(2))), (9,))
        assert label_equiv(l1, l2)

    def test_kind_env_values_matter(self):
        l1 = out_label(TT, (1,))
        assert not label_equiv(l1, l1.as_input())
        assert not label_equiv(l1, out_label(TT, (2,)))
        assert not label_equiv(l1, out_label(TT, (1,), env={"a": 1}))
        # silent inputs are not identified the way silent outputs are
        assert not label_equiv(
            Label(IN, AttrEnv(), FF, (1,)), Label(IN, AttrEnv(), FF, (2,))
        )


class TestBarbs:
    def test_inactive_has_none(self):
        assert barbs(Leaf(AttrEnv(), frozenset(), ZERO)) == []

    def test_single_output(self):
        reps = barbs(leaf('("v")@(a == 1).0'))
        assert len(reps) == 1
        assert pr.equiv(reps[0], parse_predicate("a == 1"))

    def test_equivalent_barbs_deduped(self):
        c = leaf('("v")@(a != 10).0 + ("w")@(!(a == 10)).0')
        assert len(barbs(c)) == 1

    def test_silent_outputs_are_not_barbs(self):
        assert barbs(leaf("()@ff.0")) == []

    def test_weak_barbs_see_through_taus(self):
        c = leaf('()@ff.("v")@(a == 1).0')
        assert barbs(c) == []
        reps = barbs(c, weak=True)
        assert len(reps) == 1 and pr.equiv(reps[0], parse_predicate("a == 1"))

    def test_network_barb(self):
        net = network()
        reps = barbs(net["N"], net["defs"], net["domains"])
        assert len(reps) == 1
        assert pr.equiv(reps[0], net["pi1"], net["domains"])


class TestChecker:
    def test_reflexive(self, rng):
        for _ in range(10):
            c = random_component(rng)
            assert strong_bisim(c, c).equivalent
            assert weak_bisim(c, c).equivalent

    def test_strong_implies_weak(self, rng):
        for _ in range(15):
            c1, c2 = random_component(rng), random_component(rng)
            u = law_universe(c1, c2)
            if strong_bisim(c1, c2, universe=u).equivalent:
                assert weak_bisim(c1, c2, universe=u).equivalent

    def test_verdict_dict_shape(self):
        v = weak_bisim(leaf('("v")@tt.0'), leaf("0"))
        d = v.as_dict()
        assert d["equivalent"] is False
        assert isinstance(d["universe_fingerprint"], str)
        assert d["witness"]

    def test_witness_starts_with_distinguishing_move(self):
        v = strong_bisim(leaf('("v")@tt.0'), leaf("0"))
        assert not v.equivalent
        assert v.witness[0]["from"] == "A"
        assert '"v"' in v.witness[0]["label"]

    def test_inconclusive_under_tiny_bounds(self):
        net = network()
        v = weak_bisim(
            net["N"], net["T"], net["defs"], domains=net["domains"],
            bounds=ExploreBounds(max_states=3),
        )
        assert v.inconclusive and not v.equivalent

    def test_tau_prefix_weakly_invisible(self):
        c1 = leaf('()@ff.("v")@tt.0')
        c2 = leaf('("v")@tt.0')
        assert not strong_bisim(c1, c2).equivalent
        assert weak_bisim(c1, c2).equivalent


class TestLaws:
    """Concrete instances of the equational laws, three per law."""

    def check(self, c1, c2, defs=None, domains=pr.EMPTY_DOMAINS):
        u = law_universe(c1, c2, defs, domains)
        v = weak_bisim(c1, c2, defs, universe=u, domains=domains)
        assert v.equivalent, v.as_dict()

    def test_parallel_composition(self):
        a = leaf('(1)@tt.0')
        b = leaf('(x == 1)(x).("got")@tt.0', env={"d": 1}, iface=["d"])
        c = leaf("()@ff.(2)@tt.0")
        self.check(ParC(a, b), ParC(b, a))
        self.check(ParC(ParC(a, b), c), ParC(a, ParC(b, c)))
        self.check(ParC(Leaf(AttrEnv.of({"d": 9}), frozenset(), ZERO), c), c)

    def test_choice(self):
        p1, p2, p3 = '(1)@tt.0', '(x == 1)(x).(2)@tt.0', "()@ff.(3)@tt.0"
        mk = lambda t: leaf(t, env={"d": 1})
        self.check(mk(f"{p1} + {p2}"), mk(f"{p2} + {p1}"))
        self.check(mk(f"({p1} + {p2}) + {p3}"), mk(f"{p1} + ({p2} + {p3})"))
        self.check(mk(f"{p1} + 0"), mk(p1))
        self.check(mk(f"{p2} + {p2}"), mk(p2))
        self.check(
            mk(f"<(d == 1)> ({p1} + {p2})"),
            mk(f"<(d == 1)> {p1} + <(d == 1)> {p2}"),
        )

    def test_interleaving(self):
        p1, p2, p3 = '(1)@tt.0', '(x == 1)(x).(2)@tt.0', "()@ff.(3)@tt.0"
        mk = lambda t: leaf(t, env={"d": 1})
        self.check(mk(f"{p1} | {p2}"), mk(f"{p2} | {p1}"))
        self.check(mk(f"({p1} | {p2}) | {p3}"), mk(f"{p1} | ({p2} | {p3})"))
        self.check(mk(f"{p1} | 0"), mk(p1))

    def test_awareness(self):
        body = '(1)@tt.(x == 1)(x).(2)@tt.0'
        mk = lambda t: leaf(t, env={"d": 1})
        self.check(mk(f"<ff> ({body})"), mk("0"))
        self.check(mk(f"<tt> ({body})"), mk(body))
        self.check(mk(f"<(d == 1)> (<(d != 2)> ({body}))"), mk(f"<((d == 1) && (d != 2))> ({body})"))
        self.check(mk(f"<(d == 2)> ({body})"), mk("0"))

    def test_silent_components_unobservable(self):
        zero = leaf("0", env={"d": 1})
        self.check(leaf("(x == 1)(x).(y == 2)(y).0", env={"d": 1}), zero)
        self.check(leaf("<(d == 1)> (tt)(x).0", env={"d": 1}), zero)
        self.check(leaf("(tt)(x).0 + (x == 1)(x).0 | ()@ff.0", env={"d": 1}), zero)


class TestNamedExamples:
    def test_choice_versus_or_n2(self):
        c1, c2 = choice_or_pair(("x == 1", "x == 2"))
        u = law_universe(c1, c2)
        assert weak_bisim(c1, c2, universe=u).equivalent

    def test_choice_versus_or_n3(self):
        c1, c2 = choice_or_pair(("x == 1", "x == 2", "d == 1"), env={"d": 1})
        u = law_universe(c1, c2)
        assert weak_bisim(c1, c2, universe=u).equivalent

    def test_exposed_message_equality(self):
        # equal interfaces and equal exposed values, different environments
        c1 = leaf("(this.d)@(r == 1).0", env={"d": 5, "e": 1}, iface=["e"])
        c2 = leaf("(5)@(r == 1).0", env={"e": 1, "zz": 9}, iface=["e"])
        assert weak_bisim(c1, c2).equivalent
        c3 = leaf("(6)@(r == 1).0", env={"e": 1}, iface=["e"])
        assert not weak_bisim(c1, c3).equivalent

    def test_remark_51(self):
        r = remark51()
        u = (r["message"],)
        assert weak_bisim(r["P"], r["Q"], universe=u).equivalent
        assert not weak_bisim(r["prefix_P"], r["prefix_Q"], universe=u).equivalent
        assert not weak_bisim(r["par_P"], r["par_Q"], universe=u).equivalent
        assert not weak_bisim(r["upd_P"], r["upd_Q"], universe=u).equivalent

    def test_remark_52(self):
        r = remark52()
        u = (r["message"],)
        assert weak_bisim(r["plain1"], r["plain2"], universe=u).equivalent
        assert not weak_bisim(r["C1"], r["C2"], universe=u).equivalent

    def test_network_closed_matches_test(self):
        net = network()
        v = weak_bisim(net["N_closed"], net["T"], net["defs"], domains=net["domains"])
        assert v.equivalent

    def test_network_open_does_not_match(self):
        # under the shared alphabet alone N and T agree; an environment
        # that can also say (f3, w) tells them apart, because a forwarder
        # is initially willing to accept any neighbour-addressed message
        net = network()
        from abcalc.lts import abc_walk, auto_universe

        probe = Label(IN, AttrEnv(), TT, ("f3", "w"))
        u, _ = auto_universe(abc_walk(net["N"], net["defs"], net["domains"]),
                             domains=net["domains"])
        u = merge_labels(u, (probe,), net["domains"])
        v = weak_bisim(net["N"], net["T"], net["defs"], universe=u, domains=net["domains"])
        assert not v.equivalent

    def test_interference_witness(self):
        net = network()
        v = weak_bisim(net["N_CP2"], net["T_CP2"], net["defs"], domains=net["domains"])
        assert not v.equivalent
        assert any("f3" in step["label"] for step in v.witness)
