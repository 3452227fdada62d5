"""Predicate satisfaction, closure, and the finite-witness solver,
cross-checked against the brute-force enumeration oracle."""

import pytest

from abcalc.predicates import (
    And,
    Atom,
    DomainContext,
    EMPTY_DOMAINS,
    FF,
    Not,
    Or,
    TT,
    close,
    equiv,
    find_witness,
    implies,
    instantiate,
    is_ff,
    is_sat,
    pred_attrs,
    satisfies,
    subst_pred,
)
from abcalc.terms import (
    Attr,
    AttrEnv,
    Const,
    MsgIdx,
    Op,
    RestrictionFn,
    SelfAttr,
    SndAttr,
    UndefinedAttribute,
    Var,
)

from conftest import ORACLE_DOMAINS, oracle_implies, oracle_is_sat, random_pred


def A(op, attr, const):
    return Atom(op, Attr(attr), Const(const))


class TestSatisfies:
    ENV = AttrEnv.of({"a": 2, "b": "x", "s": frozenset({1, 2})})

    def test_constants(self):
        assert satisfies(self.ENV, TT)
        assert not satisfies(self.ENV, FF)
        assert satisfies(AttrEnv(), TT)

    def test_atoms(self):
        assert satisfies(self.ENV, A("==", "a", 2))
        assert satisfies(self.ENV, A("!=", "a", 3))
        assert satisfies(self.ENV, A("<", "a", 3))
        assert satisfies(self.ENV, A(">=", "a", 2))
        assert satisfies(self.ENV, A("in", "a", frozenset({1, 2})))
        assert not satisfies(self.ENV, A("in", "a", frozenset({5})))
        # a bool is not an integer: true and 1, false and 0 differ and have no order
        for x, y in ((True, 1), (False, 0)):
            for left, right in ((x, y), (y, x)):
                held = [op for op in ("==", "!=", "<", "<=", ">", ">=", "in")
                        if satisfies(self.ENV, Atom(op, Const(left), Const(right)))]
                assert held == ["!="]
        assert not satisfies(self.ENV, Atom("in", Const(1), Const(frozenset({True}))))
        assert satisfies(self.ENV, Atom("in", Const(1), Const((1, 2))))
        assert not satisfies(self.ENV, Atom("in", Const(1), Const(1)))
        # an operand that fails to evaluate makes the atom false
        for atom in (A("==", "missing", 1), Atom("<", Op("+", (Const(True), Const(1))), Const(3))):
            assert not satisfies(self.ENV, atom)
            assert satisfies(self.ENV, Not(atom))

    def test_membership_in_attr_set(self):
        assert satisfies(self.ENV, Atom("in", Const(1), Attr("s")))
        assert not satisfies(self.ENV, Atom("in", Const(9), Attr("s")))

    def test_order_only_on_ints(self):
        assert not satisfies(self.ENV, A("<", "b", 3))
        assert not satisfies(self.ENV, Atom("<", Const(True), Const(2)))

    def test_undefined_attribute_atom_is_false(self):
        assert not satisfies(self.ENV, A("==", "zz", 1))
        assert not satisfies(self.ENV, A("!=", "zz", 1))
        # negation over an undefined atom holds
        assert satisfies(self.ENV, Not(A("==", "zz", 1)))

    def test_connectives(self):
        assert satisfies(self.ENV, And(A("==", "a", 2), A("==", "b", "x")))
        assert not satisfies(self.ENV, And(A("==", "a", 2), FF))
        assert satisfies(self.ENV, Or(FF, A("==", "a", 2)))
        assert satisfies(self.ENV, Not(A("==", "a", 3)))


class TestCloseAndSubst:
    def test_close_replaces_self_attrs(self):
        env = AttrEnv.of({"a": 7})
        p = Atom("==", SelfAttr("a"), Attr("b"))
        assert close(p, env) == Atom("==", Const(7), Attr("b"))

    def test_close_leaves_bare_attrs(self):
        env = AttrEnv.of({"a": 7})
        p = A("==", "a", 1)
        assert close(p, env) == p

    def test_close_undefined_raises(self):
        with pytest.raises(UndefinedAttribute):
            close(Atom("==", SelfAttr("zz"), Const(1)), AttrEnv())

    def test_subst_pred(self):
        p = Atom("==", Var("x"), Const(1))
        assert subst_pred(p, ("x",), (1,)) == Atom("==", Const(1), Const(1))
        assert subst_pred(p, ("y",), (2,)) == p


class TestSolver:
    def test_unsat_interval(self):
        p = And(A("<", "a", 3), A(">", "a", 5))
        assert not is_sat(p)
        assert is_ff(p)

    def test_sat_gap(self):
        p = And(A(">", "a", 1), A("<", "a", 3))
        w = find_witness(p)
        assert w is not None and satisfies(w, p)

    def test_membership_in_constant_collection(self):
        for members in (frozenset({1, 2}), (1, 2)):
            p = A("in", "tier", members)
            w = find_witness(p)
            assert w is not None and satisfies(w, p)
            assert not is_sat(And(p, And(A("!=", "tier", 1), A("!=", "tier", 2))))

    def test_fresh_name_needed(self):
        p = And(A("!=", "a", "x"), A("!=", "a", "y"))
        assert is_sat(p)

    def test_total_valuations(self):
        # solver verdicts quantify over total valuations of the
        # mentioned attributes, so = and != are complementary
        p = And(Not(A("==", "a", 1)), Not(A("!=", "a", 1)))
        assert not is_sat(p)

    def test_equiv_negated_equality(self):
        assert equiv(A("!=", "a", 10), Not(A("==", "a", 10)))

    def test_equiv_under_domain(self):
        doms = DomainContext.of({"role": {"client", "fwd"}})
        conj_form = And(A("==", "role", "client"), A("!=", "role", "fwd"))
        assert equiv(conj_form, A("==", "role", "client"), doms)
        # the domain-sensitive form: the bare inequality collapses to the
        # equality only because role ranges over two values
        assert equiv(A("!=", "role", "fwd"), A("==", "role", "client"), doms)
        assert not equiv(A("!=", "role", "fwd"), A("==", "role", "client"))

    def test_equiv_reflexive(self, rng):
        for _ in range(20):
            p = random_pred(rng)
            assert equiv(p, p, ORACLE_DOMAINS)

    def test_implies_examples(self):
        assert implies(A("==", "a", 1), A("<=", "a", 1))
        assert not implies(A("<=", "a", 1), A("==", "a", 1))
        assert implies(FF, A("==", "a", 1))
        assert implies(A("==", "a", 1), TT)

    def test_witness_soundness_random(self, rng):
        for _ in range(100):
            p = random_pred(rng)
            w = find_witness(p, ORACLE_DOMAINS)
            if w is not None:
                assert satisfies(w, p)

    def test_oracle_agreement_sample(self, rng):
        for _ in range(100):
            p = random_pred(rng)
            assert is_sat(p, ORACLE_DOMAINS) == oracle_is_sat(p)

    def test_oracle_implication_sample(self, rng):
        for _ in range(60):
            p, q = random_pred(rng), random_pred(rng)
            assert implies(p, q, ORACLE_DOMAINS) == oracle_implies(p, q)

    def test_equiv_is_equivalence_on_sample(self, rng):
        preds = [random_pred(rng, 2) for _ in range(12)]
        e = lambda p, q: equiv(p, q, ORACLE_DOMAINS)
        for p in preds:
            assert e(p, p)
        for p in preds:
            for q in preds:
                assert e(p, q) == e(q, p)
                for r in preds:
                    if e(p, q) and e(q, r):
                        assert e(p, r)


class TestInstantiate:
    def test_msg_and_snd_resolved(self):
        fn = RestrictionFn(
            "f", And(Atom("==", MsgIdx(0), Const(1)), Atom("!=", SndAttr("d"), Const(2)))
        )
        got = instantiate(fn, AttrEnv.of({"d": 3}), (1, 9))
        assert got == And(Atom("==", Const(1), Const(1)), Atom("!=", Const(3), Const(2)))

    def test_out_of_range_collapses_to_ff(self):
        fn = RestrictionFn("f", Atom("==", MsgIdx(5), Const(1)))
        assert instantiate(fn, AttrEnv(), (1,)) == FF

    def test_undefined_sender_attr_collapses_to_ff(self):
        fn = RestrictionFn("f", Atom("==", SndAttr("zz"), Const(1)))
        assert instantiate(fn, AttrEnv(), ()) == FF


class TestDomainContext:
    def test_domains_compare_by_value(self):
        ones, trues = DomainContext.of({"a": {1}}), DomainContext.of({"a": {True}})
        assert ones != trues and ones == DomainContext.of({"a": {1}})
        # the solver's cache keys on the domains, so it must tell them apart
        assert not is_sat(A("==", "a", True), ones)
        assert is_sat(A("==", "a", True), trues)

    def test_pred_attrs(self):
        p = And(A("==", "a", 1), Atom("<", Op("+", (Attr("b"), Const(1))), Attr("c")))
        assert pred_attrs(p) == frozenset({"a", "b", "c"})
