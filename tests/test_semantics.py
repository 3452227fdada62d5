"""Component- and system-level transition enumeration: broadcast output,
accept/discard input handling, and the restriction operators."""

import pytest

from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.predicates import And, Atom, FF, TT
from abcalc.semantics import (
    IN,
    Label,
    OUT,
    UnboundProcessName,
    component_in_step,
    component_out_steps,
)
from abcalc.terms import (
    Attr,
    AttrEnv,
    Aware,
    Call,
    Choice,
    Const,
    In,
    Leaf,
    Op,
    Out,
    ParC,
    ParP,
    ResIn,
    ResOut,
    RestrictionFn,
    SelfAttr,
    Upd,
    Var,
    ZERO,
)

from composition_reference import system_in_step, system_out_steps
from conftest import PROBE_MESSAGES, random_component, random_restriction


ENV = AttrEnv.of({"a": 1, "b": 2})
IFACE = frozenset({"a"})


def leaf(proc, env=ENV, iface=IFACE):
    return Leaf(env, iface, proc)


def msg(values, pred=TT, env=AttrEnv()):
    return Label(IN, env, pred, tuple(values))


class TestComponentOut:
    def test_plain_output(self):
        c = leaf(Out((Const(5),), TT, ZERO))
        [(lab, succ)] = component_out_steps(c, {})
        assert lab == Label(OUT, ENV.restrict(IFACE), TT, (5,))
        assert succ == leaf(ZERO)

    def test_pred_closed_under_full_env(self):
        # this.b is outside the interface but still closes to its value
        c = leaf(Out((), Atom("==", Attr("x"), SelfAttr("b")), ZERO))
        [(lab, _)] = component_out_steps(c, {})
        assert lab.pred == Atom("==", Attr("x"), Const(2))
        assert lab.env.as_dict() == {"a": 1}

    def test_silent_output(self):
        c = leaf(Out((), FF, ZERO))
        [(lab, _)] = component_out_steps(c, {})
        assert pr.is_ff(lab.pred)

    def test_eval_error_prunes_output(self):
        c = leaf(Out((Attr("zz"),), TT, ZERO))
        assert component_out_steps(c, {}) == []

    def test_awareness_gate(self):
        body = Out((Const(1),), TT, ZERO)
        assert component_out_steps(leaf(Aware(Atom("==", SelfAttr("a"), Const(1)), body)), {})
        assert component_out_steps(leaf(Aware(Atom("==", SelfAttr("a"), Const(9)), body)), {}) == []
        # a guard whose this-attribute is undefined blocks the branch
        assert component_out_steps(leaf(Aware(Atom("==", SelfAttr("zz"), Const(1)), body)), {}) == []

    def test_choice_offers_both(self):
        c = leaf(Choice(Out((Const(1),), TT, ZERO), Out((Const(2),), TT, ZERO)))
        vals = sorted(lab.values for lab, _ in component_out_steps(c, {}))
        assert vals == [(1,), (2,)]

    def test_interleave_keeps_sibling(self):
        c = leaf(ParP(Out((Const(1),), TT, ZERO), Out((Const(2),), TT, ZERO)))
        steps = component_out_steps(c, {})
        assert len(steps) == 2
        for lab, succ in steps:
            assert isinstance(succ.proc, ParP)

    def test_update_applied_atomically(self):
        c = leaf(Out((Const(1),), TT, Upd((("a", Const(7)),), ZERO)))
        [(lab, succ)] = component_out_steps(c, {})
        assert lab.env.as_dict() == {"a": 1}  # label uses the pre-state
        assert succ.env.get("a") == 7
        assert succ.proc == ZERO

    def test_recursion_unfolds(self):
        defs = {"K": (("x",), Out((Var("x"),), TT, Call("K", (Var("x"),))))}
        c = leaf(Call("K", (Const(3),)))
        [(lab, succ)] = component_out_steps(c, defs)
        assert lab.values == (3,)
        assert succ.proc == Call("K", (Const(3),))

    def test_unbound_name(self):
        with pytest.raises(UnboundProcessName):
            component_out_steps(leaf(Call("missing", ())), {})


class TestComponentIn:
    def test_accept_blocks_discard(self):
        c = leaf(In(TT, ("x",), Out((Var("x"),), TT, ZERO)))
        accepts, can_discard = component_in_step(c, msg((9,)), {})
        assert accepts == [leaf(Out((Const(9),), TT, ZERO))]
        assert not can_discard

    def test_sender_side_constraint(self):
        # the message predicate is checked against the receiver interface
        c = leaf(In(TT, ("x",), ZERO))
        accepts, can_discard = component_in_step(c, msg((9,), Atom("==", Attr("a"), Const(5))), {})
        assert accepts == [] and can_discard
        accepts, can_discard = component_in_step(c, msg((9,), Atom("==", Attr("a"), Const(1))), {})
        assert accepts and not can_discard
        # attributes outside the interface are invisible to the sender
        accepts, _ = component_in_step(c, msg((9,), Atom("==", Attr("b"), Const(2))), {})
        assert accepts == []

    def test_receive_predicate_checked_against_sender(self):
        c = leaf(In(Atom("==", Attr("r"), Const(1)), ("x",), ZERO))
        ok = msg((9,), env=AttrEnv.of({"r": 1}))
        no = msg((9,), env=AttrEnv.of({"r": 2}))
        assert component_in_step(c, ok, {})[0]
        assert component_in_step(c, no, {}) == ([], True)

    def test_receive_predicate_sees_message_values(self):
        c = leaf(In(Atom("==", Var("x"), Const(1)), ("x",), ZERO))
        assert component_in_step(c, msg((1,)), {})[0]
        assert component_in_step(c, msg((2,)), {}) == ([], True)

    def test_arity_mismatch_discards(self):
        c = leaf(In(TT, ("x", "y"), ZERO))
        assert component_in_step(c, msg((1,)), {}) == ([], True)

    def test_inactive_discards(self):
        assert component_in_step(leaf(ZERO), msg((1,)), {}) == ([], True)
        assert component_in_step(leaf(Out((), TT, ZERO)), msg((1,)), {}) == ([], True)

    def test_choice_collects_accepts(self):
        c = leaf(Choice(In(TT, ("x",), ZERO), In(TT, ("x",), Out((Const(1),), TT, ZERO))))
        accepts, can_discard = component_in_step(c, msg((5,)), {})
        assert len(accepts) == 2 and not can_discard

    def test_mixed_choice_discard_requires_both(self):
        c = leaf(Choice(In(TT, ("x",), ZERO), Out((Const(1),), TT, ZERO)))
        accepts, can_discard = component_in_step(c, msg((5,)), {})
        assert len(accepts) == 1 and not can_discard


class TestSystem:
    def test_broadcast_delivery(self):
        sender = leaf(Out((Const(3),), TT, ZERO))
        receiver = leaf(In(TT, ("x",), Out((Var("x"),), TT, ZERO)))
        steps = system_out_steps(ParC(sender, receiver), {})
        assert len(steps) == 1
        lab, succ = steps[0]
        assert lab.values == (3,)
        assert succ == ParC(leaf(ZERO), leaf(Out((Const(3),), TT, ZERO)))

    def test_input_product(self):
        # an accepting input beside an inactive sibling: one successor
        c = ParC(leaf(In(TT, ("x",), ZERO)), leaf(ZERO))
        succs = system_in_step(c, msg((1,)), {})
        assert succs == [ParC(leaf(ZERO), leaf(ZERO))]

    def test_input_never_empty(self, rng):
        for _ in range(80):
            c = random_component(rng)
            for m in PROBE_MESSAGES:
                assert system_in_step(c, m, {})

    def test_silent_broadcast_reaches_nobody(self):
        sender = leaf(Out((), FF, ZERO))
        receiver = leaf(In(TT, (), ZERO))
        steps = system_out_steps(ParC(sender, receiver), {})
        assert len(steps) == 1
        _, succ = steps[0]
        assert succ.right == receiver  # the ff-message is discarded

    def test_res_out_strengthens(self):
        fn = RestrictionFn("f", Atom("==", pr.MsgIdx(0), Const(1)))
        inner = leaf(Out((Const(1),), TT, ZERO))
        [(lab, succ)] = system_out_steps(ResOut(inner, fn), {})
        assert lab.pred == And(TT, Atom("==", Const(1), Const(1)))
        assert isinstance(succ, ResOut)

    def test_res_out_can_silence(self):
        fn = RestrictionFn("f", FF)
        inner = leaf(Out((Const(1),), TT, ZERO))
        [(lab, _)] = system_out_steps(ResOut(inner, fn), {})
        assert pr.is_ff(lab.pred)

    def test_res_in_strengthens_inputs_only(self):
        fn = RestrictionFn("f", FF)
        inner = leaf(Choice(Out((Const(1),), TT, ZERO), In(TT, ("x",), ZERO)))
        wrapped = ResIn(inner, fn)
        [(lab, _)] = system_out_steps(wrapped, {})
        assert not pr.is_ff(lab.pred)  # outputs pass unchanged
        succs = system_in_step(wrapped, msg((1,)), {})
        assert succs == [wrapped]  # every input is blocked, discard remains

    def test_res_in_label_unchanged(self):
        fn = RestrictionFn("f", Atom("==", pr.MsgIdx(0), Const(1)))
        inner = leaf(In(TT, ("x",), Out((Var("x"),), TT, ZERO)))
        ok = system_in_step(ResIn(inner, fn), msg((1,)), {})
        assert any(isinstance(s, ResIn) and s.comp != inner for s in ok)
        blocked = system_in_step(ResIn(inner, fn), msg((2,)), {})
        assert blocked == [ResIn(inner, fn)]


class TestSilentStepLaws:
    """Direct transition-level checks of the silent-move properties."""

    def test_silent_message_self_loop(self, rng):
        silent = Label(IN, AttrEnv(), FF, ())
        for _ in range(60):
            c = random_component(rng)
            assert c in system_in_step(c, silent, {})

    def test_tau_lifts_through_parallel(self, rng):
        for _ in range(60):
            c1, c2 = random_component(rng), random_component(rng)
            taus = [
                (lab, succ)
                for lab, succ in system_out_steps(c1, {})
                if pr.is_ff(lab.pred)
            ]
            composed = system_out_steps(ParC(c1, c2), {})
            for lab, succ in taus:
                assert (lab, ParC(succ, c2)) in composed

    def test_equivalent_message_preds_same_responses(self, rng):
        for _ in range(60):
            c = random_component(rng)
            for m in PROBE_MESSAGES:
                variant = Label(IN, m.env, pr.Not(pr.Not(m.pred)), m.values)
                got = {s for s in system_in_step(c, variant, {})}
                want = {s for s in system_in_step(c, m, {})}
                assert got == want

    def test_tau_preserved_by_restrictions(self, rng):
        for _ in range(60):
            c = random_component(rng)
            fn = random_restriction(rng)
            taus = [lab for lab, _ in system_out_steps(c, {}) if pr.is_ff(lab.pred)]
            out_taus = [
                lab for lab, _ in system_out_steps(ResOut(c, fn), {}) if pr.is_ff(lab.pred)
            ]
            in_taus = [
                lab for lab, _ in system_out_steps(ResIn(c, fn), {}) if pr.is_ff(lab.pred)
            ]
            assert len(out_taus) >= len(taus)
            assert len(in_taus) == len(taus)
