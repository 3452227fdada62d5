"""The one composition loop (``lts.Walk``) against the recursive
composition it replaced (``composition_reference``): the same successor
lists, in the same order, once the id vectors are rebuilt into trees.
Covers restrictOut and restrictIn at random nodes, left-, right- and
mixed-nested ``||``, and broadcast terms nested either way."""

import random

import pytest

from abcalc import bpi as bp
from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.lts import abc_walk
from abcalc.syntax import parse_abc
from abcalc.systems import network
from abcalc.terms import (AttrEnv, Const, DomainViolation, In, Inact, Leaf, Out, ParC, ResIn,
                          ResOut, RestrictionFn, Var, canonical)

import composition_reference as ref
from conftest import (PROBE_MESSAGES, random_bpi, random_component, random_definitions,
                      random_leaf)


def reachable(walk, steps, limit=25):
    """Up to ``limit`` states of the walk, breadth first."""
    seen, queue = [walk.initial], [walk.initial]
    while queue and len(seen) < limit:
        state = queue.pop(0)
        for _, succ in steps(state):
            if succ not in seen and len(seen) < limit:
                seen.append(succ)
                queue.append(succ)
    return seen


def assert_component_steps_match(comp, defs=None):
    defs = defs or {}
    walk = abc_walk(comp, defs)
    for state in reachable(walk, walk.outs):
        tree = walk.tree(state)
        assert tree == canonical(tree)
        got = [(lab, walk.tree(succ)) for lab, succ in walk.outs(state)]
        want = [(lab, canonical(succ)) for lab, succ in ref.system_out_steps(tree, defs)]
        assert got == want, tree
        for msg in PROBE_MESSAGES + tuple(dict.fromkeys(lab.as_input() for lab, _ in got)):
            got_in = [walk.tree(succ) for succ in walk.ins(state, msg)]
            want_in = [canonical(succ) for succ in ref.system_in_step(tree, msg, defs)]
            assert got_in == want_in, (tree, msg)


def shape_of(comp) -> set:
    kinds, todo = set(), [comp]
    while todo:
        node = todo.pop()
        if isinstance(node, ParC):
            kinds.add("right-nested" if isinstance(node.right, ParC) else "par")
            todo += [node.left, node.right]
        elif isinstance(node, (ResOut, ResIn)):
            kinds.add(type(node).__name__)
            todo.append(node.comp)
    return kinds


def test_components_with_restrictions():
    rng, kinds = random.Random(31), set()
    for _ in range(300):
        comp = random_component(rng, 3, restrict=0.35)
        kinds |= shape_of(comp)
        assert_component_steps_match(comp)
    assert kinds >= {"par", "right-nested", "ResOut", "ResIn"}


def test_right_and_mixed_nested_components(rng):
    for _ in range(200):
        leaves = [random_component(rng, 0) for _ in range(rng.randint(2, 4))]
        right = leaves[-1]
        for leaf in reversed(leaves[:-1]):
            right = ParC(leaf, right)
        assert_component_steps_match(right)
        assert_component_steps_match(random_component(rng, 3))


def test_components_calling_parametrised_definitions(monkeypatch):
    """Leaves that call definitions whose bodies use their parameter free,
    so that resolving a call substitutes the argument into the body."""
    rng, substituted, real = random.Random(53), [], sem._resolve

    def resolve(call, defs, env):
        proc = real(call, defs, env)
        substituted.append(proc != defs[call.name][1])
        return proc

    monkeypatch.setattr(sem, "_resolve", resolve)
    for _ in range(200):
        defs = random_definitions(rng)
        assert_component_steps_match(random_component(rng, 2, calls=tuple(defs)), defs)
    assert sum(substituted) > 100 and all(substituted)


def test_restrict_out_between_two_parallel_levels():
    """B hears A's output as A sends it, C only as the restrictOut between
    them leaves it: false, so C discards what B takes."""
    hear = In(pr.TT, ("x",), Out((Var("x"),), pr.TT, Inact()))
    a, b, c = (Leaf(AttrEnv(), frozenset(), proc)
               for proc in (Out((Const(1),), pr.TT, Inact()), hear, hear))
    for fn in (RestrictionFn("fff", pr.FF), RestrictionFn("ftt", pr.TT)):
        assert_component_steps_match(ParC(ResOut(ParC(a, b), fn), c))
        assert_component_steps_match(ParC(c, ResOut(ParC(b, a), fn)))


TWINS = """comp X { iface: []; env: {}; run: (1)@tt.0 + (tt)(x).(x)@tt.0 }
comp D { iface: []; env: {}; run: (x == 2)(x).0 }
"""


@pytest.mark.parametrize("system", ["X || X || D", "X || (D || X)", "D || X || X"])
def test_a_leaf_hears_its_twin(system):
    """Two positions hold one leaf id, and each takes what the other sends,
    while D, asked too, discards it.  The hearers of a step are its
    positions, not its leaf ids: leaving out the sender's id would leave
    out its twin."""
    model = parse_abc(TWINS + f"system: {system};\n")
    walk = abc_walk(model.component, model.defs)
    assert len(set(walk.initial)) == 2
    assert_component_steps_match(model.component, model.defs)
    assert sum(lab.values == (1,) for lab, _ in walk.outs(walk.initial)) == 2


def test_hearers_that_hear_different_messages():
    """Under a restrictIn or a restrictOut, one leaf id hears a message in
    two forms: it takes the message as sent, and discards it once the
    restriction (false) is added.  Neither form's discards stand for the
    other's."""
    send = Leaf(AttrEnv(), frozenset(), Out((Const(1),), pr.TT, Inact()))
    hear = Leaf(AttrEnv(), frozenset(), In(pr.TT, ("x",), Out((Var("x"),), pr.TT, Inact())))
    fff = RestrictionFn("fff", pr.FF)
    for comp in (ParC(send, ParC(hear, ResIn(hear, fff))),
                 ParC(ParC(ResIn(hear, fff), hear), send),
                 ParC(ResOut(ParC(send, hear), fff), hear),
                 ParC(hear, ResOut(ParC(hear, send), fff))):
        assert_component_steps_match(comp)
        walk = abc_walk(comp, {})
        assert len(set(walk.initial)) == 2 and len(walk.outs(walk.initial)) == 1


# Receivers of no, one and two values that take every message: their
# interfaces lack d and e, so a silent guard such as !(d == 2) && !(d != 2)
# holds for them.
RECEIVERS = [Leaf(AttrEnv(), frozenset(), In(pr.TT, names, Out((Const("got"),), pr.TT, Inact())))
             for names in ((), ("x",), ("x", "y"))]


def test_silent_outputs_reach_no_one(rng):
    """A random leaf beside receivers that would take each of its outputs:
    a silent one reaches none of them, in the walk as in the reference."""
    heard = 0
    for _ in range(500):
        sender = random_leaf(rng)
        assert_component_steps_match(ParC(sender, ParC(RECEIVERS[0],
                                                       ParC(RECEIVERS[1], RECEIVERS[2]))))
        for lab, _ in sem.component_out_steps(sender, {}):
            if lab.pred != pr.FF and pr.is_ff(lab.pred):
                heard += any(sem.component_in_step(r, lab.as_input(), {})[0] for r in RECEIVERS)
    assert heard >= 5


REFUSAL = """domain d in {2};
comp S { iface: []; env: {}; run: (1)@tt.0 }
comp R { iface: []; env: {}; run: (tt)(x).[e := x + "a"]0 }
comp L { iface: []; env: {}; run: (tt)(x).[d := x]0 }
"""


@pytest.mark.parametrize("system", ["S || (R || L)", "S || (L || R)", "(L || R) || S"])
def test_a_refusing_leaf_ends_the_step(system):
    """R takes the message but cannot evaluate its update, so it can
    neither accept nor discard: that ends the step, and L, whose update
    would leave its domain, is not asked after it; asked first, it raises."""
    model = parse_abc(REFUSAL + f"system: {system};\n")
    walk = abc_walk(model.component, model.defs, model.domains)
    tree, msg = walk.tree(walk.initial), PROBE_MESSAGES[0]
    for got, want in ((lambda: walk.outs(walk.initial),
                       lambda: ref.system_out_steps(tree, model.defs, model.domains)),
                      (lambda: walk.ins(walk.initial, msg),
                       lambda: ref.system_in_step(tree, msg, model.defs, model.domains))):
        if system.index("R") < system.index("L"):
            assert got() == want() == []
        else:
            for steps in (got, want):
                with pytest.raises(DomainViolation):
                    steps()


def test_network_systems():
    net = network()
    for key in ("N", "T", "N_closed", "N_CP2", "T_CP2"):
        walk = abc_walk(net[key], net["defs"], net["domains"])
        for state in reachable(walk, walk.outs, 40):
            tree = walk.tree(state)
            got = [(lab, walk.tree(succ)) for lab, succ in walk.outs(state)]
            want = [(lab, canonical(succ))
                    for lab, succ in ref.system_out_steps(tree, net["defs"], net["domains"])]
            assert got == want, key


@pytest.mark.parametrize("nest", ["left", "right", "mixed"])
def test_broadcast_terms(rng, nest):
    for _ in range(300):
        p = random_bpi(rng, nest=nest, width=3)
        universe = sorted({("in", *lab[1:]) for lab, _ in ref.bpi_steps(p) if lab != bp.TAU}
                          | {("in", "a", ()), ("in", "b", ("u",))})
        assert bp.bpi_steps(p, universe) == ref.bpi_steps(p, universe), p
        # the harvest's canonical states step as their trees do
        _, (states, steps, walk) = bp.harvest_bpi_universe(p)
        for state, moves in zip(states, steps):
            got = [(lab, walk.tree(states[i])) for lab, i in moves]
            tree = walk.tree(state)
            outs = [(lab, bp.canon_bpi(q)) for lab, q in ref.par_outs(tree)]
            assert got[:len(outs)] == outs, tree
