"""The one composition loop (``lts.Walk``) against the recursive
composition it replaced (``composition_reference``): the same successor
lists, in the same order, once the id vectors are rebuilt into trees.
Covers restrictOut and restrictIn at random nodes, left-, right- and
mixed-nested ``||``, and broadcast terms nested either way."""

import random

import pytest

from abcalc import bpi as bp
from abcalc.lts import abc_walk
from abcalc.systems import network
from abcalc.terms import ParC, ResIn, ResOut, canonical

import composition_reference as ref
from conftest import PROBE_MESSAGES, random_bpi, random_component


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


def assert_component_steps_match(comp):
    walk = abc_walk(comp, {})
    for state in reachable(walk, walk.outs):
        tree = walk.tree(state)
        assert tree == canonical(tree)
        got = [(lab, walk.tree(succ)) for lab, succ in walk.outs(state)]
        want = [(lab, canonical(succ)) for lab, succ in ref.system_out_steps(tree, {})]
        assert got == want, tree
        for msg in PROBE_MESSAGES + tuple(dict.fromkeys(lab.as_input() for lab, _ in got)):
            got_in = [walk.tree(succ) for succ in walk.ins(state, msg)]
            want_in = [canonical(succ) for succ in ref.system_in_step(tree, msg, {})]
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
