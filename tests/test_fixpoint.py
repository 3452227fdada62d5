"""The alphabet fixpoint against the naive loop it replaces: explore from
scratch under each universe, harvest every emitted label, repeat until
the universe stops growing.  The oracle has no round cap, so the
universes must agree label for label, in order."""

import pytest

from abcalc import predicates as pr
from abcalc.bpi import bpi_steps, canon_bpi, harvest_bpi_universe, parse_bpi
from abcalc.lts import abc_walk, auto_universe, merge_labels
from abcalc.predicates import EMPTY_DOMAINS
from abcalc.syntax import parse_abc, pretty_label
from abcalc.systems import network
from abcalc.terms import canonical

import composition_reference as ref
from conftest import chains_abc, random_bpi, random_component


def naive_auto_universe(comp, defs=None, domains=EMPTY_DOMAINS, base=()):
    defs = defs or {}
    universe = base
    while True:
        seen, frontier, fresh = set(), [canonical(comp)], []
        while frontier:
            c = frontier.pop()
            if c in seen:
                continue
            seen.add(c)
            steps = list(ref.system_out_steps(c, defs))
            fresh += [lab.as_input() for lab, _ in steps if not pr.is_ff(lab.pred, domains)]
            for msg in universe:
                steps += [(msg, succ) for succ in ref.system_in_step(c, msg, defs)]
            frontier += [canonical(succ) for _, succ in steps]
        grown = merge_labels(universe, sorted(fresh, key=pretty_label), domains)
        if len(grown) == len(universe):
            return grown
        universe = grown


def naive_bpi_universe(p):
    universe = set()
    while True:
        seen, frontier, harvested = set(), [canon_bpi(p)], set(universe)
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for lab, nxt in bpi_steps(cur, universe):
                if lab[0] == "out":
                    harvested.add(("in", lab[1], tuple(lab[2])))
                frontier.append(canon_bpi(nxt))
        if harvested == universe:
            return tuple(sorted(universe))
        universe = harvested


def chain_bpi(depth: int) -> str:
    """The broadcast form of a depth-d chain in ``conftest.chains_abc``."""
    return "".join(f"a{i}!(m).a{i}(x{i})." for i in range(depth)) + f"a{depth}!(m).nil"


def test_auto_universe_matches_naive_loop_on_random_components(rng):
    for _ in range(200):
        c = random_component(rng)
        assert auto_universe(abc_walk(c, {}))[0] == naive_auto_universe(c)


@pytest.mark.parametrize("depths", [(3,), (3, 2), (10,)])
def test_auto_universe_matches_naive_loop_on_chains(depths):
    model = parse_abc(chains_abc(depths))
    u, _ = auto_universe(abc_walk(model.component, {}))
    assert u == naive_auto_universe(model.component)
    assert len(u) == sum(d + 1 for d in depths)


def test_auto_universe_matches_naive_loop_on_network():
    net = network()
    for key in ("N", "T", "N_closed", "N_CP2", "T_CP2"):
        got, _ = auto_universe(abc_walk(net[key], net["defs"], net["domains"]),
                               domains=net["domains"])
        want = naive_auto_universe(net[key], net["defs"], net["domains"])
        assert got == want


def test_harvest_matches_naive_loop_on_random_terms(rng):
    for _ in range(100):
        p = random_bpi(rng)
        assert harvest_bpi_universe(p)[0] == naive_bpi_universe(p)


def test_harvest_matches_naive_loop_on_deep_chain():
    p = parse_bpi(chain_bpi(8))
    u, _ = harvest_bpi_universe(p)
    assert u == naive_bpi_universe(p) and len(u) == 9

