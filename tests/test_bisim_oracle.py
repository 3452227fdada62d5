"""Bisimilarity against the engine it replaced: two edge builders (the
strong one keeps every transition, the weak one lists the saturated
moves and then drops repeated ``(class, target)`` pairs), a refinement
that keeps a copy of the whole block map per round and stops when a
round leaves the map as it was, and a recursive witness extractor.  The
universe handling and the label classes are the engine's own, so the
two must agree on the whole verdict: equivalence, universe and witness."""

import pytest

from abcalc import equivalence as eq
from abcalc.equivalence import Verdict, strong_bisim, weak_bisim
from abcalc.lts import (
    BoundExceeded,
    DEFAULT_BOUNDS,
    auto_universe,
    explore,
    inverse_closure,
    merge_labels,
    weak_closure,
)
from abcalc.predicates import EMPTY_DOMAINS, Not
from abcalc.syntax import parse_abc, pretty_label
from abcalc.systems import network
from abcalc.terms import AttrEnv, Choice, Const, In, Leaf, Out

from conftest import (
    emitters_abc,
    random_component,
    random_guard,
    random_process,
    random_recv_guard,
)

_TAU = "tau"

# ---------------------------------------------------------------------------
# The replaced engine


def old_strong_edges(lts, offset, class_of):
    edges = {offset + i: [] for i in range(len(lts.states))}
    for src, lab, dst in lts.transitions:
        edges[offset + src].append((class_of[lab], offset + dst, lab))
    return edges


def old_weak_edges(lts, offset, class_of):
    closure = weak_closure(lts)
    pre = inverse_closure(closure)
    edges = {offset + i: [] for i in range(len(lts.states))}
    for s in range(len(lts.states)):
        for t in closure[s]:
            edges[offset + s].append((_TAU, offset + t, None))
    for src, lab, dst in lts.transitions:
        cls = class_of[lab]
        if cls == _TAU:
            continue
        for s in pre[src]:
            for t in closure[dst]:
                edges[offset + s].append((cls, offset + t, lab))
    for s in edges:
        edges[s] = old_dedupe(edges[s])
    return edges


def old_dedupe(pairs):
    seen = set()
    out = []
    for cls, tgt, lab in pairs:
        if (cls, tgt) not in seen:
            seen.add((cls, tgt))
            out.append((cls, tgt, lab))
    return out


def old_bisim(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
              bounds=DEFAULT_BOUNDS, weak=False) -> Verdict:
    defs = defs or {}
    k1 = k2 = None
    try:
        if universe is None:
            (u1, k1), (u2, k2) = (auto_universe(c, defs, bounds, domains) for c in (c1, c2))
            universe = merge_labels(u1, u2, domains)
            k1, k2 = (k1 if u1 == universe else None), (k2 if u2 == universe else None)
        l1 = explore(c1, defs, universe, bounds, domains, k1)
        l2 = explore(c2, defs, universe, bounds, domains, k2)
    except BoundExceeded as exc:
        return Verdict(False, universe or (),
                       inconclusive=True, reason=f"inconclusive under bounds: {exc}")

    labels = []
    for lts in (l1, l2):
        for _, lab, _ in lts.transitions:
            if lab not in labels:
                labels.append(lab)
    class_of = eq._label_classes(labels, domains)

    n1 = len(l1.states)
    build = old_weak_edges if weak else old_strong_edges
    edges = build(l1, 0, class_of)
    edges.update(build(l2, n1, class_of))

    states = list(range(n1 + len(l2.states)))
    blocks = {s: 0 for s in states}
    history = [dict(blocks)]
    while True:
        sigs = {
            s: (blocks[s], frozenset((cls, blocks[t]) for cls, t, _ in edges[s]))
            for s in states
        }
        renum = {}
        new = {}
        for s in states:
            if sigs[s] not in renum:
                renum[sigs[s]] = len(renum)
            new[s] = renum[sigs[s]]
        if new == blocks:
            break
        blocks = new
        history.append(dict(blocks))

    if blocks[0] == blocks[n1]:
        return Verdict(True, universe)
    return Verdict(False, universe, witness=old_extract_witness(0, n1, edges, history, n1))


def old_extract_witness(s, t, edges, history, n1):
    div = old_first_divergence(s, t, history)
    prev = history[div - 1]
    sig_s = {(cls, prev[tgt]) for cls, tgt, _ in edges[s]}
    sig_t = {(cls, prev[tgt]) for cls, tgt, _ in edges[t]}
    if sig_s - sig_t:
        cls, blk = sorted(sig_s - sig_t, key=repr)[0]
        mover, responder = s, t
    else:
        cls, blk = sorted(sig_t - sig_s, key=repr)[0]
        mover, responder = t, s
    lab = next(l for c, tgt, l in edges[mover] if c == cls and prev[tgt] == blk)
    nxt = next(tgt for c, tgt, l in edges[mover] if c == cls and prev[tgt] == blk)
    step = {
        "label": "tau" if lab is None else pretty_label(lab),
        "from": "A" if mover < n1 else "B",
    }
    answers = [tgt for c, tgt, _ in edges[responder] if c == cls]
    if not answers:
        return [step]
    best = min(answers, key=lambda a: old_first_divergence(nxt, a, history))
    return [step] + old_extract_witness(nxt, best, edges, history, n1)


def old_first_divergence(s, t, history) -> int:
    for i, part in enumerate(history):
        if part[s] != part[t]:
            return i
    return len(history)


# ---------------------------------------------------------------------------
# Agreement


CHECKS = {"strong": (strong_bisim, False), "weak": (weak_bisim, True)}


def agree(mode, c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS) -> dict:
    check, weak = CHECKS[mode]
    got = check(c1, c2, defs, universe, domains).as_dict()
    assert got == old_bisim(c1, c2, defs, universe, domains, weak=weak).as_dict()
    return got


def tau_leaves_abc(k: int, plain: bool = False) -> str:
    """k leaves doing two silent steps, then emitting their id; ``plain``
    drops the silent steps."""
    run = "(this.id)@tt.0" if plain else "()@ff.()@ff.(this.id)@tt.0"
    lines = [f'comp L{i} {{ iface: []; env: {{id = "l{i}"}}; run: {run} }}' for i in range(k)]
    lines.append("system: " + " || ".join(f"L{i}" for i in range(k)) + ";")
    return "\n".join(lines) + "\n"


def prefixed_pair(rng):
    """Two random processes behind the same random prefixes, in leaves with
    the same attributes, so that a witness walks through the prefixes
    first and a side may answer a move in more than one way.  Some
    prefixes offer one output under two equivalent guards: one move with
    two labels."""
    p1, p2 = random_process(rng), random_process(rng)
    for _ in range(rng.randint(1, 4)):
        shape = rng.random()
        exprs = (Const(rng.randint(1, 3)),)
        guard = random_guard(rng)
        if shape < 0.4:
            p1, p2 = Out(exprs, guard, p1), Out(exprs, guard, p2)
        elif shape < 0.6:
            p1, p2 = (Choice(Out(exprs, guard, p), Out(exprs, Not(Not(guard)), p))
                      for p in (p1, p2))
        elif shape < 0.8:
            guard = random_recv_guard(rng, "x")
            p1, p2 = In(guard, ("x",), p1), In(guard, ("x",), p2)
        else:
            side = random_process(rng, 2)
            p1, p2 = Choice(p1, side), Choice(side, p2)
    env = AttrEnv.of({"d": rng.randint(1, 3), "e": rng.randint(1, 3)})
    iface = frozenset(rng.sample(["d", "e"], rng.randint(0, 2)))
    return Leaf(env, iface, p1), Leaf(env, iface, p2)


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_prefixed_pairs_match_old_engine(rng, mode):
    long_witnesses = 0
    for _ in range(300):
        witness = agree(mode, *prefixed_pair(rng))["witness"]
        long_witnesses += witness is not None and len(witness) > 1
    assert long_witnesses >= 50


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_random_pairs_match_old_engine(rng, mode):
    witnesses = 0
    for _ in range(300):
        c1, c2 = random_component(rng), random_component(rng)
        (u1, _), (u2, _) = auto_universe(c1), auto_universe(c2)
        for universe in (None, merge_labels(u1, u2)):
            witnesses += agree(mode, c1, c2, universe=universe)["witness"] is not None
    assert witnesses >= 100  # the comparison covers witnesses, not verdicts alone


@pytest.mark.parametrize("mode", sorted(CHECKS))
@pytest.mark.parametrize("pair", [("N_closed", "T"), ("N_CP2", "T_CP2")])
def test_network_pairs_match_old_engine(mode, pair):
    net = network()
    agree(mode, net[pair[0]], net[pair[1]], net["defs"], domains=net["domains"])


@pytest.mark.parametrize("mode", sorted(CHECKS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_family_pairs_match_old_engine(mode, k):
    models = {
        "emitters": parse_abc(emitters_abc(k)),
        "fewer emitters": parse_abc(emitters_abc(k - 1)) if k > 1 else None,
        "tau leaves": parse_abc(tau_leaves_abc(k)),
        "plain leaves": parse_abc(tau_leaves_abc(k, plain=True)),
    }
    pairs = [("emitters", "emitters"), ("emitters", "fewer emitters"),
             ("tau leaves", "plain leaves"), ("plain leaves", "tau leaves"),
             ("tau leaves", "emitters")]
    for a, b in pairs:
        if models[b] is None:
            continue
        m1, m2 = models[a], models[b]
        agree(mode, m1.component, m2.component, {**m1.defs, **m2.defs},
              domains=m1.domains.merged(m2.domains))


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_witness_goes_on_with_the_earliest_split_answer(mode):
    """B answers A's move into a.a.b in two ways: 0 is told apart from it
    in round 1 and a.a.c in round 3.  The witness goes on with 0, so it
    has two steps, not four."""
    a, b = (parse_abc(f'comp C {{ iface: []; env: {{}}; run: ("a")@tt.0 + '
                      f'("a")@tt.("a")@tt.("a")@tt.("{end}")@tt.0 }}\n').component
            for end in "bc")
    assert len(agree(mode, a, b)["witness"]) == 2
