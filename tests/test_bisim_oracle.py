"""Bisimilarity against the engine it replaced: two edge builders (the
strong one keeps every transition, the weak one saturates with its own
silent closure, lists the saturated moves and then drops repeated
``(class, target)`` pairs), a refinement
that keeps a copy of the whole block map per round and stops when a
round leaves the map as it was, and a recursive witness extractor.  The
universe handling and the label classes are the engine's own, so the
two must agree on the whole verdict: equivalence, universe and witness."""

import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from abcalc import equivalence as eq
from abcalc.equivalence import Verdict, strong_bisim, weak_bisim
from abcalc.lts import (
    BoundExceeded,
    DEFAULT_BOUNDS,
    ExploreBounds,
    Walk,
    abc_walk,
    alphabet_fixpoint,
    auto_universe,
    explore,
    merge_labels,
    unstepped,
)
from abcalc import semantics as sem
from abcalc.cli import main
from abcalc.predicates import EMPTY_DOMAINS, FF, DomainContext, Not, is_ff
from abcalc.syntax import parse_abc, pretty_label, pretty_pred
from abcalc.systems import network
from abcalc.terms import AttrEnv, Aware, Choice, Const, DomainViolation, In, Leaf, Out, ParP, Upd

from conftest import (
    emitters_abc,
    random_component,
    random_guard,
    random_process,
    random_recv_guard,
    tau_leaves_abc,
)

_TAU = eq._TAU

# ---------------------------------------------------------------------------
# The replaced engine


def old_strong_edges(lts, offset, class_of):
    edges = {offset + i: [] for i in range(len(lts.states))}
    for src, lab, dst in lts.transitions:
        edges[offset + src].append((class_of[lab], offset + dst, lab))
    return edges


def weak_closure(lts, domains):
    """For each state, the set of states reachable by zero or more
    silent moves: outputs that no total valuation within ``domains``
    satisfies."""
    tau_next = {i: set() for i in range(len(lts.states))}
    for src, lab, dst in lts.transitions:
        if lab.kind == sem.OUT and is_ff(lab.pred, domains):
            tau_next[src].add(dst)
    closure = []
    for start in range(len(lts.states)):
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in tau_next[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure.append(frozenset(seen))
    return tuple(closure)


def inverse_closure(closure) -> list:
    """For each state, in increasing order, the states whose weak closure
    holds it: its predecessors by zero or more silent moves."""
    pre = [[] for _ in closure]
    for s, reach_s in enumerate(closure):
        for t in reach_s:
            pre[t].append(s)
    return pre


def old_weak_edges(lts, offset, class_of, domains):
    closure = weak_closure(lts, domains)
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


def old_explore(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
                bounds=DEFAULT_BOUNDS):
    """The universe and the two systems explored under it, or an
    inconclusive verdict if a bound is hit."""
    defs = defs or {}
    k1 = k2 = None
    try:
        if universe is None:
            (u1, k1), (u2, k2) = (auto_universe(abc_walk(c, defs, domains), bounds, domains)
                                  for c in (c1, c2))
            universe = merge_labels(u1, u2, domains)
            k1, k2 = (k1 if u1 == universe else None), (k2 if u2 == universe else None)
        l1 = explore(k1 or unstepped(abc_walk(c1, defs, domains)), universe, bounds)
        l2 = explore(k2 or unstepped(abc_walk(c2, defs, domains)), universe, bounds)
    except BoundExceeded as exc:
        return Verdict(False, universe or (),
                       inconclusive=True, reason=f"inconclusive under bounds: {exc}")
    return universe, l1, l2


def old_label_classes(ltss, domains):
    labels = [lab for lts in ltss for _, lab, _ in lts.transitions]
    classes = eq._label_classes(labels, domains)
    return {lab: classes[id(lab)] for lab in labels}


def old_bisim(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
              bounds=DEFAULT_BOUNDS, weak=False) -> Verdict:
    explored = old_explore(c1, c2, defs, universe, domains, bounds)
    if isinstance(explored, Verdict):
        return explored
    universe, l1, l2 = explored
    class_of = old_label_classes((l1, l2), domains)

    n1 = len(l1.states)
    build = partial(old_weak_edges, domains=domains) if weak else old_strong_edges
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
        "label": "tau" if cls == _TAU else pretty_label(lab),
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
    """The engine's verdict, checked against the old engine's.  A weak
    positive verdict that the branching pass reaches is also certified;
    the key ``branching`` says whether it was."""
    check, weak = CHECKS[mode]
    got = check(c1, c2, defs, universe, domains).as_dict()
    assert got == old_bisim(c1, c2, defs, universe, domains, weak=weak).as_dict()
    branching = weak and got["equivalent"] and certified(c1, c2, defs, universe, domains)
    return {**got, "branching": branching}


# ---------------------------------------------------------------------------
# Certificates for positive weak verdicts


def certified(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
              bounds=DEFAULT_BOUNDS) -> bool:
    """Whether the branching pass relates the two initial states; if it
    does, its blocks are checked to be a weak bisimulation."""
    explored = old_explore(c1, c2, defs, universe, domains, bounds)
    if isinstance(explored, Verdict):
        return False
    _, l1, l2 = explored
    classes = old_label_classes((l1, l2), domains)
    n1 = len(l1.states)
    steps = [[(classes[lab], offset + t) for lab, t in out]
             for offset, lts in ((0, l1), (n1, l2)) for out in lts.steps]
    blocks = eq._branching_blocks(steps)
    if blocks[0] != blocks[n1]:
        return False
    assert_weak_bisimulation((l1, l2), classes, blocks)
    return True


def assert_weak_bisimulation(ltss, class_of, blocks):
    """Every step ``s -c-> s'`` of every state is answered by each state
    ``t`` of its block with ``t =c=> t'`` into the block of ``s'``: silent
    steps before and after ``c``, and for a silent ``c`` zero or more
    silent steps in all.  The silent closures are found by a plain search
    from each state, apart from the engine's."""
    succ = []
    for lts in ltss:
        offset = len(succ)
        succ += [[] for _ in lts.states]
        for src, lab, dst in lts.transitions:
            succ[offset + src].append((class_of[lab], offset + dst))
    closure = [reachable(s, lambda u: [w for cls, w in succ[u] if cls == _TAU])
               for s in range(len(succ))]
    after = [{blocks[u] for u in reach} for reach in closure]  # blocks a state drifts into
    answers = {}
    for t, reach in enumerate(closure):
        weak = {(_TAU, b) for b in after[t]}
        weak |= {(cls, b) for u in reach for cls, w in succ[u] if cls != _TAU for b in after[w]}
        answers[blocks[t]] = answers.get(blocks[t], weak) & weak
    for s, moves in enumerate(succ):
        for cls, w in moves:
            assert (cls, blocks[w]) in answers[blocks[s]], (
                f"state {s} moves by {cls} into block {blocks[w]}; its block cannot answer")


def silent_prefix_abc(k: int, run: str, env: str = "") -> str:
    """One component that takes k silent steps, then runs ``run``."""
    return f"comp C {{ iface: []; env: {{{env}}}; run: {'()@ff.' * k}{run} }}\n"


# an inert silent step hides the visible outputs behind it: a leaf that
# stood for its block by the smallest id would lose them
HIDDEN = ("(3, 1)@ff.(1, 3)@(d != 3).()@(e == 1).0", "d = 2, e = 1")


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
        (u1, _), (u2, _) = auto_universe(abc_walk(c1, {})), auto_universe(abc_walk(c2, {}))
        for universe in (None, merge_labels(u1, u2)):
            witnesses += agree(mode, c1, c2, universe=universe)["witness"] is not None
    assert witnesses >= 100  # the comparison covers witnesses, not verdicts alone


@pytest.mark.parametrize("mode", sorted(CHECKS))
@pytest.mark.parametrize("pair", [("N_closed", "T"), ("N_CP2", "T_CP2")])
def test_network_pairs_match_old_engine(mode, pair):
    net = network()
    agree(mode, net[pair[0]], net[pair[1]], net["defs"], domains=net["domains"])


@pytest.mark.parametrize("mode", sorted(CHECKS))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_family_pairs_match_old_engine(mode, k):
    models = {
        "emitters": parse_abc(emitters_abc(k)),
        "fewer emitters": parse_abc(emitters_abc(k - 1)) if k > 1 else None,
        "tau leaves": parse_abc(tau_leaves_abc(k)),
        "plain leaves": parse_abc(tau_leaves_abc(k, plain=True)),
        "tau input": parse_abc(silent_prefix_abc(k, '(tt)(x).("a")@tt.0')),
        "input": parse_abc(silent_prefix_abc(0, '(tt)(x).("a")@tt.0')),
        "tau hidden": parse_abc(silent_prefix_abc(k - 1, *HIDDEN)),
        "nil": parse_abc(silent_prefix_abc(0, "0", HIDDEN[1])),
    }
    pairs = [("emitters", "emitters"), ("emitters", "fewer emitters"),
             ("tau leaves", "plain leaves"), ("plain leaves", "tau leaves"),
             ("tau leaves", "emitters"), ("tau input", "input"), ("input", "tau input"),
             ("tau hidden", "nil"), ("tau leaves", "tau input")]
    for a, b in pairs:
        if models[b] is None:
            continue
        m1, m2 = models[a], models[b]
        agree(mode, m1.component, m2.component, {**m1.defs, **m2.defs},
              domains=DomainContext.of({**dict(m2.domains.items), **dict(m1.domains.items)}))


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_witness_goes_on_with_the_earliest_split_answer(mode):
    """B answers A's move into a.a.b in two ways: 0 is told apart from it
    in round 1 and a.a.c in round 3.  The witness goes on with 0, so it
    has two steps, not four."""
    a, b = (parse_abc(f'comp C {{ iface: []; env: {{}}; run: ("a")@tt.0 + '
                      f'("a")@tt.("a")@tt.("a")@tt.("{end}")@tt.0 }}\n').component
            for end in "bc")
    assert len(agree(mode, a, b)["witness"]) == 2


def reachable(start, successors) -> set:
    """The nodes reachable from ``start`` by zero or more edges."""
    seen, todo = {start}, [start]
    while todo:
        for nxt in successors(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


# ---------------------------------------------------------------------------
# The branching pass: cases it decides, and cases it leaves to saturation


def one_component(run: str, defs: str = "", iface: str = "", env: str = ""):
    """A system of one component running ``run``, and its definitions."""
    m = parse_abc(f"{defs}comp C {{ iface: [{iface}]; env: {{{env}}}; run: {run} }}\n"
                  "system: C;\n")
    return m.component, m.defs


def silent_chain(n: int):
    """n silent steps that count k up, then "b"."""
    return one_component("A", f'def A = <(this.k < {n})> ()@ff.[k := this.k + 1] A + '
                              f'<(this.k == {n})> ("b")@tt.0;\n', env="k = 0")


@pytest.fixture
def saturations(monkeypatch):
    """A list with one entry per call of ``equivalence._moves``."""
    calls = []
    moves = eq._moves
    monkeypatch.setattr(eq, "_moves", lambda *args: calls.append(1) or moves(*args))
    return calls


def agree_both(left, right) -> dict:
    """The weak verdict, after both modes agree with the old engine."""
    (c1, d1), (c2, d2) = left, right
    agree("strong", c1, c2, {**d1, **d2})
    return agree("weak", c1, c2, {**d1, **d2})


def test_weak_but_not_branching_bisimilar_pair_is_saturated(saturations):
    """a.(b + τ.c) + a.c and a.(b + τ.c) (van Glabbeek & Weijland): the
    first a-move of the left side can be answered only by the right side's
    a-move followed by τ, so the branching pass keeps them apart and the
    saturated refinement decides."""
    inner = '(("b")@tt.0 + ()@ff.("c")@tt.0)'
    got = agree_both(one_component(f'("a")@tt.{inner} + ("a")@tt.("c")@tt.0'),
                     one_component(f'("a")@tt.{inner}'))
    assert got["equivalent"] and not got["branching"]
    assert len(saturations) == 4  # two per mode


@pytest.mark.parametrize("left, right", [
    # a silent cycle with an exit
    (('A', 'def A = ()@ff.B + ("a")@tt.0;\ndef B = ()@ff.A;\n'), ('("a")@tt.0', "")),
    # a silent loop with no exit
    (("A", "def A = ()@ff.A;\n"), ("0", "")),
])
def test_silent_cycles_are_collapsed(saturations, left, right):
    got = agree_both(one_component(*left), one_component(*right))
    assert got["equivalent"] and got["branching"]
    assert len(saturations) == 2  # the strong check only


def test_long_silent_chain_needs_no_saturation(saturations):
    """1,500 silent steps, then "b", against "b": decided by the branching
    pass, by loops under the default recursion limit.  The old engine
    would saturate 1.1 M pairs, so the certificate is the oracle here."""
    (c1, defs), (c2, _) = silent_chain(1500), one_component('("b")@tt.0')
    bounds = ExploreBounds(max_depth=5000)
    assert sys.getrecursionlimit() < 1500
    got = eq.weak_bisim(c1, c2, defs, bounds=bounds).as_dict()
    assert got["equivalent"] and not saturations
    assert certified(c1, c2, defs, bounds=bounds)


def test_tau_leaves_need_no_saturation(saturations):
    m1, m2 = parse_abc(tau_leaves_abc(3)), parse_abc(tau_leaves_abc(3, plain=True))
    got = agree("weak", m1.component, m2.component, {**m1.defs, **m2.defs})
    assert got["equivalent"] and got["branching"] and not saturations


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tau_leaves_are_decided_on_quotient_products(outs_calls, saturations, k):
    """Each silent leaf gives way to its plain form, so each side's closure
    steps the 2^k states of the plain product, not the 4^k of its own."""
    m1, m2 = parse_abc(tau_leaves_abc(k)), parse_abc(tau_leaves_abc(k, plain=True))
    assert weak_bisim(m1.component, m2.component, {**m1.defs, **m2.defs}).equivalent
    assert len(outs_calls) == 2 * 2 ** k and not saturations


@pytest.fixture
def outs_calls(monkeypatch):
    """A list that gets one entry per call of ``Walk.outs``: the walk and
    the state."""
    calls, outs = [], Walk.outs
    monkeypatch.setattr(Walk, "outs", lambda walk, state: calls.append((walk, state))
                        or outs(walk, state))
    return calls


@pytest.fixture
def leaf_closures(monkeypatch):
    """A list with one entry per call of ``lts.leaf_closure`` from
    ``equivalence``: what it returned, or the error it raised."""
    calls, closure = [], eq.leaf_closure

    def spy(*args):
        try:
            calls.append(closure(*args))
        except Exception as exc:
            calls.append(exc)
            raise
        return calls[-1]

    monkeypatch.setattr(eq, "leaf_closure", spy)
    return calls


SENDER = 'comp S { iface: []; env: {}; run: ("a")@tt.("b")@tt.0 }\n'
LATE = ('domain k in {0, 1};\n' + SENDER
        + 'comp R { iface: []; env: {k = 0}; '
        + 'run: ()@ff.(x == "b")(x).(y == "a")(y).[k := 5]0 }\n'
        + "system: S || R;\n")


def test_no_leaf_closure_without_a_silent_output(leaf_closures):
    """No leaf that the initial ones reach by their outputs moves silently,
    so no leaf has an inert silent step to drop: emitters are decided on
    the systems themselves, and so are models whose leaf closure would
    meet a domain error, count without end or nest deeper without end."""
    counter = ('def R = (x == "a")(x).[k := this.k + 1] R;\n'
               'comp C { iface: []; env: {k = 0}; run: R }\n')
    once = 'comp S { iface: []; env: {}; run: ("a")@tt.0 }\n'
    for left, right in [(emitters_abc(3), emitters_abc(3)),
                        (counter + once + "system: C || S;\n", once + "system: S;\n"),
                        (LATE.replace("()@ff.", ""), SENDER + "system: S;\n"),
                        ('def G = (y == "a")(y).(G | 0);\n' + SENDER
                         + 'comp R { iface: []; env: {}; run: (x == "b")(x).G }\n'
                         + "system: S || R;\n", SENDER + "system: S;\n")]:
        m1, m2 = parse_abc(left), parse_abc(right)
        agree("weak", m1.component, m2.component, {**m1.defs, **m2.defs}, (), m1.domains)
    assert not leaf_closures


def test_a_model_error_on_an_undelivered_message_keeps_the_leaves(leaf_closures):
    """R leaves its declared domain after "b" and then "a".  The product
    sends "a" before "b", so under no universe it never gets there, but
    the leaf closure does: the check goes on unreduced and says what the
    old engine says."""
    m1, m2 = parse_abc(LATE), parse_abc(SENDER + "system: S;\n")
    assert agree("weak", m1.component, m2.component, universe=(),
                  domains=m1.domains)["equivalent"]
    assert len(leaf_closures) == 1 and isinstance(leaf_closures[0], DomainViolation)
    # under the closed universe the product receives "b" and then "a" too
    errors = []
    for check in (lambda: weak_bisim(m1.component, m2.component, domains=m1.domains),
                  lambda: old_bisim(m1.component, m2.component, domains=m1.domains, weak=True)):
        with pytest.raises(DomainViolation) as error:
            check()
        errors.append((str(error.value), error.value.leaf))
    assert errors[0] == errors[1]


@pytest.fixture
def answers(monkeypatch):
    """A list that gets the message of each answer that a leaf works out."""
    calls, step = [], sem.component_in_step
    monkeypatch.setattr(sem, "component_in_step",
                        lambda leaf, msg, *a: calls.append(msg) or step(leaf, msg, *a))
    return calls


def test_a_growing_leaf_ends_the_leaf_closure_within_its_budget(leaf_closures, answers):
    """After a silent step and "b", G nests one level deeper with each "a"
    it hears.  The product sends "a" before "b", but the leaf closure
    delivers both: it stops after its budget of answers for the three
    positions, far from the recursion limit, and the check goes on
    unreduced."""
    m1 = parse_abc('def G = (y == "a")(y).(G | 0);\n' + SENDER
                   + 'comp R { iface: []; env: {}; run: ()@ff.(x == "b")(x).G }\n'
                   + "system: S || R;\n")
    m2 = parse_abc(SENDER + "system: S;\n")
    assert weak_bisim(m1.component, m2.component, m1.defs, ()).equivalent
    assert leaf_closures == [None]
    assert len(answers) <= 3 * eq._ANSWERS_PER_POSITION + 10


@pytest.mark.parametrize("bounds", [DEFAULT_BOUNDS, ExploreBounds(max_depth=10)])
def test_an_unbounded_leaf_closure_ends_early(leaf_closures, answers, bounds):
    """The counter's leaves count without end under "a", but the product
    delivers it once: the leaf closure stops after its budget of answers,
    or as soon as a walk holds more than ``max_depth + 1`` leaves and one
    for the other position, and the check goes on unreduced."""
    m1 = parse_abc('def R = (x == "a")(x).[k := this.k + 1] R;\n'
                   'comp C { iface: []; env: {k = 0}; run: R }\n'
                   'comp S { iface: []; env: {}; run: ()@ff.("a")@tt.0 }\nsystem: C || S;\n')
    m2 = parse_abc('comp S { iface: []; env: {}; run: ("a")@tt.0 }\nsystem: S;\n')
    assert weak_bisim(m1.component, m2.component, m1.defs, (), bounds=bounds).equivalent
    assert leaf_closures == [None]
    cap = min(3 * eq._ANSWERS_PER_POSITION, 2 * (bounds.max_depth + 3))
    assert len(answers) <= cap + 10


def test_a_deep_silent_chain_under_a_fixed_universe_walks_as_before(outs_calls):
    """A counter that steps silently without end, against 0, under no
    universe: the check is inconclusive at the depth bound.  The decision
    path stops its walk at that depth and ``explore`` numbers what it found,
    so the states are stepped no more often than by the old engine, which
    walked the counter once (and 0 not at all)."""
    m1 = parse_abc('def T = ()@ff.[k := this.k + 1] T;\n'
                   'comp C { iface: []; env: {k = 0}; run: T }\n')
    m2 = parse_abc("comp Z { iface: []; env: {}; run: 0 }\n")
    got = weak_bisim(m1.component, m2.component, m1.defs, ()).as_dict()
    new = len(outs_calls)
    outs_calls.clear()
    assert got == old_bisim(m1.component, m2.component, m1.defs, (), weak=True).as_dict()
    assert got["inconclusive"] and "depth bound" in got["reason"]
    assert new <= len(outs_calls) + 1


@pytest.mark.parametrize("mode", sorted(CHECKS))
@pytest.mark.parametrize("bounds", [ExploreBounds(5, 1000), ExploreBounds(100, 3)])
def test_a_bound_in_an_extended_closure_keeps_its_message(outs_calls, mode, bounds):
    """The counter's own universe is empty; the sender's "a" extends it,
    and the extended closure runs into a bound.  The message is the one a
    breadth-first walk of the counter gives, as before.  The extension
    keeps a state more than ``max_depth`` steps past the closure it extends
    unstepped, and numbering steps only the states it left, so the counter
    is stepped no more often than by the old engine."""
    m1 = parse_abc('comp S { iface: []; env: {}; run: ("a")@tt.0 }\n')
    m2 = parse_abc('def R = (x == "a")(x).[k := this.k + 1] R;\n'
                   'comp C { iface: []; env: {k = 0}; run: R }\n')
    check, weak = CHECKS[mode]
    got = check(m1.component, m2.component, m2.defs, bounds=bounds).as_dict()
    new = len(outs_calls)
    outs_calls.clear()
    assert got["inconclusive"]
    assert got == old_bisim(m1.component, m2.component, m2.defs, bounds=bounds,
                            weak=weak).as_dict()
    assert new <= len(outs_calls)


# an extension whose new label "x" each of the four states of B's own
# closure takes: the state bound stops it before it has reached them all
LATE_LABEL = (parse_abc('comp S { iface: []; env: {}; run: ("x")@tt.0 }\n'),
              parse_abc('comp R { iface: []; env: {}; run: (y == "x")(y).0 }\n'
                        'comp B { iface: []; env: {}; run: ("b")@tt.("b")@tt.("b")@tt.0 }\n'
                        "system: R || B;\n"))


def test_an_extension_cut_short_leaves_whole_steps():
    """The held states that had not yet taken the new label read as
    unstepped, like the one whose stepping the bound interrupted; every
    other state holds all its steps under the merged universe."""
    (u1, _), (u2, closure) = (auto_universe(abc_walk(m.component, {})) for m in LATE_LABEL)
    universe = merge_labels(u1, u2)
    assert len(closure[0]) == 4 and len(universe) == 2
    with pytest.raises(BoundExceeded):
        alphabet_fixpoint(closure, lambda have, outputs: have, universe, 6, u2)
    states, steps, walk = closure
    assert steps[2:4] == [None, None] and steps[0] is not None
    for state, out in zip(states, steps):
        if out is not None:
            assert sorted((pretty_label(lab), states[t]) for lab, t in out) == \
                sorted((pretty_label(lab), succ) for lab, succ in walk.steps(state, universe))


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_a_bound_while_an_extension_takes_its_new_labels(outs_calls, mode):
    """The merged universe's "x" is taken on B's states when the state
    bound stops the extension: the verdict is the old engine's, and as
    only the states that the extension left are stepped again, the states
    are stepped no more often than by the old engine."""
    (m1, m2), bounds = LATE_LABEL, ExploreBounds(max_states=6)
    check, weak = CHECKS[mode]
    got = check(m1.component, m2.component, bounds=bounds).as_dict()
    new = len(outs_calls)
    outs_calls.clear()
    assert got["inconclusive"] and "state bound 6" in got["reason"]
    assert got == old_bisim(m1.component, m2.component, bounds=bounds, weak=weak).as_dict()
    assert new <= len(outs_calls)


@pytest.fixture
def walks_made(monkeypatch):
    """A list that gets one entry per ``Walk`` built."""
    calls, init = [], Walk.__init__
    monkeypatch.setattr(Walk, "__init__", lambda walk, *args, **kwargs:
                        calls.append(1) or init(walk, *args, **kwargs))
    return calls


FAMILIES = Path(__file__).resolve().parent / "golden" / "families"


@pytest.mark.parametrize("call, walks, outs", [
    ("--weak --universe none --max-states 50 tau-k3 plain-k3", 2, 43),
    ("--weak --universe none --max-states 200 tau-k4 plain-k4", 2, 166),
    ("--weak --universe none --max-states 20 emitters-k3 emitters-k3", 2, 14),
    ("--weak --universe none --max-depth 3 tau-k3 plain-k3", 2, 20),
    ("--strong --universe none --max-states 50 tau-k3 plain-k3", 2, 38),
    ("--strong --universe none --max-depth 3 tau-k3 plain-k3", 2, 11),
    ("--weak --universe none overflow once", 2, 3),
    ("--weak --universe none --max-states 3 overflow once", 2, 3),
])
def test_one_walk_per_side(walks_made, outs_calls, capsys, call, walks, outs):
    """A closure that a bound or a model error stops is kept where it
    stopped, and numbering it steps only the states it left: one ``Walk``
    per side, each state stepped once but the one whose stepping was
    interrupted, and the second side not closed at all, since numbering
    the first raises.  Under the fixed universe a strong check numbers the
    unstepped sides, as the old engine walked them."""
    *options, left, right = call.split()
    assert main(["check-bisim", *options, str(FAMILIES / f"{left}.abc"),
                 str(FAMILIES / f"{right}.abc")]) == 2
    assert len(walks_made) <= walks and len(outs_calls) <= outs
    again = [key for key, n in Counter(outs_calls).items() if n > 1]
    assert len(again) == len(outs_calls) - len(set(outs_calls))  # none stepped thrice
    assert len(again) == len({id(walk) for walk, _ in again})


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_a_label_the_merge_drops_is_closed_again(mode):
    """The two sides emit equivalent labels with different guards, and the
    merged universe keeps the first side's: the second side's own closure
    holds a label the merge dropped, so it is closed again under the merged
    universe, on the quotient product as on the system."""
    guarded = ('domain role in {{"a", "b"}};\n'
               'comp G {{ iface: [role]; env: {{role = "a"}}; run: {run} }}\n')
    m1 = parse_abc(guarded.format(run='()@ff.("x")@(role == "b").0'))
    m2 = parse_abc(guarded.format(run='("x")@(!(role != "b")).0'))
    got = agree(mode, m1.component, m2.component, domains=m1.domains)
    assert got["equivalent"] == (mode == "weak") and got["universe_size"] == 1


def test_a_block_of_silent_cycles_keeps_the_leaves(monkeypatch):
    """Both sides hold a leaf that loops silently before it sends "b", and
    no leaf without that loop is in its block to stand for it: the check
    is decided unreduced, although the silent prefix could have gone."""
    maps, stand_ins = [], eq._stand_ins
    monkeypatch.setattr(eq, "_stand_ins", lambda *a: maps.append(stand_ins(*a)) or maps[-1])
    loop = 'def A = ()@ff.A + ("b")@tt.0;\ncomp L { iface: []; env: {}; run: A }\n'
    m1 = parse_abc(loop + 'comp S { iface: []; env: {}; run: ()@ff.("a")@tt.0 }\n'
                   "system: L || S;\n")
    m2 = parse_abc(loop + 'comp S { iface: []; env: {}; run: ("a")@tt.0 }\nsystem: L || S;\n')
    assert agree("weak", m1.component, m2.component, m1.defs)["equivalent"]
    assert maps == [None]


@pytest.mark.parametrize("pair", [("N_closed", "T"), ("N_CP2", "T_CP2")])
def test_restricted_skeletons_decide_unreduced(leaf_closures, pair):
    net = network()
    agree("weak", net[pair[0]], net[pair[1]], net["defs"], domains=net["domains"])
    assert not leaf_closures


# S's guard holds for no total valuation, so its output is silent.  R's
# environment lacks ``a``, where an atom is false and its negation true, so
# R would take the output if it were delivered.
QUIET = 'comp S { iface: []; env: {}; run: ()@(!(a == 1) && !(a != 1)).0 }\n'
HEARER = 'comp R { iface: []; env: {}; run: (tt)().("got")@tt.0 }\n'


def test_a_silent_output_reaches_no_leaf(tmp_path, capsys, answers):
    """No leaf is asked for a silent output: ``S || R`` takes one silent
    step and R never gets to "got".  So the weak check relates ``S || R``
    to R, as it relates S to 0, and the strong one tells both pairs apart
    by the silent step, which its witness names ``tau`` as ``explore``
    does, whatever unsatisfiable guard the output carries."""
    models = [parse_abc(text) for text in (QUIET + HEARER + "system: S || R;\n",
                                           HEARER + "system: R;\n", QUIET + "system: S;\n",
                                           "comp Z { iface: []; env: {}; run: 0 }\nsystem: Z;\n")]
    for left, right in (models[:2], models[2:]):
        assert agree("weak", left.component, right.component)["equivalent"]
        got = agree("strong", left.component, right.component)
        assert not got["equivalent"]
        assert got["witness"] == [{"label": "tau", "from": "A"}]
    path = tmp_path / "sr.abc"
    path.write_text(QUIET + HEARER + "system: S || R;\n")
    assert main(["explore", str(path)]) == 0
    assert capsys.readouterr().out == 'des (0,1,2)\n(0,"tau",1)\n'
    assert not any(pretty_pred(msg.pred) == "!(a == 1) && !(a != 1)" for msg in answers)
    zero = tmp_path / "zero.abc"
    zero.write_text("comp Z { iface: []; env: {}; run: 0 }\n")
    for run in ("()@(!(a == 1) && !(a != 1)).0", "()@ff.0"):
        path.write_text(f"comp S {{ iface: []; env: {{}}; run: {run} }}\n")
        assert main(["check-bisim", "--strong", str(path), str(zero)]) == 1
        assert capsys.readouterr().out.splitlines()[-2:] == ["witness:", "  [A] tau"]


@pytest.mark.xfail(strict=True, reason="the solver takes total valuations, while a hearer "
                   "sees its environment restricted to its interface (CHANGES.md FOUND)")
def test_equivalent_outputs_stay_equivalent_beside_a_hearer():
    """A's guard ``a != 1`` and B's ``!(a == 1)`` are equivalent over total
    valuations, so A and B are equivalent in both modes.  R lacks ``a``:
    there the atom is false and its negation true, so R hears B's output
    and not A's, and ``A || R`` is told apart from ``B || R``."""
    hearer = 'comp R { iface: []; env: {}; run: (tt)(y).("got")@tt.0 }\n'
    sides = ['comp A { iface: []; env: {}; run: ("x")@(a != 1).0 }\n',
             'comp A { iface: []; env: {}; run: ("x")@(!(a == 1)).0 }\n']
    for check, _ in CHECKS.values():
        assert check(*(parse_abc(side + "system: A;\n").component for side in sides)).equivalent
        assert check(*(parse_abc(side + hearer + "system: A || R;\n").component
                       for side in sides)).equivalent


def test_components_against_reachability(rng):
    """Tarjan's components, found by a loop, are the classes of mutual
    reachability, numbered so that no edge leads to a higher number."""
    for _ in range(300):
        n = rng.randint(1, 10)
        succ = [rng.sample(range(n), rng.randint(0, min(3, n))) for _ in range(n)]
        comp = eq._components(succ)
        reach = [reachable(s, succ.__getitem__) for s in range(n)]
        assert all((comp[s] == comp[t]) == (t in reach[s] and s in reach[t])
                   for s in range(n) for t in range(n))
        assert all(comp[t] <= comp[s] for s in range(n) for t in succ[s])
        assert set(comp) == set(range(max(comp) + 1))


def padded(rng, p, branch: float):
    """``p`` with silent prefixes ``()@ff.`` put in at random points.  One
    put in after an action prefix (``a.P`` becomes ``a.()@ff.P``, behind
    the updates the prefix carries) keeps branching bisimilarity, unless P
    has an input the silent prefix would discard instead.  With
    probability ``branch``, one is put in front of a branch of a choice,
    which usually breaks weak bisimilarity."""
    if isinstance(p, (Out, In)):
        cont = padded(rng, p.cont, branch)
        if rng.random() < 0.5:
            cont = (Upd(cont.assigns, Out((), FF, cont.cont)) if isinstance(cont, Upd)
                    else Out((), FF, cont))
        return Out(p.exprs, p.pred, cont) if isinstance(p, Out) else In(p.pred, p.vars, cont)
    if isinstance(p, (Choice, ParP)):
        left, right = padded(rng, p.left, branch), padded(rng, p.right, branch)
        if isinstance(p, Choice) and rng.random() < branch:
            left = Out((), FF, left)
        return type(p)(left, right)
    if isinstance(p, Aware):
        return Aware(p.pred, padded(rng, p.proc, branch))
    if isinstance(p, Upd):
        return Upd(p.assigns, padded(rng, p.cont, branch))
    return p


def padded_pair(rng):
    """A random process and a padded copy, in leaves with the same
    attributes; in half of the pairs every choice gets a padded branch."""
    p = random_process(rng, 4)
    env = AttrEnv.of({"d": rng.randint(1, 3), "e": rng.randint(1, 3)})
    iface = frozenset(rng.sample(["d", "e"], rng.randint(0, 2)))
    return Leaf(env, iface, p), Leaf(env, iface, padded(rng, p, rng.choice((0.0, 1.0))))


@pytest.mark.parametrize("mode", sorted(CHECKS))
def test_padded_pairs_match_old_engine(rng, mode):
    """In weak mode the branching pass decides the pairs where silent steps
    have to be absorbed, and the padded choices leave some to saturation."""
    absorbed = broken = 0
    for _ in range(300):
        left, right = padded_pair(rng)
        got = agree(mode, left, right)
        absorbed += got["branching"] and left != right
        broken += not got["equivalent"]
    if mode == "weak":
        assert absorbed >= 50 and broken >= 5
