"""Bisimilarity against the engine it replaced: two edge builders (the
strong one keeps every transition, the weak one saturates with its own
silent closure, lists the saturated moves and then drops repeated
``(class, target)`` pairs), a refinement
that keeps a copy of the whole block map per round and stops when a
round leaves the map as it was, and a recursive witness extractor.  The
universe handling and the label classes are the engine's own, so the
two must agree on the whole verdict: equivalence, universe and witness."""

import sys

import pytest

from abcalc import equivalence as eq
from abcalc.equivalence import Verdict, strong_bisim, weak_bisim
from abcalc.lts import (
    BoundExceeded,
    DEFAULT_BOUNDS,
    ExploreBounds,
    auto_universe,
    explore,
    merge_labels,
)
from abcalc import semantics as sem
from abcalc.predicates import EMPTY_DOMAINS, FF, DomainContext, Not, is_ff
from abcalc.syntax import parse_abc, pretty_label
from abcalc.systems import network
from abcalc.terms import AttrEnv, Aware, Choice, Const, In, Leaf, Out, ParP, Upd

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


def weak_closure(lts):
    """For each state, the set of states reachable by zero or more
    silent moves."""
    tau_next = {i: set() for i in range(len(lts.states))}
    for src, lab, dst in lts.transitions:
        if lab.kind == sem.OUT and is_ff(lab.pred, lts.domains):
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


def old_explore(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
                bounds=DEFAULT_BOUNDS):
    """The universe and the two systems explored under it, or an
    inconclusive verdict if a bound is hit."""
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
    return universe, l1, l2


def old_label_classes(ltss, domains):
    labels = []
    for lts in ltss:
        for _, lab, _ in lts.transitions:
            if lab not in labels:
                labels.append(lab)
    return eq._label_classes(labels, domains)


def old_bisim(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
              bounds=DEFAULT_BOUNDS, weak=False) -> Verdict:
    explored = old_explore(c1, c2, defs, universe, domains, bounds)
    if isinstance(explored, Verdict):
        return explored
    universe, l1, l2 = explored
    class_of = old_label_classes((l1, l2), domains)

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
    class_of = {id(lab): classes[lab] for lts in (l1, l2) for _, lab, _ in lts.transitions}
    blocks = eq._branching_blocks((l1, l2), class_of)
    n1 = len(l1.states)
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
