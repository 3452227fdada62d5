"""Barbs, label equivalence, and strong/weak bisimilarity with
counterexample witnesses.

Checking is relative to a finite input universe: both transition systems
are explored under the same universe (by default the union of their
shared-alphabet closures) and bisimilarity is decided by partition
refinement over labels quotiented by label equivalence, all silent
outputs in one class.  The weak variant refines over the saturated
transition relation, built from that class: a visible step may be padded
with silent moves on both sides and a silent step is matched by zero or
more silent moves.

A weak check is decided first by branching bisimilarity, which is finer
and needs no saturation, on closures that are never numbered.
Bisimilarity is preserved by parallel composition, so each leaf may give
way to a branching-bisimilar one first: the closures are those of the
quotient products (``_stand_ins``) when some leaf moves silently and the
leaves close small enough, else those of the systems themselves.  Only
a check that the branching pass leaves negative or undecided numbers the
systems, ``explore(closure, universe, bounds)`` on each side, and
saturates.  A closure that a bound or a model error stops is kept
where it stops and decides nothing: numbering it steps only the states
it left, and meets the bound or the error where a breadth-first walk
would.  Weak barbs are read from the states that ``reach`` numbers on a
walk's unstepped closure, stepping silent outputs only.  A silent output
is one that its walk's ``hear`` says delivers nothing.
"""

from __future__ import annotations

from collections import deque
from contextlib import suppress
from functools import cache
from math import prod

from . import predicates as pr
from . import semantics as sem
from .lts import (
    BoundExceeded,
    DEFAULT_BOUNDS,
    ExploreBounds,
    Lts,
    abc_walk,
    alphabet_fixpoint,
    auto_universe,
    explore,
    fingerprint,
    label_equiv,
    leaf_closure,
    merge_labels,
    reach,
    silent,
    state_text,
    unstepped,
)
from .predicates import DomainContext, EMPTY_DOMAINS
from .syntax import pretty_label
from .terms import ArityMismatch, Component, DomainViolation, Record


# ---------------------------------------------------------------------------
# Barbs


def barbs(
    comp: Component,
    defs=None,
    domains: DomainContext = EMPTY_DOMAINS,
    weak: bool = False,
    bounds: ExploreBounds = DEFAULT_BOUNDS,
):
    """Representatives (one per equivalence class) of the non-silent
    output predicates enabled at the component; the weak variant looks
    at every state reachable by silent moves.  Only those states are
    stepped, each once, so a model with infinitely many states has barbs
    too."""
    walk = abc_walk(comp, defs or {}, domains)
    outs, hear = cache(walk.outs), walk.hear
    text = state_text(walk)
    states, _, _ = closure = unstepped(walk)
    if weak:
        reach(closure, lambda q: [st for st in outs(q) if hear(st[0]) is None], pretty_label,
              text, bounds)
    reps = []
    for state in states:
        for lab, _ in sorted(outs(state), key=lambda st: (pretty_label(st[0]), text(st[1]))):
            if hear(lab) is not None and not any(pr.equiv(lab.pred, have, domains)
                                                 for have in reps):
                reps.append(lab.pred)
    return reps


# ---------------------------------------------------------------------------
# Bisimilarity


class Verdict(Record):
    def __init__(self, equivalent: bool, universe: tuple, witness: list = None,
                 inconclusive: bool = False, reason: str = ""):
        self.equivalent = equivalent
        self.universe = universe  # input labels
        self.witness = witness  # list of {"label": str, "from": "A"|"B"} steps
        self.inconclusive = inconclusive
        self.reason = reason

    def as_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "inconclusive": self.inconclusive,
            "reason": self.reason,
            "universe_fingerprint": fingerprint(self.universe),
            "universe_size": len(self.universe),
            "witness": self.witness,
        }


_TAU = "tau"

# The errors of a model that a step raises, and a leaf nested too deep for
# the recursion limit.  A closure on the decision path that meets one is
# kept where it stops: numbering it meets the error again, if it can
# arise, and says it.
# The leaf closure stops long before the limit (``_ANSWERS_PER_POSITION``)
# unless a model's own leaves start near it.
_MODEL_ERRORS = (DomainViolation, sem.UnboundProcessName, ArityMismatch, RecursionError)

# The answers that the leaf closure may work out per position of the two
# systems: a leaf at the end of a long chain, or one that grows with each
# message, ends the reduction after this many.
_ANSWERS_PER_POSITION = 32


def _label_classes(labels, domains) -> dict:
    """The class of each of ``labels`` by the ``id`` of its object, numbered
    by first occurrence; all silent outputs share one.  An exploration
    keeps one object per label, so classes are looked up comparing no
    fields."""
    reps, class_of = [], {}
    for lab in labels:
        if id(lab) in class_of:
            continue
        if silent(lab, domains):
            class_of[id(lab)] = _TAU
            continue
        for i, rep in enumerate(reps):
            if label_equiv(lab, rep, domains):
                class_of[id(lab)] = i
                break
        else:
            class_of[id(lab)] = len(reps)
            reps.append(lab)
    return class_of


def _moves(lts: Lts, offset: int, class_of, weak: bool):
    """Each state's distinct moves, in first-seen order: a dict from
    ``(class, target)`` to the first label seen for it; ``class_of`` maps
    the ``id`` of each label object to its class.  A weak move pads
    a visible step with silent moves on both sides, and a silent move
    (label ``None``) reaches any state of the tau-closure."""
    steps = lts.steps
    n = len(steps)
    if weak:
        taus = [{dst for lab, dst in out if class_of[id(lab)] == _TAU} for out in steps]
        # the tau-closure, and its inverse; the moves, and so the witnesses,
        # follow the order of these frozensets
        after, before = [frozenset(_reachable(s, taus)) for s in range(n)], [[] for _ in range(n)]
        for s, seen in enumerate(after):
            for t in seen:
                before[t].append(s)
        moves = [dict.fromkeys((_TAU, offset + t) for t in after[s]) for s in range(n)]
    else:
        after = before = [(s,) for s in range(n)]
        moves = [{} for _ in range(n)]
    for src, out in enumerate(steps):
        for lab, dst in out:
            cls = class_of[id(lab)]
            if weak and cls == _TAU:
                continue
            for s in before[src]:
                for t in after[dst]:
                    moves[s].setdefault((cls, offset + t), lab)
    return moves


def strong_bisim(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
                 bounds=DEFAULT_BOUNDS, base=()) -> Verdict:
    return _bisim(c1, c2, defs, universe, domains, bounds, base, weak=False)


def weak_bisim(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
               bounds=DEFAULT_BOUNDS, base=()) -> Verdict:
    return _bisim(c1, c2, defs, universe, domains, bounds, base, weak=True)


def _bisim(c1, c2, defs, universe, domains, bounds, base, weak) -> Verdict:
    """Without a ``universe``, both sides close one from the labels of
    ``base``, as ``auto_universe`` does, and the two are merged; a strong
    check under a fixed universe closes neither.  A weak check is decided
    first by branching bisimilarity on closures that are never numbered:
    those of the quotient products when ``_stand_ins`` gives a map, else
    the sides' own.  Only when that does not relate them does ``explore``
    number each side: its closure, or after a quotient the side's unstepped
    one, stepping what the closure left."""
    comps, defs = (c1, c2), defs or {}
    walks = [abc_walk(c, defs, domains) for c in comps]
    closures = [unstepped(walk) for walk in walks]
    try:
        stand_ins = weak and _stand_ins(walks, universe, base, bounds)
        quotients = stand_ins and [abc_walk(c, defs, domains, stand_ins) for c in comps]
        if weak or universe is None:
            universe, decided = _closed(quotients or walks, universe, domains, bounds, base)
            if weak and _related(decided, domains, bounds.max_depth):
                return Verdict(True, universe)
            closures = closures if quotients else decided
        l1, l2 = (explore(k, universe, bounds) for k in closures)
    except BoundExceeded as exc:
        return Verdict(False, universe or (),
                       inconclusive=True, reason=f"inconclusive under bounds: {exc}")

    class_of = _label_classes((lab for lts in (l1, l2) for out in lts.steps for lab, _ in out),
                              domains)
    n1 = len(l1.states)
    moves = _moves(l1, 0, class_of, weak) + _moves(l2, n1, class_of, weak)
    history = list(_refine(len(moves), lambda blocks: (
        frozenset((cls, blocks[t]) for cls, t in m) for m in moves)))
    if history[-1][0] == history[-1][n1]:
        return Verdict(True, universe)
    return Verdict(False, universe, witness=_extract_witness(0, n1, moves, history, n1))


def _closed(walks, universe, domains, bounds, base) -> tuple:
    """The universe, and a closure of each of ``walks`` under it (``_fixed``).
    Without a ``universe``, each side closes its own from ``base``
    (``auto_universe``, whose bound and model errors are raised), and the
    closures are extended to the merged one.  The second side is closed
    only when the first closed completely: numbering a closure that holds
    an unstepped state raises, so the second would never be numbered."""
    sides = [(unstepped(walk), None) for walk in walks]
    if universe is None:
        (u1, k1), (u2, k2) = (auto_universe(w, bounds, domains, base) for w in walks)
        universe, sides = merge_labels(u1, u2, domains), [(k1, u1), (k2, u2)]
    closures = []
    for closure, had in sides:
        if had != universe:
            closure = (unstepped(closure[2]) if closures and None in closures[0][1]
                       else _fixed(closure, universe, bounds, had))
        closures.append(closure)
    return universe, closures


def _fixed(closure, universe, bounds, had) -> tuple:
    """``closure`` extended in place to the fixed ``universe`` and kept
    where a bound or a model error stops it: ``explore`` steps what it left
    and meets the same.  Its stepped states have taken the labels of
    ``had``, none when that is None; when ``had`` holds a label that the
    merge dropped for an equivalent one, the side is closed again from its
    initial state."""
    if not set(had or ()) <= set(universe):
        closure, had = unstepped(closure[2]), None
    with suppress(BoundExceeded, *_MODEL_ERRORS):
        alphabet_fixpoint(closure, lambda have, outputs: have, universe, bounds.max_states,
                          had or (), bounds.max_depth)
    return closure


def _related(closures, domains, max_depth) -> bool:
    """Whether branching bisimilarity relates the initial states of two
    closures; never for a closure that holds an unstepped state or is
    deeper than ``max_depth``, since numbering it raises."""
    if max(_depth(steps) for _, steps, _ in closures) > max_depth:
        return False
    class_of = _label_classes((lab for _, steps, _ in closures for out in steps
                               for lab, _ in out), domains)
    blocks = _branching_blocks(_union([steps for _, steps, _ in closures], class_of))
    return blocks[0] == blocks[len(closures[0][0])]


def _stand_ins(walks, universe, base, bounds) -> dict | None:
    """The map from each leaf of ``walks`` to the leaf that stands for it in
    the quotient products, or None to decide on the systems themselves.

    A stand-in drops inert silent steps, so it is looked for only when a
    leaf that the initial leaves reach by their own outputs moves silently
    (``_moves_silently``).  The leaf-level systems (``leaf_closure``, with
    the messages of ``universe``, or of ``base`` when the universe is to be
    closed) are then minimised together under branching bisimilarity,
    labels compared exactly and the silent outputs, those that the walk's
    ``hear`` delivers to no one, in one class: no leaf hears a silent
    output, so it changes its sender alone.  A leaf maps to a bottom
    member of its block, the first one with no inert silent step, so that
    no step behind an inert one is lost.

    The map is used only when it is not the identity and every bound and
    error of the systems is known not to arise: no restriction node, no
    model error in the leaf closure, a bottom member in every block, and at
    each position so few leaves reachable from the initial one that their
    product bounds the states of the system within ``max_states`` and its
    depth within ``max_depth``.  A quotient product has at most as many
    leaves at a position as there are blocks reachable from its initial
    leaf, so no bound can be hit on it either.  Each leaf of a walk is
    reachable from some initial one, and counts of at least 1 whose product
    is at most L sum to at most L + positions - 1, where L is
    min(``max_states``, ``max_depth`` + 1): the closure ends as soon as a
    walk holds more leaves than that, or when it has worked out
    ``_ANSWERS_PER_POSITION`` answers per position, so that leaves which
    grow without end cost little and stay far from the recursion limit."""
    if any(node is not None and node[1] is not None for walk in walks for node in walk.shape):
        return None  # a restriction changes what a leaf sends and hears
    most = min(bounds.max_states, bounds.max_depth + 1)
    caps = [most + len(walk.initial) - 1 for walk in walks]
    if not _moves_silently(walks, caps):
        return None
    budget = _ANSWERS_PER_POSITION * sum(len(walk.initial) for walk in walks)
    edges = None
    with suppress(*_MODEL_ERRORS):
        edges = leaf_closure(walks, base if universe is None else universe, caps, budget)
    if edges is None:
        return None
    for walk, steps in zip(walks, edges):
        succ = [[t for _, t in out] for out in steps]
        size = prod(len(_reachable(leaf, succ)) for leaf in walk.initial)
        if size > bounds.max_states or size - 1 > bounds.max_depth:
            return None
    exact = {}
    class_of = {id(lab): _TAU if walk.hear(lab) is None else exact.setdefault(lab, len(exact))
                for walk, steps in zip(walks, edges) for out in steps for lab, _ in out}
    union = _union(edges, class_of)
    blocks = _branching_blocks(union)
    bottom = {}
    for v, out in enumerate(union):
        if not any(cls == _TAU and blocks[v] == blocks[t] for cls, t in out):  # not inert
            bottom.setdefault(blocks[v], v)
    if len(bottom) < len(set(blocks)):
        return None  # a block of silent cycles, whose leaves would all stay
    leaves = [leaf for walk in walks for leaf in walk.leaves]
    stand_ins = {leaf: leaves[bottom[blocks[v]]] for v, leaf in enumerate(leaves)}
    return None if all(k is v for k, v in stand_ins.items()) else stand_ins


def _moves_silently(walks, caps) -> bool:
    """Whether a leaf that the initial leaves reach by their own outputs
    moves silently, looking at no more leaves of a walk than its entry of
    ``caps``.  These steps are worked out once and shared with the walk's
    exploration."""
    for walk, cap in zip(walks, caps):
        todo = list(dict.fromkeys(walk.initial))
        seen = set(todo)
        while todo and len(seen) <= cap:
            for lab, nxt in walk.moves(todo.pop()):
                if walk.hear(lab) is None:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return False


def _depth(steps) -> float:
    """The most steps from state 0 to a state of a closure, by a
    breadth-first search over the successor indices of its steps; infinite
    when the closure holds an unstepped state."""
    depth, queue = [0] + [-1] * (len(steps) - 1), deque([0])
    while queue:
        s = queue.popleft()
        if steps[s] is None:
            return float("inf")
        for _, t in steps[s]:
            if depth[t] < 0:
                depth[t] = depth[s] + 1
                queue.append(t)
    return max(depth)


def _reachable(start, succ) -> set:
    """The nodes reachable from ``start`` by zero or more edges."""
    seen, todo = {start}, [start]
    while todo:
        for nxt in succ[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def _union(systems, class_of) -> list:
    """The steps of ``systems``, each one's states' ``(label, state)``
    pairs, with the states numbered one system after another and each
    label given as its class: ``class_of`` maps the ``id`` of each label
    object to its class."""
    moves, offset = [], 0
    for steps in systems:
        moves += [[(class_of[id(lab)], offset + t) for lab, t in out] for out in steps]
        offset += len(steps)
    return moves


def _refine(size: int, signatures):
    """The partitions of ``range(size)`` from one block on, each splitting
    the one before by ``signatures(blocks)`` and numbered by first
    occurrence, until a round adds no block."""
    blocks, count = [0] * size, 1
    while True:
        yield blocks
        renum = {}
        new = [renum.setdefault((b, sig), len(renum))
               for b, sig in zip(blocks, signatures(blocks))]
        if len(renum) == count:
            return
        blocks, count = new, len(renum)


def _branching_blocks(steps) -> list:
    """The block of each state under branching bisimilarity, given each
    state's ``(class, state)`` steps, which is finer than weak and needs no
    saturation (Groote & Vaandrager 1990).  Silent cycles are collapsed,
    then signatures are refined over inert silent moves, those into the
    mover's own block (Blom & Orzan 2003)."""
    comp = _components([[t for cls, t in out if cls == _TAU] for out in steps])
    moves = [set() for _ in range(max(comp) + 1)]
    for s, out in enumerate(steps):
        for cls, t in out:
            if cls != _TAU or comp[s] != comp[t]:
                moves[comp[s]].add((cls, comp[t]))

    def signatures(blocks):
        # a silent move never leads to a higher component, so the signature
        # of one that an inert move reaches is already made
        sigs = []
        for v, out in enumerate(moves):
            sig = {(cls, blocks[w]) for cls, w in out if cls != _TAU or blocks[w] != blocks[v]}
            sig.update(*(sigs[w] for cls, w in out if cls == _TAU and blocks[w] == blocks[v]))
            sigs.append(frozenset(sig))
        return sigs

    *_, blocks = _refine(len(moves), signatures)
    return [blocks[c] for c in comp]


def _components(succ) -> list:
    """The strongly connected component of each node of a graph given by
    successor lists (Tarjan 1972, by a loop), numbered in the order they
    close, so that an edge never leads to a higher number."""
    index, low, comp = [-1] * len(succ), [0] * len(succ), [-1] * len(succ)
    stack, seen, closed = [], 0, 0
    for root in range(len(succ)):
        work = [(root, 0)] if index[root] < 0 else []
        while work:
            v, i = work.pop()  # v goes on from its i-th edge
            if index[v] < 0:
                index[v] = low[v] = seen
                seen += 1
                stack.append(v)
            for i in range(i, len(succ[v])):
                w = succ[v][i]
                if index[w] < 0:  # visit w, then come back to this edge
                    work += [(v, i), (w, 0)]
                    break
                if comp[w] < 0:  # still on the stack
                    low[v] = min(low[v], low[w])
            else:
                if low[v] == index[v]:
                    while comp[v] < 0:
                        comp[stack.pop()] = closed
                    closed += 1
    return comp


def _extract_witness(s, t, moves, history, n1):
    """A distinguishing label sequence from the refinement history.

    At the first round where s and t split, their signatures over the
    previous partition differ; the first move of one side into a block
    the other cannot reach is the next step, and the trace goes on from
    its target and the answer of the other side that split earliest, at
    a strictly earlier round.
    """
    witness = []
    while True:
        prev = history[_first_divergence(s, t, history) - 1]
        sig_s, sig_t = ({(cls, prev[tgt]) for cls, tgt in moves[u]} for u in (s, t))
        if not sig_s - sig_t:  # t is the side that moves
            s, t, sig_s, sig_t = t, s, sig_t, sig_s
        cls, blk = min(sig_s - sig_t, key=repr)
        nxt, lab = next((tgt, lab) for (c, tgt), lab in moves[s].items()
                        if c == cls and prev[tgt] == blk)
        witness.append({
            "label": "tau" if cls == _TAU else pretty_label(lab),
            "from": "A" if s < n1 else "B",
        })
        answers = [tgt for c, tgt in moves[t] if c == cls]
        if not answers:
            return witness
        s, t = nxt, min(answers, key=lambda a: _first_divergence(nxt, a, history))


def _first_divergence(s, t, history) -> int:
    for i, part in enumerate(history):
        if part[s] != part[t]:
            return i
    return len(history)
