"""Barbs, label equivalence, and strong/weak bisimilarity with
counterexample witnesses.

Checking is relative to a finite input universe: both transition systems
are explored under the same universe (by default the union of their
shared-alphabet closures) and bisimilarity is decided by partition
refinement over labels quotiented by label equivalence, all silent
outputs in one class.  The weak variant refines over the saturated
transition relation, built from that class: a visible step may be padded
with silent moves on both sides and a silent step is matched by zero or
more silent moves.  It saturates only when branching bisimilarity, which
is finer, does not relate the two initial states.
"""

from __future__ import annotations

from . import predicates as pr
from . import semantics as sem
from .lts import (
    BoundExceeded,
    DEFAULT_BOUNDS,
    ExploreBounds,
    Lts,
    abc_walk,
    auto_universe,
    explore,
    fingerprint,
    label_equiv,
    merge_labels,
    reach,
    state_text,
)
from .predicates import DomainContext, EMPTY_DOMAINS
from .syntax import pretty_label
from .terms import Component, Record


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
    stepped, so a model with infinitely many states has barbs too."""
    walk = abc_walk(comp, defs or {}, domains)
    silent = lambda lab: pr.is_ff(lab.pred, domains)
    text = state_text(walk)
    states = [walk.initial]
    if weak:
        states, _ = reach(walk.initial, lambda q: [st for st in walk.outs(q) if silent(st[0])],
                          pretty_label, text, bounds)
    reps = []
    for state in states:
        for lab, _ in sorted(walk.outs(state), key=lambda st: (pretty_label(st[0]), text(st[1]))):
            if not silent(lab) and not any(pr.equiv(lab.pred, have, domains) for have in reps):
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


def _label_classes(labels, domains):
    """Map each label to a class index; all silent outputs share one."""
    reps = []
    class_of = {}
    for lab in labels:
        if lab.kind == sem.OUT and pr.is_ff(lab.pred, domains):
            class_of[lab] = _TAU
            continue
        for i, rep in enumerate(reps):
            if label_equiv(lab, rep, domains):
                class_of[lab] = i
                break
        else:
            class_of[lab] = len(reps)
            reps.append(lab)
    return class_of


def _moves(lts: Lts, offset: int, class_of, weak: bool):
    """Each state's distinct moves, in first-seen order: a dict from
    ``(class, target)`` to the first label seen for it; ``class_of`` maps
    the ``id`` of each label object to its class.  A weak move pads
    a visible step with silent moves on both sides, and a silent move
    (label ``None``) reaches any state of the tau-closure."""
    n = len(lts.states)
    if weak:
        silent = [set() for _ in range(n)]
        for src, lab, dst in lts.transitions:
            if class_of[id(lab)] == _TAU:
                silent[src].add(dst)
        after, before = [], [[] for _ in range(n)]  # tau-closure, and its inverse
        for start in range(n):
            seen, stack = {start}, [start]
            while stack:
                for nxt in silent[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            # a copy may iterate in another order than ``seen``; the moves, and
            # so the witnesses, follow the order of this frozenset
            after.append(frozenset(seen))
            for t in seen:
                before[t].append(start)
        moves = [dict.fromkeys((_TAU, offset + t) for t in after[s]) for s in range(n)]
    else:
        after = before = [(s,) for s in range(n)]
        moves = [{} for _ in range(n)]
    for src, lab, dst in lts.transitions:
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
    ``base``, as ``auto_universe`` does, and the two are merged."""
    defs = defs or {}
    k1 = k2 = None
    try:
        if universe is None:
            (u1, k1), (u2, k2) = (auto_universe(c, defs, bounds, domains, base) for c in (c1, c2))
            universe = merge_labels(u1, u2, domains)
            # a side closed under the merged universe is numbered, not stepped again
            k1, k2 = (k1 if u1 == universe else None), (k2 if u2 == universe else None)
        l1 = explore(c1, defs, universe, bounds, domains, k1)
        l2 = explore(c2, defs, universe, bounds, domains, k2)
    except BoundExceeded as exc:
        return Verdict(False, universe or (),
                       inconclusive=True, reason=f"inconclusive under bounds: {exc}")

    # an exploration keeps one object per label, so the classes of a side's
    # labels are looked up by object, comparing no fields
    objects = {id(lab): lab for lts in (l1, l2) for _, lab, _ in lts.transitions}
    classes = _label_classes(dict.fromkeys(objects.values()), domains)
    class_of = {key: classes[lab] for key, lab in objects.items()}

    n1 = len(l1.states)
    if weak:
        branching = _branching_blocks((l1, l2), class_of)
        if branching[0] == branching[n1]:
            return Verdict(True, universe)
    moves = _moves(l1, 0, class_of, weak) + _moves(l2, n1, class_of, weak)
    history = list(_refine(len(moves), lambda blocks: (
        frozenset((cls, blocks[t]) for cls, t in m) for m in moves)))
    if history[-1][0] == history[-1][n1]:
        return Verdict(True, universe)
    return Verdict(False, universe, witness=_extract_witness(0, n1, moves, history, n1))


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


def _branching_blocks(ltss, class_of) -> list:
    """The block of each state of the union of ``ltss`` (numbered one after
    another) under branching bisimilarity, which is finer than weak and
    needs no saturation (Groote & Vaandrager 1990).  Silent cycles are
    collapsed, then signatures are refined over inert silent moves, those
    into the mover's own block (Blom & Orzan 2003)."""
    edges, offset = [], 0
    for lts in ltss:
        edges += [(offset + s, class_of[id(lab)], offset + t) for s, lab, t in lts.transitions]
        offset += len(lts.states)
    silent = [[] for _ in range(offset)]
    for s, cls, t in edges:
        if cls == _TAU:
            silent[s].append(t)
    comp = _components(silent)
    moves = [set() for _ in range(max(comp) + 1)]
    for s, cls, t in edges:
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
            "label": "tau" if lab is None else pretty_label(lab),
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
