"""Barbs, label equivalence, and strong/weak bisimilarity with
counterexample witnesses.

Checking is relative to a finite input universe: both transition systems
are explored under the same universe (by default the union of their
shared-alphabet closures) and bisimilarity is decided by partition
refinement over labels quotiented by label equivalence.  The weak
variant refines over the saturated transition relation, where a visible
step may be padded with silent moves on both sides and a silent step is
matched by zero or more silent moves.
"""

from __future__ import annotations

from . import predicates as pr
from . import semantics as sem
from .lts import (
    BoundExceeded,
    DEFAULT_BOUNDS,
    ExploreBounds,
    Lts,
    auto_universe,
    explore,
    fingerprint,
    inverse_closure,
    label_equiv,
    merge_labels,
    weak_closure,
)
from .predicates import DomainContext, EMPTY_DOMAINS
from .syntax import pretty_label
from .terms import Component, Record


def label_equiv_pred(label: sem.Label, pred, domains: DomainContext = EMPTY_DOMAINS) -> bool:
    """Whether an output label's predicate is equivalent to the given one."""
    return label.kind == sem.OUT and pr.equiv(label.pred, pred, domains)


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
    at every state reachable by silent moves."""
    defs = defs or {}
    lts = explore(comp, defs, (), bounds, domains)
    if weak:
        states = weak_closure(lts)[lts.initial]
    else:
        states = {lts.initial}
    reps = []
    for src, lab, _ in lts.transitions:
        if src not in states or lab.kind != sem.OUT or lts.is_tau(lab):
            continue
        if not any(pr.equiv(lab.pred, have, domains) for have in reps):
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


def _strong_edges(lts: Lts, offset: int, class_of):
    edges = {offset + i: [] for i in range(len(lts.states))}
    for src, lab, dst in lts.transitions:
        edges[offset + src].append((class_of[lab], offset + dst, lab))
    return edges


def _weak_edges(lts: Lts, offset: int, class_of):
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
        edges[s] = _dedupe(edges[s])
    return edges


def _dedupe(pairs):
    seen = set()
    out = []
    for cls, tgt, lab in pairs:
        if (cls, tgt) not in seen:
            seen.add((cls, tgt))
            out.append((cls, tgt, lab))
    return out


def strong_bisim(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
                 bounds=DEFAULT_BOUNDS) -> Verdict:
    return _bisim(c1, c2, defs, universe, domains, bounds, weak=False)


def weak_bisim(c1, c2, defs=None, universe=None, domains=EMPTY_DOMAINS,
               bounds=DEFAULT_BOUNDS) -> Verdict:
    return _bisim(c1, c2, defs, universe, domains, bounds, weak=True)


def _bisim(c1, c2, defs, universe, domains, bounds, weak) -> Verdict:
    defs = defs or {}
    k1 = k2 = None
    try:
        if universe is None:
            (u1, k1), (u2, k2) = (auto_universe(c, defs, bounds, domains) for c in (c1, c2))
            universe = merge_labels(u1, u2, domains)
            # a side closed under the merged universe is numbered, not stepped again
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
    class_of = _label_classes(labels, domains)

    n1 = len(l1.states)
    if weak:
        edges = _weak_edges(l1, 0, class_of)
        edges.update(_weak_edges(l2, n1, class_of))
    else:
        edges = _strong_edges(l1, 0, class_of)
        edges.update(_strong_edges(l2, n1, class_of))

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

    init2 = n1
    if blocks[0] == blocks[init2]:
        return Verdict(True, universe)
    witness = _extract_witness(0, init2, edges, history, n1)
    return Verdict(False, universe, witness=witness)


def _extract_witness(s, t, edges, history, n1):
    """A distinguishing label sequence from the refinement history.

    At the first round where s and t split, their signatures over the
    previous partition differ; the witnessing edge gives the move one
    side can make into a block the other cannot reach, and recursion on
    any would-be answer continues the trace at a strictly earlier
    split round.
    """
    div = _first_divergence(s, t, history)
    prev = history[div - 1]
    sig_s = {(cls, prev[tgt]) for cls, tgt, _ in edges[s]}
    sig_t = {(cls, prev[tgt]) for cls, tgt, _ in edges[t]}
    if sig_s - sig_t:
        cls, blk = sorted(sig_s - sig_t, key=repr)[0]
        mover, responder = s, t
    else:
        cls, blk = sorted(sig_t - sig_s, key=repr)[0]
        mover, responder = t, s
    lab = next(
        l for c, tgt, l in edges[mover] if c == cls and prev[tgt] == blk
    )
    nxt = next(tgt for c, tgt, l in edges[mover] if c == cls and prev[tgt] == blk)
    step = {
        "label": "tau" if lab is None else pretty_label(lab),
        "from": "A" if mover < n1 else "B",
    }
    answers = [tgt for c, tgt, _ in edges[responder] if c == cls]
    if not answers:
        return [step]
    best = min(answers, key=lambda a: _first_divergence(nxt, a, history))
    return [step] + _extract_witness(nxt, best, edges, history, n1)


def _first_divergence(s, t, history) -> int:
    for i, part in enumerate(history):
        if part[s] != part[t]:
            return i
    return len(history)
