"""Bounded exploration of the system transition relation into a finite
labeled transition system, with silent-move classification, weak closure,
predicate-indexed reductions, and Aldebaran export.

An input universe makes the environment finite: besides the autonomous
output moves, every state also reacts to each input label of the
universe, by default the closure of the emitted non-silent outputs.
``reach`` and ``alphabet_fixpoint`` do all exploration, of components
and of broadcast terms alike; ``reach`` numbers the closure's states.
"""

from __future__ import annotations

import hashlib
from collections import deque
from functools import cache

from . import predicates as pr
from . import semantics as sem
from .predicates import DomainContext, EMPTY_DOMAINS
from .syntax import pretty_component, pretty_label
from .terms import Component, Node, Record, canonical, values_equal


class BoundExceeded(Exception):
    def __init__(self, message: str, frontier: int = 0):
        super().__init__(f"{message} (frontier size {frontier})")
        self.frontier = frontier


class ExploreBounds(Node):
    max_states: int = 100_000
    max_depth: int = 1_000


DEFAULT_BOUNDS = ExploreBounds()


def label_equiv(l1: sem.Label, l2: sem.Label, domains: DomainContext = EMPTY_DOMAINS) -> bool:
    """Two labels are interchangeable: same kind with equal environment,
    equal values and equivalent predicates, or both silent outputs."""
    if l1.kind != l2.kind:
        return False
    if l1.kind == sem.OUT:
        if pr.is_ff(l1.pred, domains) and pr.is_ff(l2.pred, domains):
            return True
    if l1.env != l2.env or not values_equal(l1.values, l2.values):
        return False
    return pr.equiv(l1.pred, l2.pred, domains)


def merge_labels(have, new, domains: DomainContext = EMPTY_DOMAINS) -> tuple:
    """The labels of ``have`` plus each label of ``new`` that no label
    already kept matches, sorted by printed form."""
    out = list(have)
    for lab in new:
        if not any(label_equiv(lab, old, domains) for old in out):
            out.append(lab)
    return tuple(sorted(out, key=pretty_label))


def fingerprint(labels) -> str:
    """Order-independent digest of a universe."""
    text = "\n".join(sorted(pretty_label(lab) for lab in labels))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class Lts(Record):
    def __init__(self, states: list, transitions: list, initial: int = 0,
                 domains: DomainContext = EMPTY_DOMAINS):
        self.states = states
        self.transitions = transitions  # (source id, Label, target id)
        self.initial = initial
        self.domains = domains
        self._tau_cache = {}

    def is_tau(self, label: sem.Label) -> bool:
        if label.kind != sem.OUT:
            return False
        if label.pred not in self._tau_cache:
            self._tau_cache[label.pred] = pr.is_ff(label.pred, self.domains)
        return self._tau_cache[label.pred]


def reach(initial, successors, label_key, state_key, bounds: ExploreBounds = DEFAULT_BOUNDS):
    """Breadth-first walk from ``initial``; ``successors(state)`` gives
    ``(label, successor)`` pairs, taken in order of ``(label_key(label),
    state_key(successor))``, each key computed once per label or state.
    Returns the states in discovery order and the ``(source id, label,
    target id)`` transitions."""
    label_key, state_key = cache(label_key), cache(state_key)
    states, index, depth, transitions = [initial], {initial: 0}, [0], []
    queue = deque([0])
    while queue:
        src = queue.popleft()
        steps = successors(states[src])
        for lab, succ in sorted(steps, key=lambda st: (label_key(st[0]), state_key(st[1]))):
            dst = index.get(succ)
            if dst is None:
                if len(states) >= bounds.max_states:
                    raise BoundExceeded(f"state bound {bounds.max_states} hit", len(queue))
                if depth[src] + 1 > bounds.max_depth:
                    raise BoundExceeded(f"depth bound {bounds.max_depth} hit", len(queue))
                dst = index[succ] = len(states)
                states.append(succ)
                depth.append(depth[src] + 1)
                queue.append(dst)
            transitions.append((src, lab, dst))
    return states, transitions


def alphabet_fixpoint(initial, out_steps, in_steps, grow, base, max_states: int) -> tuple:
    """Grow the universe from ``base`` until it holds every label that
    ``grow(universe, outputs)`` takes from the outputs of the states
    reachable under it.  Semi-naive: each state's ``out_steps`` run once,
    ``grow`` sees only the output labels new in a round, a new label's
    ``in_steps`` run only on the states already seen, and a new state gets
    the whole universe.  Each state is visited once, so the loop ends;
    past ``max_states`` states it raises BoundExceeded.  Returns the
    universe and the closure ``(states, steps)``: the states in discovery
    order and each one's ``(label, successor index)`` pairs."""
    universe, new = tuple(base), ()
    states, index, steps, queue, met = [initial], {initial: 0}, [[]], deque([0]), set()

    def visit(src, lab, succ):
        dst = index.get(succ)
        if dst is None:
            if len(states) >= max_states:
                raise BoundExceeded(f"state bound {max_states} hit", len(queue))
            dst = index[succ] = len(states)
            states.append(succ)
            steps.append([])
            queue.append(dst)
        steps[src].append((lab, dst))

    while True:
        for src in range(len(states)):
            for msg in new:
                for lab, succ in in_steps(states[src], msg):
                    visit(src, lab, succ)
        fresh = []
        while queue:
            src = queue.popleft()
            for lab, succ in out_steps(states[src]):
                if lab not in met:
                    met.add(lab)
                    fresh.append(lab)
                visit(src, lab, succ)
            for msg in universe:
                for lab, succ in in_steps(states[src], msg):
                    visit(src, lab, succ)
        grown = grow(universe, fresh)
        if len(grown) == len(universe):
            return grown, (states, steps)
        old = set(universe)
        new, universe = [lab for lab in grown if lab not in old], grown


def abc_steps(defs, domains: DomainContext = EMPTY_DOMAINS):
    """A component's output steps and input steps of one message, with
    canonical successors.  The steps of each leaf, and its answer to each
    message, are worked out once per call of ``abc_steps`` and shared by
    every state that holds the leaf.  ``canonical`` renames each leaf on
    its own, so a tree of canonical leaves is canonical."""
    leaf_outs, leaf_ins = sem.leaf_steps(defs, domains)
    local = (cache(lambda leaf: tuple([(lab, canonical(s)) for lab, s in leaf_outs(leaf)])),
             cache(lambda leaf, msg: tuple([canonical(s) for s in leaf_ins(leaf, msg)])))
    return (lambda comp: sem.system_out_steps(comp, defs, domains, local),
            lambda comp, msg: [(msg, c) for c in sem.system_in_step(comp, msg, defs, domains,
                                                                    local)])


def abc_successors(defs, universe=(), domains: DomainContext = EMPTY_DOMAINS):
    """Successors under a fixed universe: outputs, then inputs of each label of it."""
    out_steps, in_steps = abc_steps(defs, domains)
    return lambda comp: out_steps(comp) + [st for msg in universe for st in in_steps(comp, msg)]


def explore(
    comp: Component,
    defs=None,
    universe=(),
    bounds: ExploreBounds = DEFAULT_BOUNDS,
    domains: DomainContext = EMPTY_DOMAINS,
    closure=None,
) -> Lts:
    """Breadth-first exploration with deterministic state numbering: each
    state's steps sorted by printed label and successor.  Given the closure
    that computed ``universe``, it numbers the closure's states."""
    if closure is None:
        states, transitions = reach(canonical(comp), abc_successors(defs or {}, universe, domains),
                                    pretty_label, pretty_component, bounds)
    else:
        found, steps = closure
        ids, transitions = reach(0, steps.__getitem__, pretty_label,
                                 lambda i: pretty_component(found[i]), bounds)
        states = [found[i] for i in ids]
    return Lts(states, transitions, 0, domains)


def auto_universe(
    comp: Component,
    defs=None,
    bounds: ExploreBounds = DEFAULT_BOUNDS,
    domains: DomainContext = EMPTY_DOMAINS,
    base=(),
) -> tuple:
    """Shared-alphabet closure: harvest emitted output labels as inputs
    until nothing new appears.  Silent outputs are never harvested.
    Returns the universe and the closure that ``explore`` numbers."""

    def grow(have, outputs):
        heard = [lab.as_input() for lab in outputs if not pr.is_ff(lab.pred, domains)]
        return merge_labels(have, sorted(heard, key=pretty_label), domains)

    return alphabet_fixpoint(canonical(comp), *abc_steps(defs or {}, domains), grow, base,
                             bounds.max_states)


def weak_closure(lts: Lts):
    """For each state, the set of states reachable by zero or more
    silent moves."""
    tau_next = {i: set() for i in range(len(lts.states))}
    for src, lab, dst in lts.transitions:
        if lts.is_tau(lab):
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


def reduction_over(lts: Lts, pred, weak: bool = False):
    """State pairs connected by an output whose predicate is equivalent
    to the given one; the weak variant closes both sides under silent
    moves."""
    base = set()
    equiv_cache = {}
    for src, lab, dst in lts.transitions:
        if lab.kind != sem.OUT:
            continue
        if lab.pred not in equiv_cache:
            equiv_cache[lab.pred] = pr.equiv(lab.pred, pred, lts.domains)
        if equiv_cache[lab.pred]:
            base.add((src, dst))
    if not weak:
        return base
    closure = weak_closure(lts)
    pre = inverse_closure(closure)
    out = set()
    for src, dst in base:
        for s in pre[src]:
            for t in closure[dst]:
                out.add((s, t))
    return out


def aut_text(lts: Lts) -> str:
    """The Aldebaran text of an LTS; each distinct label is printed once."""

    @cache
    def text(lab):
        return ("tau" if lts.is_tau(lab) else pretty_label(lab)).replace('"', "'")

    lines = [f"des (0,{len(lts.transitions)},{len(lts.states)})"]
    lines += [f'({src},"{text(lab)}",{dst})' for src, lab, dst in lts.transitions]
    return "\n".join(lines) + "\n"


def export_aut(lts: Lts, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(aut_text(lts))
