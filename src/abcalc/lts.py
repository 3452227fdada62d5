"""Bounded exploration of the system transition relation into a finite
labeled transition system, numbered states, input universes, and the
Aldebaran text.

An input universe makes the environment finite: besides the autonomous
output moves, every state also reacts to each input label of the
universe, by default the closure of the messages that the emitted
outputs deliver.  A silent output delivers none (``silent``), in either
calculus: no leaf hears it.
``reach`` and ``alphabet_fixpoint`` do all exploration, of components
and of broadcast terms alike, and a ``Walk`` gives the states as leaf-id
vectors and composes their steps.  A closure ``(states, steps, walk)`` is
all they pass between them (``unstepped``), and the only way into
exploration: ``alphabet_fixpoint`` extends one in place, ``auto_universe``
closes one of a walk, and ``reach`` numbers one in place, stepping only
the states that it left unstepped.  ``explore`` is one ``reach`` over a
closure, and its ``Lts`` is that closure, numbered.
``leaf_closure`` closes walks at leaf level, each distinct leaf once, for
the quotient products that weak bisimilarity is decided on.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import cache
from itertools import accumulate, product
from operator import itemgetter

try:  # hashlib would load OpenSSL, which takes longer than any digest here
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import predicates as pr
from . import semantics as sem
from .predicates import DomainContext, EMPTY_DOMAINS
from .syntax import layout, pretty_component, pretty_label
from .terms import (Component, Node, ParC, Record, ResIn, ResOut, canonical, flatten, rebuild,
                    values_equal)


class BoundExceeded(Exception):
    """A bound hit, with the depth reached (the most steps from the initial
    state to a state found) and the number of states left to expand."""

    def __init__(self, message: str, frontier: int = 0, depth: int = 0):
        super().__init__(f"{message} (depth reached {depth}, frontier size {frontier})")
        self.frontier = frontier
        self.depth = depth


class ExploreBounds(Node):
    max_states: int = 100_000
    max_depth: int = 1_000


DEFAULT_BOUNDS = ExploreBounds()


def silent(lab: sem.Label, domains: DomainContext = EMPTY_DOMAINS) -> bool:
    """An output whose predicate no total valuation within ``domains``
    satisfies: it delivers nothing (``Walk.hear``), prints as ``tau`` and
    is matched by any other silent output."""
    return lab.kind == sem.OUT and pr.is_ff(lab.pred, domains)


def label_equiv(l1: sem.Label, l2: sem.Label, domains: DomainContext = EMPTY_DOMAINS) -> bool:
    """Two labels are interchangeable: same kind with equal environment,
    equal values and equivalent predicates, or both silent outputs."""
    if l1.kind != l2.kind:
        return False
    if silent(l1, domains) and silent(l2, domains):
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
    return sha256(text.encode()).hexdigest()[:12]


class Lts(Record):
    """A numbered transition system from state 0: a closure that ``reach``
    has numbered.  ``states`` holds the id vectors of ``walk``, which found
    them, not trees, and ``steps`` each state's ``(label, target)`` pairs
    in printed order."""

    def __init__(self, states: list, steps: list, walk: Walk):
        self.states = states
        self.steps = steps
        self.walk = walk

    @property
    def transitions(self) -> list:
        """The ``(source, label, target)`` triples of ``steps``."""
        return [(src, lab, dst) for src, out in enumerate(self.steps) for lab, dst in out]


def reach(closure, step, label_key, state_key, bounds: ExploreBounds = DEFAULT_BOUNDS) -> None:
    """Number the states of ``closure`` in place, breadth first from its
    initial state, each state's steps taken in order of
    ``(label_key(label), state_key(successor))``, each key computed once
    per label or state.  A state that the closure left unstepped is
    stepped into it by ``step(state)``, its ``(label, successor)`` pairs,
    so a bound or an error is met where a breadth-first walk meets it.
    The closure then holds its states in numbered order, and each state's
    ``(label, number)`` pairs in that order.  Numbering consumes the
    closure: its steps no longer give indices, and one that a bound or an
    error stopped is left half numbered."""
    states, steps, _ = closure
    label_key, key = cache(label_key), cache(lambda i: state_key(states[i]))
    order, number, depth = [0], [0] + [None] * (len(states) - 1), [0]
    index = None  # a state's closure index, built when a state is first stepped here
    for src, i in enumerate(order):  # the numbered states not yet expanded are the queue
        out = steps[i]
        if out is None:
            if index is None:
                index = {state: j for j, state in enumerate(states)}
            out = []
            for lab, succ in step(states[i]):
                j = index.setdefault(succ, len(states))
                if j == len(states):
                    states.append(succ)
                    steps.append(None)
                    number.append(None)
                out.append((lab, j))
        numbered = steps[i] = []
        for lab, j in sorted(out, key=lambda st: (label_key(st[0]), key(st[1]))):
            dst = number[j]
            if dst is None:
                if len(order) >= bounds.max_states:
                    raise BoundExceeded(f"state bound {bounds.max_states} hit",
                                        len(order) - src - 1, depth[-1])
                if depth[src] + 1 > bounds.max_depth:
                    raise BoundExceeded(f"depth bound {bounds.max_depth} hit",
                                        len(order) - src - 1, depth[-1])
                dst = number[j] = len(order)
                order.append(j)
                depth.append(depth[src] + 1)
            numbered.append((lab, dst))
    states[:] = [states[i] for i in order]
    steps[:] = [steps[i] for i in order]


def unstepped(walk) -> tuple:
    """The closure of ``walk`` that holds its initial state, not yet
    stepped: ``(states, steps, walk)``, the states in discovery order and
    each one's ``(label, successor index)`` pairs, or None for a state not
    yet stepped."""
    return [walk.initial], [None], walk


def alphabet_fixpoint(closure, grow, base, max_states: int, had=(),
                      max_depth: float = float("inf")) -> tuple:
    """Grow the universe from ``base`` until it holds every label that
    ``grow(universe, heard)`` takes from the messages that the outputs of
    the states ``closure`` reaches under it deliver (``Walk.hear``),
    extending the closure in place; its stepped states have taken the
    labels of ``had``.  Semi-naive: each state's outputs are taken once,
    ``grow`` sees only the messages of the output labels new in a round, a
    new label's inputs are taken only on the states already stepped, and an
    unstepped state gets the whole universe.  Each state is stepped once,
    so the loop ends; past ``max_states`` states it raises BoundExceeded.
    A state's steps are entered whole: a state whose stepping an error
    interrupts is left unstepped, and so is each state held that had not
    yet taken the new labels.  Returns the universe and the closure.

    For a ``grow`` that keeps ``base`` as it is, a state found more than
    ``max_depth`` steps from the initial one, or from the stepped states
    held, is kept unstepped, so that ``explore`` meets the depth bound
    where a breadth-first walk would.  Counted from the states held, a
    depth is never more than the one from the initial state."""
    states, steps, walk = closure
    universe, met, had = tuple(base), set(), set(had)
    new = [lab for lab in universe if lab not in had]
    index = {state: i for i, state in enumerate(states)}
    depth = [0] * len(states)  # the steps from the states held to each state, as found
    queue = deque([i for i, out in enumerate(steps) if out is None])

    def visit(src, succ) -> int:
        dst = index.get(succ)
        if dst is None:
            if len(states) >= max_states:
                raise BoundExceeded(f"state bound {max_states} hit", len(queue), max(depth))
            dst = index[succ] = len(states)
            states.append(succ)
            steps.append(None)
            depth.append(depth[src] + 1)
            if depth[src] < max_depth:
                queue.append(dst)
        return dst

    while True:
        held = len(states)
        try:
            for src in range(held if new else 0):
                if steps[src] is not None:
                    steps[src] += [(msg, visit(src, succ))
                                   for msg in new for succ in walk.ins(states[src], msg)]
        except Exception:  # the states held from ``src`` on miss labels of ``new``
            steps[src:held] = [None] * (held - src)
            raise
        fresh = []
        while queue:
            src = queue.popleft()
            out = []
            for lab, succ in walk.outs(states[src]):
                if lab not in met:
                    met.add(lab)
                    heard = walk.hear(lab)
                    if heard is not None:
                        fresh.append(heard)
                out.append((lab, visit(src, succ)))
            for msg in universe:
                for succ in walk.ins(states[src], msg):
                    out.append((msg, visit(src, succ)))
            steps[src] = out
        grown = grow(universe, fresh)
        if len(grown) == len(universe):
            return grown, closure
        old = set(universe)
        new, universe = [lab for lab in grown if lab not in old], grown


# An answer table's entry for a leaf that can only discard the message:
# the leaf stays as it is and adds nothing to the step.
DISCARDS = object()


class _Answers(dict):
    """The answer table of one message: a leaf id maps to its successor
    ids, or to ``DISCARDS``.  ``deaf`` holds the leaf ids that map to
    ``DISCARDS``."""

    __slots__ = ("deaf",)

    def __init__(self):
        self.deaf = set()


class Walk:
    """The states of one exploration as vectors of leaf ids over one fixed
    skeleton.  A step never changes the ``||`` and restriction nodes of a
    state, only its leaves, so each distinct leaf gets a dense id in a table
    local to the walk (hash-consing) and a state is a tuple of ints.  Each
    leaf's steps and its answer to each message are worked out once, as ids,
    and so is each plan: for a leaf at a position, its moves with their
    labels as they leave the skeleton and the answer table of every leaf
    that hears them, so that composing a step only looks answers up.  Most
    leaves that hear a message discard it: for each message the walk keeps
    the leaves whose answer it has worked out as ``DISCARDS``, and a step
    whose hearers all hear one message and are all among them is composed
    with one set test, without asking each hearer.

    ``leaf_outs(leaf)`` gives a leaf's ``(label, successor)`` steps and
    ``leaf_ins(leaf, msg)`` its answer to a message, ``(accepts,
    can_discard)``: when it can discard, the leaf itself is its last
    successor.  A message is the label of the input step it causes, and
    ``hear(label)`` the one an output delivers to the other leaves, or None
    when the output delivers nothing: then no leaf is asked.
    Leaves pass ``canon`` before they get an id, and labels ``label``, so
    that lookups compare objects, not fields.  ``moves`` and ``answer`` give
    one leaf's steps, as ids, for ``leaf_closure``."""

    def __init__(self, tree, canon, leaf_outs, leaf_ins, hear, binary=ParC):
        self.shape, leaves = flatten(tree, binary)
        self.leaves, self._ids, self._labels, self._outs = [], {}, {}, {}
        self._answers = defaultdict(_Answers)  # message heard -> its answer table
        self._canon, self._leaf_outs, self._leaf_ins = canon, leaf_outs, leaf_ins
        self.hear = cache(lambda lab: self.label(hear(lab)))
        self._restrict = cache(lambda lab, fn: self.label(lab.restrict(fn)))
        self._routes = cache(self._route)
        self._plans = [{} for _ in leaves]  # position -> leaf id -> output plan
        self._heard = {}  # message from the environment -> its asks and their deaf test
        self.initial = tuple([self.intern(leaf) for leaf in leaves])
        # each node's subtree: where it ends in the skeleton, and its leaves
        n = len(self.shape)
        self._end = [n] * (n + 1)
        for e in reversed(range(n)):
            node = self.shape[e]
            self._end[e] = (e + 1 if node is None else self._end[e + 1] if node[1] is not None
                            else self._end[self._end[e + 1]])
        self._first = list(accumulate([node is None for node in self.shape], initial=0))
        self._filters = [[] for _ in leaves]  # the restrictIn nodes above a leaf, top down
        for e, node in enumerate(self.shape):
            if node is not None and node[0] is ResIn:
                for k in range(self._first[e], self._first[self._end[e]]):
                    self._filters[k].append((e, node[1]))
        self._env = tuple((k, tuple(fn for _, fn in fs)) for k, fs in enumerate(self._filters))

    def intern(self, leaf) -> int:
        leaf = self._canon(leaf)
        i = self._ids.get(leaf)
        if i is None:
            i = self._ids[leaf] = len(self.leaves)
            self.leaves.append(leaf)
        return i

    def label(self, lab):
        return self._labels.setdefault(lab, lab)

    def tree(self, state):
        return rebuild(self.shape, [self.leaves[i] for i in state])

    def _route(self, i: int) -> list:
        """How an output of leaf ``i`` travels, from the leaf up: a
        restrictOut strengthens it (``(fn, ())``), and at each ``||`` the
        other operand's leaves hear it, left to right, each through the
        restrictIn nodes below that ``||`` (``(None, group)``)."""
        route, e, first, end = [], 0, self._first, self._end
        while self.shape[e] is not None:
            kind, fn = self.shape[e]
            if fn is None:
                inside, other = e + 1, end[e + 1]
                if i >= first[other]:
                    inside, other = other, inside
                route.append((None, tuple((k, tuple(f for d, f in self._filters[k] if d > e))
                                         for k in range(first[other], first[end[other]]))))
                e = inside
            else:
                if kind is ResOut:
                    route.append((fn, ()))
                e += 1
        return route[::-1]

    def _asks(self, group, msg) -> list:
        """For each leaf of ``group``, left to right, where it finds its
        answer when ``msg`` is sent: ``(position, answer table, message)``,
        the message as it passes the leaf's restrictIn nodes.  A table maps
        a leaf id to its successor ids, or to ``DISCARDS``."""
        asks = []
        for k, fns in group:
            heard = msg
            for fn in fns:
                heard = self._restrict(heard, fn)
            asks.append((k, self._answers[heard], heard))
        return asks

    def _deaf_test(self, asks) -> tuple:
        """When every leaf of ``asks`` hears one message: the deaf set of its
        answer table, and a getter of the asked positions' leaves as a
        tuple (the first position twice, so that one position gives a
        tuple too).  ``(None, None)`` when there is no ask or two hear
        different messages."""
        if not asks or any(msg is not asks[0][2] for _, _, msg in asks):
            return None, None
        at = [k for k, _, _ in asks]
        return asks[0][1].deaf, itemgetter(*at, at[0])

    def moves(self, leaf: int) -> tuple:
        """A leaf's output steps ``(label, successor id)``, worked out once."""
        moves = self._outs.get(leaf)
        if moves is None:
            moves = self._outs[leaf] = tuple([(self.label(lab), self.intern(nxt)) for lab, nxt
                                              in self._leaf_outs(self.leaves[leaf])])
        return moves

    def answer(self, leaf: int, msg):
        """A leaf's answer to ``msg``, as an answer table holds it."""
        table = self._answers[msg]
        got = table.get(leaf)
        return self._ask(table, leaf, msg) if got is None else got

    def _ask(self, table, leaf: int, msg):
        """Work out a leaf's answer to ``msg`` and enter it in ``table``: its
        successor ids, itself last when it can discard, or ``DISCARDS`` when
        that is all it can do, and then the leaf joins the table's deaf
        set."""
        accepts, can_discard = self._leaf_ins(self.leaves[leaf], msg)
        got = tuple([self.intern(nxt) for nxt in accepts] + ([leaf] if can_discard else []))
        if got == (leaf,):
            got = DISCARDS
            table.deaf.add(leaf)
        table[leaf] = got
        return got

    def _plan(self, i: int, leaf: int) -> tuple:
        """The output plan of ``leaf`` at position ``i``: each of its moves
        as ``(label, successor, asks, deaf, hearers)``, the label after
        every restrictOut on the leaf's route, the asks of every leaf that
        hears it, in the order they are asked, and their ``_deaf_test``."""
        plan = []
        for label, nxt in self.moves(leaf):
            asks = []
            for fn, group in self._routes(i):
                if fn is not None:
                    label = self._restrict(label, fn)
                elif (msg := self.hear(label)) is not None:
                    asks += self._asks(group, msg)
            plan.append((label, nxt, tuple(asks), *self._deaf_test(asks)))
        plan = self._plans[i][leaf] = tuple(plan)
        return plan

    def _answer(self, state, asks) -> list | None:
        """The leaves of ``asks`` that change, with their successors, or
        None when one can neither accept nor discard: then the leaves after
        it are not asked."""
        factors = []
        for k, table, msg in asks:
            leaf = state[k]
            got = table.get(leaf)
            if got is None:
                got = self._ask(table, leaf, msg)
            if got is not DISCARDS:
                if not got:
                    return None
                factors.append((k, got))
        return factors

    def outs(self, state) -> list:
        """A state's output steps ``(label, successor)``: leaf by leaf, left
        to right, each step of the leaf and then each way it is answered.
        When every hearer is known to discard, only the sender moves."""
        steps, plans = [], self._plans
        for i, leaf in enumerate(state):
            plan = plans[i].get(leaf)
            if plan is None:
                plan = self._plan(i, leaf)
            for label, nxt, asks, deaf, hearers in plan:
                if deaf is not None and deaf.issuperset(hearers(state)):
                    succ = list(state)  # as ``_fill`` would, with one call less per step
                    succ[i] = nxt
                    steps.append((label, tuple(succ)))
                    continue
                factors = self._answer(state, asks)
                if factors is not None:
                    steps += [(label, succ) for succ in _fill(state, i, nxt, factors)]
        return steps

    def ins(self, state, msg) -> list:
        """A state's successors when the environment sends ``msg``: the
        state itself when every leaf is known to discard it."""
        heard = self._heard.get(msg)
        if heard is None:
            asks = self._asks(self._env, self.label(msg))
            heard = self._heard[msg] = (asks, *self._deaf_test(asks))
        asks, deaf, hearers = heard
        if deaf is not None and deaf.issuperset(hearers(state)):
            return [state]
        factors = self._answer(state, asks)
        return [] if factors is None else _fill(state, None, None, factors)

    def steps(self, state, universe) -> list:
        """A state's steps ``(label, successor)``: its outputs, then its
        inputs on each label of ``universe``."""
        return self.outs(state) + [(msg, succ) for msg in universe for succ in self.ins(state, msg)]


def _fill(state, i, leaf, factors) -> list:
    """``state`` with ``leaf`` at ``i`` and each combination of the answers
    in ``factors``, the first factor varying slowest."""
    base = list(state)
    if i is not None:
        base[i] = leaf
    for k, got in factors:
        if len(got) > 1:
            break
        base[k] = got[0]
    else:
        return [tuple(base)]
    out = []
    for choice in product(*[got for _, got in factors]):
        for (k, _), nxt in zip(factors, choice):
            base[k] = nxt
        out.append(tuple(base))
    return out


def leaf_closure(walks, base, caps, budget: int) -> list | None:
    """The leaf-level transition systems of ``walks``, closed together by a
    loop over distinct leaves: each leaf's steps, and its answer to every
    message, which is a label of ``base`` or what a leaf's step delivers
    (``Walk.hear``).  An answer is a step labelled by the message, a
    discard is a self-loop, and a leaf that can do neither has no step on
    it.  Returns, for each walk, each of its leaves' ``(label, leaf)``
    steps, leaves as its ids; or None as soon as a walk holds more leaves
    than its entry of ``caps``, or before more than ``budget`` answers
    would be worked out in all."""
    msgs = list(dict.fromkeys(base))
    known, edges = set(msgs), [[] for _ in walks]
    answered = [[] for _ in walks]  # for each leaf of each walk: the messages it answered
    busy = True
    while busy:
        busy = False
        for walk, cap, steps, done in zip(walks, caps, edges, answered):
            leaf = 0
            while leaf < len(walk.leaves):
                if leaf == len(done):
                    done.append(0)
                    steps.append(list(walk.moves(leaf)))
                    for lab, _ in walk.moves(leaf):
                        heard = walk.hear(lab)
                        if heard is not None and heard not in known:
                            known.add(heard)
                            msgs.append(heard)
                budget -= len(msgs) - done[leaf]
                if budget < 0:
                    return None
                for msg in msgs[done[leaf]:]:
                    got = walk.answer(leaf, msg)
                    steps[leaf] += [(msg, leaf)] if got is DISCARDS else [(msg, nxt) for nxt in got]
                    busy = True
                done[leaf] = len(msgs)
                if len(walk.leaves) > cap:
                    return None
                leaf += 1
    return edges


def abc_walk(comp: Component, defs, domains: DomainContext = EMPTY_DOMAINS,
             stand_ins=None) -> Walk:
    """The walk of a component's exploration, over canonical leaves.
    ``canonical`` renames each leaf on its own, so a tree of canonical
    leaves is canonical.  Given ``stand_ins``, a map between canonical
    leaves, each leaf becomes the one it maps to: the walk of a quotient."""
    canon = canonical
    if stand_ins:
        def canon(leaf):
            leaf = canonical(leaf)
            return stand_ins.get(leaf, leaf)
    return Walk(comp, canon, lambda leaf: sem.component_out_steps(leaf, defs, domains),
                lambda leaf, msg: sem.component_in_step(leaf, msg, defs, domains),
                lambda lab: None if silent(lab, domains) else lab.as_input())


def state_text(walk: Walk):
    """A state's printed form, the sort key of its steps: the skeleton's
    text with each leaf's text, printed once per leaf."""
    pieces = layout(rebuild(walk.shape, range(len(walk.initial))))
    text = cache(lambda leaf: pretty_component(walk.leaves[leaf]))
    return lambda state: "".join([p if p.__class__ is str else text(state[p]) for p in pieces])


def explore(closure, universe=(), bounds: ExploreBounds = DEFAULT_BOUNDS) -> Lts:
    """Breadth-first exploration with deterministic state numbering: each
    state's steps sorted by printed label and successor.  It numbers
    ``closure``, a closure under ``universe``, in place, and ``reach``
    steps through the closure's walk the states that it left unstepped."""
    walk = closure[2]
    reach(closure, lambda state: walk.steps(state, universe), pretty_label, state_text(walk),
          bounds)
    return Lts(*closure)


def auto_universe(walk: Walk, bounds: ExploreBounds = DEFAULT_BOUNDS,
                  domains: DomainContext = EMPTY_DOMAINS, base=()) -> tuple:
    """Shared-alphabet closure: harvest the messages that emitted outputs
    deliver as inputs until nothing new appears; a silent output delivers
    none.  Returns the universe and the closure of ``walk`` that
    ``explore`` numbers: its states, their steps and the walk."""
    return alphabet_fixpoint(
        unstepped(walk),
        lambda have, heard: merge_labels(have, sorted(heard, key=pretty_label), domains),
        base, bounds.max_states)


def aut_text(lts: Lts) -> str:
    """The Aldebaran text of an LTS; each distinct label is printed once."""

    @cache
    def text(lab):
        return ("tau" if lts.walk.hear(lab) is None else pretty_label(lab)).replace('"', "'")

    lines = [f"des (0,{sum(map(len, lts.steps))},{len(lts.states)})"]
    lines += [f'({src},"{text(lab)}",{dst})' for src, out in enumerate(lts.steps)
              for lab, dst in out]
    return "\n".join(lines) + "\n"

