"""Broadcast channel calculus: syntax, its parser and printer, CBS-style
broadcast transitions, the structured-message encoding into
attribute-based components, and the step-by-step correspondence checker
for that encoding.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import cache
from itertools import count

from . import semantics as sem
from .lts import DEFAULT_BOUNDS, Walk, abc_walk, alphabet_fixpoint, reach, unstepped
from .syntax import Parser, UnguardedRecursion, layout
from .terms import (
    FF,
    TT,
    Atom,
    AttrEnv,
    Call,
    Choice,
    Const,
    In,
    Inact,
    Leaf,
    Node,
    Out,
    ParC,
    Record,
    Tt,
    Var,
    flatten,
    rebuild,
)

# ---------------------------------------------------------------------------
# Syntax


class BNil(Node):
    pass


class BTau(Node):
    cont: "BpiProcess"


class BIn(Node):
    chan: str
    vars: tuple
    cont: "BpiProcess"


class BOut(Node):
    chan: str
    names: tuple
    cont: "BpiProcess"


class BSum(Node):
    left: "BpiProcess"
    right: "BpiProcess"


class BRec(Node):
    name: str
    params: tuple
    body: "BpiProcess"
    args: tuple


class BCall(Node):
    name: str
    args: tuple


class BPar(Node):
    left: "BpiProcess"
    right: "BpiProcess"


BpiProcess = object

BNIL = BNil()


class UnboundRecursionVariable(Exception):
    pass


class EncodingError(Exception):
    pass


# ---------------------------------------------------------------------------
# Concrete syntax (the tokenizer and parser plumbing are those of ``syntax``)


class _BpiParser(Parser):
    """A term is sequential terms joined by ``||``, which appears only at
    top level: ``top`` is false below a prefix, a sum or a rec."""

    def bpi(self, top=True):
        left = self.bpi_seq(top)
        while self.at("||"):
            if not top:
                self.fail("'||' is allowed only at top level")
            self.advance()
            left = BPar(left, self.bpi_seq(top))
        return left

    def bpi_seq(self, top=False):
        left = self.bpi_pre(top)
        while self.at("+"):
            if isinstance(left, BPar):
                self.fail("'||' is allowed only at top level")
            self.advance()
            left = BSum(left, self.bpi_pre())
        return left

    def bpi_pre(self, top=False):
        mark = len(self.calls)
        if self.eat("nil"):
            return BNIL
        if self.eat("tau"):
            self.expect(".")
            return BTau(self.guarded(mark, self.bpi_pre()))
        if self.at("("):
            if self.peek(1)[1] == "rec":
                self.advance()
                self.advance()
                name = self.ident("recursion name")
                tok = self.peek()
                params = self.distinct(self.bpi_names(), "parameter", tok)
                self.expect(".")
                body = self.bpi_seq()
                # the body's unguarded calls of other recursions are this term's
                if name in self.calls[mark:]:
                    raise UnguardedRecursion(name)
                self.calls[mark:] = [n for n in self.calls[mark:] if n != name]
                self.expect(")")
                args = self.bpi_names()
                return BRec(name, params, body, args)
            self.advance()
            p = self.bpi(top)
            self.expect(")")
            return p
        name = self.ident("name")
        if self.eat("!"):
            values = self.bpi_names()
            self.expect(".")
            return BOut(name, values, self.guarded(mark, self.bpi_pre()))
        if self.at("("):
            tok = self.peek()
            vars_ = self.bpi_names()
            if self.eat("."):
                return BIn(name, self.distinct(vars_, "variable", tok),
                           self.guarded(mark, self.bpi_pre()))
            self.calls.append(name)
            return BCall(name, vars_)
        self.calls.append(name)
        return BCall(name, ())

    def bpi_names(self):
        self.expect("(")
        return tuple(self.comma_list(")", self.ident, "name"))


def parse_bpi(text: str):
    p = _BpiParser(text)
    out = p.bpi()
    p.done()
    return out


def pretty_bpi(p) -> str:
    if isinstance(p, BNil):
        return "nil"
    if isinstance(p, BTau):
        return f"tau.{_bpi_pre_text(p.cont)}"
    if isinstance(p, BIn):
        return f"{p.chan}({', '.join(p.vars)}).{_bpi_pre_text(p.cont)}"
    if isinstance(p, BOut):
        return f"{p.chan}!({', '.join(p.names)}).{_bpi_pre_text(p.cont)}"
    if isinstance(p, BSum):
        left = pretty_bpi(p.left) if isinstance(p.left, BSum) else _bpi_pre_text(p.left)
        return f"{left} + {_bpi_pre_text(p.right)}"
    if isinstance(p, BRec):
        body = pretty_bpi(p.body)
        if isinstance(p.body, BPar):
            body = f"({body})"
        return f"(rec {p.name}({', '.join(p.params)}).{body})({', '.join(p.args)})"
    if isinstance(p, BCall):
        return f"{p.name}({', '.join(p.args)})"
    if isinstance(p, BPar):
        return "".join([x if x.__class__ is str else pretty_bpi(x) for x in layout(p, BPar)])
    raise TypeError(f"not a bpi process: {p!r}")


def _bpi_pre_text(p) -> str:
    if isinstance(p, (BSum, BPar)):
        return f"({pretty_bpi(p)})"
    return pretty_bpi(p)


# ---------------------------------------------------------------------------
# Free names / substitution (names double as channels and values)


def _free(p: BpiProcess, bound: frozenset, recs: dict) -> frozenset:
    """The names free in a sequential term.  A call of a recursion named in
    ``recs`` also uses the names that ``recs`` gives it."""
    if isinstance(p, BNil):
        return frozenset()
    if isinstance(p, BTau):
        return _free(p.cont, bound, recs)
    if isinstance(p, BIn):
        chan = frozenset() if p.chan in bound else frozenset({p.chan})
        return chan | _free(p.cont, bound | frozenset(p.vars), recs)
    if isinstance(p, BOut):
        names = frozenset(n for n in (p.chan, *p.names) if n not in bound)
        return names | _free(p.cont, bound, recs)
    if isinstance(p, BSum):
        return _free(p.left, bound, recs) | _free(p.right, bound, recs)
    if isinstance(p, BRec):
        args = frozenset(a for a in p.args if a not in bound)
        inner = {k: v for k, v in recs.items() if k != p.name} if p.name in recs else recs
        return args | _free(p.body, bound | frozenset(p.params), inner)
    if isinstance(p, BCall):
        return frozenset(a for a in p.args if a not in bound) | recs.get(p.name, frozenset())
    raise TypeError(f"not a sequential bpi term: {p!r}")


def subst_names(p: BpiProcess, mapping: dict) -> BpiProcess:
    """Capture-avoiding substitution of names for names."""
    shape, operands = flatten(p, BPar)
    return rebuild(shape, [_rewrite(g, mapping, None) for g in operands])


def canon_bpi(p: BpiProcess) -> BpiProcess:
    """``p`` with the binders of each parallel operand renamed x0, x1, ...
    in pre-order, skipping the operand's free names, so that structural
    equality is alpha-blind.  Each operand is numbered on its own, so a
    parallel composition of canonical operands is canonical."""
    shape, operands = flatten(p, BPar)
    canon = [_rewrite(g, {}, _fresh_names(_free(g, frozenset(), {}))) for g in operands]
    if all(map(operator.is_, canon, operands)):
        return p
    return rebuild(shape, canon)


def _unfold(rec: BRec) -> BpiProcess:
    """The body of ``rec`` with its parameters bound to its arguments, and
    each call of the recursion made the recursion again."""
    return _rewrite(rec.body, dict(zip(rec.params, rec.args)), None, rec)


def _fresh_names(avoid):
    return (n for n in map("x{}".format, count()) if n not in avoid)


def _rewrite(p: BpiProcess, ren: dict, fresh, rec=None, recs=None) -> BpiProcess:
    """The one scoped walk over sequential broadcast terms, behind
    substitution, canonical forms and recursion unfolding: each free name
    in ``ren`` becomes the name it maps to, and binders shadow.  Given
    ``fresh``, an iterator of names, every binder takes the next of them in
    pre-order, but a rec body that uses no name of ``ren`` is numbered on
    its own, skipping the names it uses, so equal recs canonicalise equally
    in any context.  A call of an enclosing rec uses the names free in that
    rec's body (``recs``), since an unfolding puts them there.  Otherwise a
    binder keeps its name unless it would capture an incoming name, one
    that ``ren`` maps to or one free in the body of ``rec``; then it
    becomes ``name#i``.  Given ``rec``, each call of ``rec.name`` becomes
    that recursion, unless an inner rec of that name shadows it."""
    if not ren and fresh is None and rec is None or isinstance(p, BNil):
        return p
    look = lambda names: tuple([ren.get(n, n) for n in names])
    if isinstance(p, BTau):
        return BTau(_rewrite(p.cont, ren, fresh, rec, recs))
    if isinstance(p, BOut):
        return BOut(ren.get(p.chan, p.chan), look(p.names), _rewrite(p.cont, ren, fresh, rec, recs))
    if isinstance(p, BIn):
        names, inner = _bind(p.vars, p.cont, ren, fresh, rec)
        return BIn(ren.get(p.chan, p.chan), names, _rewrite(p.cont, inner, fresh, rec, recs))
    if isinstance(p, BSum):
        return BSum(_rewrite(p.left, ren, fresh, rec, recs),
                    _rewrite(p.right, ren, fresh, rec, recs))
    if isinstance(p, BRec):
        if rec is not None and rec.name == p.name:
            rec = None
        body_ren, body_fresh = ren, fresh
        if fresh is not None:
            recs = {k: v for k, v in (recs or {}).items() if k != p.name}
            own = _free(p.body, frozenset(p.params), {})
            used = _free(p.body, frozenset(p.params), recs)
            if ren.keys().isdisjoint(own):
                body_ren, body_fresh = {}, _fresh_names(used)
            # the names of the rec's body as this walk prints them
            recs[p.name] = frozenset([ren.get(n, n) for n in own]) | (used - own)
        params, inner = _bind(p.params, p.body, body_ren, body_fresh, rec)
        return BRec(p.name, params, _rewrite(p.body, inner, body_fresh, rec, recs), look(p.args))
    if isinstance(p, BCall):
        if rec is not None and rec.name == p.name:
            return BRec(rec.name, rec.params, rec.body, look(p.args))
        return BCall(p.name, look(p.args))
    raise TypeError(f"not a sequential bpi term: {p!r}")


def _bind(binders: tuple, body: BpiProcess, ren: dict, fresh, rec) -> tuple:
    """The names that ``binders`` take in ``_rewrite``, and the renaming
    under them."""
    inner = {k: v for k, v in ren.items() if k not in binders}
    if fresh is not None:
        names = tuple([next(fresh) for _ in binders])
        inner.update(zip(binders, names))  # all of them, so a rec body sees what is bound
        return names, inner
    incoming = {v for k, v in inner.items() if k != v}
    if rec is not None:
        incoming |= _free(rec.body, frozenset(rec.params), {})
    if incoming.isdisjoint(binders):
        return binders, inner
    avoid = incoming | set(binders) | _free(body, frozenset(), {})
    for b in binders:
        if b in incoming:
            inner[b] = next(n for n in (f"{b}#{i}" for i in count()) if n not in avoid)
            avoid.add(inner[b])
    return tuple(inner.get(b, b) for b in binders), inner


# ---------------------------------------------------------------------------
# Broadcast transitions

TAU = ("tau",)


def _seq_outs(g: BpiProcess):
    """(label, successor) pairs for tau and output prefixes of a
    sequential term, through choice and recursion unfolding."""
    if isinstance(g, (BNil, BIn)):
        return
    elif isinstance(g, BTau):
        yield TAU, g.cont
    elif isinstance(g, BOut):
        yield ("out", g.chan, g.names), g.cont
    elif isinstance(g, BSum):
        yield from _seq_outs(g.left)
        yield from _seq_outs(g.right)
    elif isinstance(g, BRec):
        yield from _seq_outs(_unfold(g))
    elif isinstance(g, BCall):
        raise UnboundRecursionVariable(f"unbound recursion variable {g.name}")
    else:
        raise TypeError(f"not a sequential bpi term: {g!r}")


def _seq_ins(g: BpiProcess, chan: str, values: tuple):
    """(accepting successors, can_discard) for a broadcast chan(values)."""
    if isinstance(g, (BNil, BTau, BOut)):
        return [], True
    if isinstance(g, BIn):
        if g.chan != chan or len(g.vars) != len(values):
            return [], True
        return [subst_names(g.cont, dict(zip(g.vars, values)))], False
    if isinstance(g, BSum):
        al, dl = _seq_ins(g.left, chan, values)
        ar, dr = _seq_ins(g.right, chan, values)
        return al + ar, dl and dr
    if isinstance(g, BRec):
        return _seq_ins(_unfold(g), chan, values)
    if isinstance(g, BCall):
        raise UnboundRecursionVariable(f"unbound recursion variable {g.name}")
    raise TypeError(f"not a sequential bpi term: {g!r}")


def _walk(p: BpiProcess, canon) -> Walk:
    """The walk of a term's exploration: its top-level ``||`` is the
    skeleton and its sequential operands the leaves.  A tau reaches no
    other operand."""
    return Walk(p, canon, lambda g: _seq_outs(g), lambda g, msg: _seq_ins(g, *msg[1:]),
                lambda lab: None if lab == TAU else ("in", *lab[1:]), BPar)


def bpi_steps(p: BpiProcess, universe=()) -> list:
    """All transitions of a closed term: autonomous tau/output moves plus,
    for every input label ``("in", chan, values)`` of the universe, the
    broadcast-input moves."""
    walk = _walk(p, lambda g: g)
    return [(lab, walk.tree(q)) for lab, q in walk.steps(walk.initial, universe)]


# ---------------------------------------------------------------------------
# Encoding into attribute-based components


def _name_expr(name: str, bound: frozenset):
    return Var(name) if name in bound else Const(name)


def encode_proc(g: BpiProcess, bound: frozenset, defs: dict) -> tuple:
    """The translation of a sequential term, and the names that it
    mentions, collected as it is built: channels, values, binders and call
    arguments, but not the bodies of recursions, which go to ``defs``.  An
    input's channel variable is the first ``_y<i>`` that its continuation,
    its channel and its binders do not mention."""
    if isinstance(g, BNil):
        return Inact(), set()
    if isinstance(g, BTau):
        cont, names = encode_proc(g.cont, bound, defs)
        return Out((), FF, cont), names
    if isinstance(g, BOut):
        cont, names = encode_proc(g.cont, bound, defs)
        names.update((g.chan, *g.names))
        return Out(tuple([_name_expr(n, bound) for n in (g.chan, *g.names)]), TT, cont), names
    if isinstance(g, BIn):
        cont, names = encode_proc(g.cont, bound | frozenset(g.vars), defs)
        names.update((g.chan, *g.vars))
        y = next(n for n in map("_y{}".format, count()) if n not in names)
        names.add(y)
        return In(Atom("==", Var(y), _name_expr(g.chan, bound)), (y, *g.vars), cont), names
    if isinstance(g, BSum):
        left, names = encode_proc(g.left, bound, defs)
        right, more = encode_proc(g.right, bound, defs)
        if len(more) > len(names):
            names, more = more, names
        names |= more
        return Choice(left, right), names
    if isinstance(g, BRec):
        outer = sorted(_free(g.body, frozenset(g.params), {}) & bound)
        if outer:
            raise EncodingError(f"recursion {g.name} uses {outer[0]}, a name bound outside it")
        entry = (tuple(g.params), encode_proc(g.body, frozenset(g.params), defs)[0])
        if g.name in defs and defs[g.name] != entry:
            raise EncodingError(f"recursion name {g.name} reused with a different body")
        defs[g.name] = entry
    elif not isinstance(g, BCall):
        raise TypeError(f"not a sequential bpi term: {g!r}")
    # a rec, like a call, becomes a call of its definition
    return Call(g.name, tuple([_name_expr(a, bound) for a in g.args])), set(g.args)


def encode(p: BpiProcess):
    """Translate a closed broadcast term into a component (empty attribute
    environment and interface) plus the process definitions it needs."""
    defs: dict = {}
    shape, operands = flatten(p, BPar)
    return rebuild(_abc_shape(shape), [_encode_leaf(g, defs) for g in operands]), defs


def _encode_leaf(g: BpiProcess, defs: dict) -> Leaf:
    return Leaf(AttrEnv(), frozenset(), encode_proc(g, frozenset(), defs)[0])


def _abc_shape(shape: tuple) -> tuple:
    """The skeleton of a term's translation: each ``||`` becomes one."""
    return tuple([None if node is None else (ParC, None) for node in shape])


# ---------------------------------------------------------------------------
# Correspondence harness


class CorrespondenceReport(Record):
    def __init__(self, states_checked=0, transitions_checked=0, universe=(), violations=None):
        self.states_checked = states_checked
        self.transitions_checked = transitions_checked
        self.universe = universe
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


def harvest_bpi_universe(p: BpiProcess, bounds=DEFAULT_BOUNDS) -> tuple:
    """Fixpoint of the broadcast alphabet, with its closure: every emitted
    ``("out", chan, values)`` is fed back as the input ``("in", chan,
    values)`` it delivers until no new one appears.  Returns the universe
    and the closure: its states, their steps and the walk that found
    them."""
    return alphabet_fixpoint(unstepped(_walk(p, canon_bpi)),
                             lambda have, heard: tuple(sorted({*have, *heard})), (),
                             bounds.max_states)


def _abc_label(lab) -> sem.Label:
    if lab == TAU:
        return sem.Label(sem.OUT, AttrEnv(), FF, ())
    kind, chan, values = lab
    abc_kind = sem.OUT if kind == "out" else sem.IN
    return sem.Label(abc_kind, AttrEnv(), TT, (chan,) + tuple(values))


def _unmatched(bsteps, mapped, asteps) -> list:
    """The violations of a bijective matching per label, targets as
    multisets: a source step takes the first unmatched equal target step."""
    wrong = []
    if len(bsteps) != len(asteps):
        wrong.append(("transition-count", len(bsteps), len(asteps)))
    offered, taken = Counter(asteps), Counter()
    for (lab, _), want in zip(bsteps, mapped):
        if taken[want] < offered[want]:
            taken[want] += 1
        else:
            wrong.append(("unmatched-source-step", lab))
    for extra in asteps:
        if taken[extra]:
            taken[extra] -= 1
        else:
            wrong.append(("unmatched-target-step", extra[0]))
    return wrong


def correspondence_check(p: BpiProcess, bounds=DEFAULT_BOUNDS) -> CorrespondenceReport:
    """Walk the broadcast transition system and, at every reachable state,
    require a label-preserving bijection between its transitions and the
    transitions of its translation, with matching barbs."""
    universe, closure = harvest_bpi_universe(p, bounds)
    states, steps, walk = closure
    # numbered in ``bpi_steps`` order: tau and outputs as found, then inputs
    reach(closure, lambda q: walk.steps(q, universe),
          lambda lab: lab[1:] if lab[0] == "in" else (), lambda q: 0, bounds)
    report = CorrespondenceReport(len(states), sum(map(len, steps)), universe)

    # one translation for the whole walk: the definitions of every state in
    # one dict (a recursion name with two bodies raises EncodingError), and
    # each sequential term encoded once, its leaf id in the translation's
    # walk, over the same skeleton
    defs: dict = {}
    leaf = cache(lambda g: _encode_leaf(walk.leaves[g], defs))
    try:
        target = abc_walk(rebuild(_abc_shape(walk.shape), [leaf(g) for g in walk.initial]), defs)
        leaf_id = cache(lambda g: target.intern(leaf(g)))
        encoded = [tuple([leaf_id(g) for g in q]) for q in states]
    except EncodingError:
        encode(p)  # where the term's own translation fails, say it in its names
        raise
    abc_label = cache(lambda lab: target.label(_abc_label(lab)))
    abc_universe = [abc_label(msg) for msg in universe]

    for q, comp, bsteps in zip(states, encoded, steps):
        asteps = target.steps(comp, abc_universe)
        mapped = [(abc_label(lab), encoded[dst]) for lab, dst in bsteps]
        # equal lists leave nothing to explain, barbs included: ``_abc_label``
        # makes an output on c, and nothing else, a tt output whose first
        # value is c.  Both walks compose over one skeleton in one order, so
        # steps that match come in the same order; steps that match in
        # another order would give the matching below nothing to report
        if mapped == asteps:
            continue
        # this state's violations, each without the state
        wrong = _unmatched(bsteps, mapped, asteps)
        src_barbs = frozenset(lab[1] for lab, _ in bsteps if lab[0] == "out")
        tgt_barbs = frozenset(
            lab.values[0]
            for lab, _ in asteps
            if lab.kind == sem.OUT and isinstance(lab.pred, Tt) and lab.values
        )
        if src_barbs != tgt_barbs:
            wrong.append(("barb-mismatch", src_barbs, tgt_barbs))
        cur = walk.tree(q)
        report.violations += [(kind, cur, *rest) for kind, *rest in wrong]
    return report
