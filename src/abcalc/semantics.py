"""Component-level steps of a single leaf, and the labels they carry.

Output enumeration walks the process structure (Brd plus the choice /
interleave / awareness / recursion contexts).  Input handling returns,
for a leaf, the set of accepting successors together with whether the
discard derivation exists; a leaf whose input prefix satisfies both
receive constraints cannot discard, which is what keeps dynamic
operators honest.  System steps are composed from these leaf steps by
``lts.Walk``: a broadcast from one leaf is delivered eagerly to every
other leaf, which accepts (possibly in several ways) or, when it can
discard, stays unchanged, and a restriction on the way strengthens the
label (``Label.restrict``).  A silent output, one whose predicate no
valuation satisfies (``lts.silent``), is delivered to no leaf.

A step whose expressions fail to evaluate does not exist: for an output
that is the output itself, for an input the accepting successor (the
discard still exists exactly when the input guard does not hold).  A
call whose arguments fail to evaluate has no steps, like 0.  A call to
an undefined process or with the wrong number of arguments is an error
of the model and raises, and so does an update that leaves the declared
domain of its attribute.
"""

from __future__ import annotations

from . import predicates as pr
from .predicates import EMPTY_DOMAINS, DomainContext
from .terms import (
    ZERO,
    ArityMismatch,
    Aware,
    Call,
    Choice,
    EvalError,
    In,
    Inact,
    Leaf,
    Node,
    Out,
    ParP,
    Process,
    Upd,
    apply_updates,
    eval_expr,
    subst_pred,
    substitute,
)

OUT = "out"
IN = "in"


class Label(Node):
    kind: str  # OUT or IN
    env: "object"  # AttrEnv, already restricted to the sender interface
    pred: "object"  # closed Predicate
    values: tuple
    _by_value = ("values",)

    def as_input(self) -> "Label":
        return Label(IN, self.env, self.pred, self.values)

    def restrict(self, fn) -> "Label":
        """The label with its predicate strengthened by the restriction
        ``fn`` at its sender and values: what ``restrictOut`` does to an
        output leaving it and ``restrictIn`` to a message entering it."""
        extra = pr.instantiate(fn, self.env, self.values)
        return Label(self.kind, self.env, pr.And(self.pred, extra), self.values)


class UnboundProcessName(Exception):
    pass


def _resolve(call: Call, defs, env) -> Process:
    if call.name not in defs:
        raise UnboundProcessName(f"undefined process {call.name}")
    params, body = defs[call.name]
    if len(params) != len(call.args):
        raise ArityMismatch(f"{call.name} expects {len(params)} arguments, got {len(call.args)}")
    try:
        args = tuple(eval_expr(a, env) for a in call.args)
    except EvalError:
        return ZERO
    return substitute(body, params, args)


# ---------------------------------------------------------------------------
# Component level


def component_out_steps(leaf: Leaf, defs, domains: DomainContext = EMPTY_DOMAINS):
    """All output transitions of a single leaf, as (Label, Leaf) pairs."""
    out = []
    for values, pred, succ in _proc_outs(leaf.env, leaf.iface, leaf.proc, defs, domains):
        label = Label(OUT, leaf.env.restrict(leaf.iface), pred, values)
        out.append((label, succ))
    return out


def _proc_outs(env, iface, proc, defs, domains):
    if isinstance(proc, (Inact, In, Upd)):
        return
    elif isinstance(proc, Out):
        try:
            values = tuple(eval_expr(e, env) for e in proc.exprs)
            pred = pr.close(proc.pred, env)
            succ = apply_updates(Leaf(env, iface, proc.cont), domains)
        except EvalError:
            return
        yield values, pred, succ
    elif isinstance(proc, Aware):
        if _aware_holds(env, proc.pred):
            yield from _proc_outs(env, iface, proc.proc, defs, domains)
    elif isinstance(proc, Choice):
        yield from _proc_outs(env, iface, proc.left, defs, domains)
        yield from _proc_outs(env, iface, proc.right, defs, domains)
    elif isinstance(proc, ParP):
        for values, pred, succ in _proc_outs(env, iface, proc.left, defs, domains):
            yield values, pred, Leaf(succ.env, iface, ParP(succ.proc, proc.right))
        for values, pred, succ in _proc_outs(env, iface, proc.right, defs, domains):
            yield values, pred, Leaf(succ.env, iface, ParP(proc.left, succ.proc))
    elif isinstance(proc, Call):
        yield from _proc_outs(env, iface, _resolve(proc, defs, env), defs, domains)
    else:
        raise TypeError(f"not a process: {proc!r}")


def _aware_holds(env, pred) -> bool:
    try:
        return pr.satisfies(env, pr.close(pred, env))
    except EvalError:
        return False


def component_in_step(leaf: Leaf, msg: Label, defs, domains: DomainContext = EMPTY_DOMAINS):
    """Responses of a leaf to an input label.

    Returns (accepts, can_discard): the accepting successor leaves, and
    whether the discard derivation exists.  Both are empty only when the
    input guard holds but the accepting step fails to evaluate.
    """
    return _proc_ins(leaf.env, leaf.iface, leaf.proc, msg, defs, domains)


def _proc_ins(env, iface, proc, msg, defs, domains):
    if isinstance(proc, (Inact, Out, Upd)):
        return [], True
    if isinstance(proc, In):
        if len(proc.vars) != len(msg.values):
            return [], True
        if not pr.satisfies(env.restrict(iface), msg.pred):
            return [], True
        try:
            recv_pred = pr.close(subst_pred(proc.pred, proc.vars, msg.values), env)
        except EvalError:
            return [], True
        if not pr.satisfies(msg.env, recv_pred):
            return [], True
        cont = substitute(proc.cont, proc.vars, msg.values)
        try:
            return [apply_updates(Leaf(env, iface, cont), domains)], False
        except EvalError:
            return [], False
    if isinstance(proc, Aware):
        if _aware_holds(env, proc.pred):
            return _proc_ins(env, iface, proc.proc, msg, defs, domains)
        return [], True
    if isinstance(proc, Choice):
        al, dl = _proc_ins(env, iface, proc.left, msg, defs, domains)
        ar, dr = _proc_ins(env, iface, proc.right, msg, defs, domains)
        return al + ar, dl and dr
    if isinstance(proc, ParP):
        al, dl = _proc_ins(env, iface, proc.left, msg, defs, domains)
        ar, dr = _proc_ins(env, iface, proc.right, msg, defs, domains)
        accepts = [Leaf(s.env, iface, ParP(s.proc, proc.right)) for s in al]
        accepts += [Leaf(s.env, iface, ParP(proc.left, s.proc)) for s in ar]
        return accepts, dl and dr
    if isinstance(proc, Call):
        return _proc_ins(env, iface, _resolve(proc, defs, env), msg, defs, domains)
    raise TypeError(f"not a process: {proc!r}")

