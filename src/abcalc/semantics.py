"""The two transition relations: component-level steps of a single leaf
and system-level steps of a full component tree.

Output enumeration walks the process structure (Brd plus the choice /
interleave / awareness / recursion contexts).  Input handling returns,
for a leaf, the set of accepting successors together with whether the
discard derivation exists; a leaf whose input prefix satisfies both
receive constraints cannot discard, which is what keeps dynamic
operators honest.  At system level a broadcast from one side of a
parallel composition is delivered eagerly to every sibling, which either
accepts (possibly in several ways) or stays unchanged.

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
    Component,
    EvalError,
    In,
    Inact,
    Leaf,
    Node,
    Out,
    ParC,
    ParP,
    Process,
    ResIn,
    ResOut,
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


def leaf_steps(defs, domains: DomainContext = EMPTY_DOMAINS) -> tuple:
    """The local steps that system steps compose: a leaf's output steps,
    and its successors on an input message (accepting ones, then the leaf
    itself when it can discard)."""

    def ins(leaf, msg):
        accepts, can_discard = component_in_step(leaf, msg, defs, domains)
        return accepts + [leaf] if can_discard else accepts

    return (lambda leaf: component_out_steps(leaf, defs, domains)), ins


# ---------------------------------------------------------------------------
# System level


def system_out_steps(c: Component, defs, domains: DomainContext = EMPTY_DOMAINS, local=None):
    """All system-level output transitions of a component tree, composed
    from the leaf steps ``local`` (by default ``leaf_steps(defs, domains)``)."""
    local = local or leaf_steps(defs, domains)
    if isinstance(c, Leaf):
        return list(local[0](c))
    out = []
    if isinstance(c, ParC):
        for label, l2 in system_out_steps(c.left, defs, domains, local):
            for r2 in system_in_step(c.right, label.as_input(), defs, domains, local):
                out.append((label, ParC(l2, r2)))
        for label, r2 in system_out_steps(c.right, defs, domains, local):
            for l2 in system_in_step(c.left, label.as_input(), defs, domains, local):
                out.append((label, ParC(l2, r2)))
    elif isinstance(c, ResOut):
        for label, c2 in system_out_steps(c.comp, defs, domains, local):
            extra = pr.instantiate(c.fn, label.env, label.values)
            strengthened = Label(OUT, label.env, pr.And(label.pred, extra), label.values)
            out.append((strengthened, ResOut(c2, c.fn)))
    elif isinstance(c, ResIn):
        for label, c2 in system_out_steps(c.comp, defs, domains, local):
            out.append((label, ResIn(c2, c.fn)))
    else:
        raise TypeError(f"not a component: {c!r}")
    return out


def system_in_step(c: Component, msg: Label, defs, domains: DomainContext = EMPTY_DOMAINS,
                   local=None):
    """All successors after the environment injects an input label,
    composed from the leaf steps ``local`` as in ``system_out_steps``.

    Empty only when some leaf must accept but its accepting step fails to
    evaluate; otherwise every leaf accepts or discards.
    """
    local = local or leaf_steps(defs, domains)
    if isinstance(c, Leaf):
        return list(local[1](c, msg))
    if isinstance(c, ParC):
        lefts = system_in_step(c.left, msg, defs, domains, local)
        rights = system_in_step(c.right, msg, defs, domains, local) if lefts else []
        return [ParC(l2, r2) for l2 in lefts for r2 in rights]
    if isinstance(c, ResIn):
        extra = pr.instantiate(c.fn, msg.env, msg.values)
        inner = Label(IN, msg.env, pr.And(msg.pred, extra), msg.values)
        return [ResIn(c2, c.fn) for c2 in system_in_step(c.comp, inner, defs, domains, local)]
    if isinstance(c, ResOut):
        return [ResOut(c2, c.fn) for c2 in system_in_step(c.comp, msg, defs, domains, local)]
    raise TypeError(f"not a component: {c!r}")
