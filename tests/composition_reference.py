"""The recursive composition of system steps that ``lts.Walk`` replaced,
kept as the reference it is checked against: ``system_out_steps`` and
``system_in_step`` for component trees, ``par_outs`` and ``par_ins`` for
broadcast terms.  Each rebuilds the tree per message and composes the
local steps ``local`` of its leaves, with its own discard rule: a leaf's
successors on a message are the accepting ones, then the leaf itself when
it can discard.  A silent output reaches no one: a component's output
whose predicate the solver finds unsatisfiable, or a broadcast term's
tau."""

from abcalc import bpi as bp
from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.predicates import EMPTY_DOMAINS
from abcalc.semantics import IN, OUT, Label
from abcalc.terms import Leaf, ParC, ResIn, ResOut


def leaf_steps(defs, domains=EMPTY_DOMAINS) -> tuple:
    """A leaf's output steps, and its successors on an input message."""

    def ins(leaf, msg):
        accepts, can_discard = sem.component_in_step(leaf, msg, defs, domains)
        return accepts + [leaf] if can_discard else accepts

    return (lambda leaf: sem.component_out_steps(leaf, defs, domains)), ins


def seq_reacts(g, chan, values) -> list:
    """A sequential term's successors on a broadcast chan(values)."""
    accepts, can_discard = bp._seq_ins(g, chan, values)
    return accepts + [g] if can_discard else accepts


def system_out_steps(c, defs, domains=EMPTY_DOMAINS, local=None):
    """All system-level output transitions of a component tree, composed
    from the leaf steps ``local`` (by default ``leaf_steps(defs, domains)``)."""
    local = local or leaf_steps(defs, domains)
    if isinstance(c, Leaf):
        return list(local[0](c))
    out = []
    if isinstance(c, ParC):
        for label, l2 in system_out_steps(c.left, defs, domains, local):
            for r2 in delivered(c.right, label, defs, domains, local):
                out.append((label, ParC(l2, r2)))
        for label, r2 in system_out_steps(c.right, defs, domains, local):
            for l2 in delivered(c.left, label, defs, domains, local):
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


def delivered(c, label, defs, domains, local) -> list:
    """The successors of ``c`` when the output ``label`` is sent beside it:
    ``c`` itself when the output is silent."""
    if pr.is_ff(label.pred, domains):
        return [c]
    return system_in_step(c, label.as_input(), defs, domains, local)


def system_in_step(c, msg, defs, domains=EMPTY_DOMAINS, local=None):
    """All successors after the environment injects an input label.  Empty
    only when some leaf must accept but its accepting step fails to
    evaluate; otherwise every leaf accepts or discards."""
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


SEQ_STEPS = (lambda g: bp._seq_outs(g), seq_reacts)


def par_ins(p, chan, values, local=SEQ_STEPS) -> list:
    if isinstance(p, bp.BPar):
        lefts = par_ins(p.left, chan, values, local)
        rights = par_ins(p.right, chan, values, local) if lefts else []
        return [bp.BPar(l2, r2) for l2 in lefts for r2 in rights]
    return list(local[1](p, chan, values))


def par_outs(p, local=SEQ_STEPS):
    if not isinstance(p, bp.BPar):
        yield from local[0](p)
        return
    for label, l2 in par_outs(p.left, local):
        if label == bp.TAU:
            yield label, bp.BPar(l2, p.right)
        else:
            _, chan, values = label
            for r2 in par_ins(p.right, chan, values, local):
                yield label, bp.BPar(l2, r2)
    for label, r2 in par_outs(p.right, local):
        if label == bp.TAU:
            yield label, bp.BPar(p.left, r2)
        else:
            _, chan, values = label
            for l2 in par_ins(p.left, chan, values, local):
                yield label, bp.BPar(l2, r2)


def bpi_steps(p, universe=(), local=SEQ_STEPS) -> list:
    """All transitions of a closed term, as ``bpi.bpi_steps`` gives them:
    the universe holds input labels ``("in", chan, values)``."""
    steps = list(par_outs(p, local))
    for msg in universe:
        steps += [(msg, p2) for p2 in par_ins(p, *msg[1:], local)]
    return steps
