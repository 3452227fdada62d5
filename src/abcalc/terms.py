"""Abstract syntax for attribute-based components and processes.

Values are plain Python data: int, bool, str (names), tuple and frozenset
of values.  Everything else (expressions, predicates, processes,
components) is a frozen dataclass, so structural equality and hashing
come for free and terms can be used as LTS states directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Value = Union[int, bool, str, tuple, frozenset]


class EvalError(Exception):
    """Base class for failures while evaluating expressions."""


class UndefinedAttribute(EvalError):
    pass


class OperatorDomainError(EvalError):
    pass


class ArityMismatch(EvalError):
    pass


class DomainViolation(Exception):
    """An attribute update left its declared finite domain."""


def value_key(v: Value):
    """Total order / equality key for values.

    Keeps bool distinct from int (Python would identify True == 1) and
    makes sets comparable by sorting their elements.
    """
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, str):
        return ("n", v)
    if isinstance(v, tuple):
        return ("t", tuple(value_key(x) for x in v))
    if isinstance(v, frozenset):
        return ("s", tuple(sorted(value_key(x) for x in v)))
    raise TypeError(f"not a value: {v!r}")


def values_equal(v: Value, w: Value) -> bool:
    return value_key(v) == value_key(w)


def is_value(v) -> bool:
    try:
        value_key(v)
    except TypeError:
        return False
    return True


# ---------------------------------------------------------------------------
# Attribute environments


@dataclass(frozen=True)
class AttrEnv:
    """Finite partial map from attribute identifiers to values.

    Lookup of an unmapped identifier yields None (the undefined result),
    never a value.
    """

    items: tuple = ()

    @staticmethod
    def of(mapping) -> "AttrEnv":
        items = tuple(sorted(mapping.items()))
        return AttrEnv(items)

    def get(self, attr: str):
        for a, v in self.items:
            if a == attr:
                return v
        return None

    def set(self, attr: str, value: Value) -> "AttrEnv":
        d = dict(self.items)
        d[attr] = value
        return AttrEnv.of(d)

    def restrict(self, iface: frozenset) -> "AttrEnv":
        return AttrEnv(tuple((a, v) for a, v in self.items if a in iface))

    def domain(self) -> frozenset:
        return frozenset(a for a, _ in self.items)

    def as_dict(self) -> dict:
        return dict(self.items)


def restrict_env(env: AttrEnv, iface: frozenset) -> AttrEnv:
    return env.restrict(iface)


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Const:
    value: Value


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Attr:
    """A bare attribute identifier; evaluated in whatever environment the
    enclosing predicate is checked against."""

    name: str


@dataclass(frozen=True)
class SelfAttr:
    """this.a — the executing component's own attribute."""

    name: str


@dataclass(frozen=True)
class MsgIdx:
    """msg[i] inside a restriction-function template."""

    index: int


@dataclass(frozen=True)
class SndAttr:
    """snd.a inside a restriction-function template."""

    name: str


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple


Expr = Union[Const, Var, Attr, SelfAttr, MsgIdx, SndAttr, Op]


def _op_add(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, int) or not isinstance(b, int):
        raise OperatorDomainError("+ expects integers")
    return a + b


def _op_sub(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, int) or not isinstance(b, int):
        raise OperatorDomainError("- expects integers")
    return a - b


def _op_mul(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, int) or not isinstance(b, int):
        raise OperatorDomainError("* expects integers")
    return a * b


def _op_tup(*args):
    return tuple(args)


def _op_proj(t, i):
    if not isinstance(t, tuple) or isinstance(i, bool) or not isinstance(i, int):
        raise OperatorDomainError("proj expects (tuple, int)")
    if not 0 <= i < len(t):
        raise OperatorDomainError(f"projection index {i} out of range")
    return t[i]


def _as_set(s):
    if not isinstance(s, frozenset):
        raise OperatorDomainError("expected a set value")
    return s


def _op_insert(s, v):
    s = _as_set(s)
    if any(values_equal(x, v) for x in s):
        return s
    return s | {v}


def _op_remove(s, v):
    s = _as_set(s)
    return frozenset(x for x in s if not values_equal(x, v))


def _op_contains(s, v):
    s = _as_set(s)
    return any(values_equal(x, v) for x in s)


# name -> (arity or None for variadic, implementation)
OPERATORS = {
    "+": (2, _op_add),
    "-": (2, _op_sub),
    "*": (2, _op_mul),
    "tup": (None, _op_tup),
    "proj": (2, _op_proj),
    "insert": (2, _op_insert),
    "remove": (2, _op_remove),
    "contains": (2, _op_contains),
}


def eval_expr(e: Expr, env: AttrEnv, subst=None) -> Value:
    """Evaluate a closed expression under an attribute environment.

    `subst` maps variable names to values; an unmapped variable or an
    undefined attribute aborts the enclosing transition attempt by
    raising EvalError.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if subst and e.name in subst:
            return subst[e.name]
        raise EvalError(f"unbound variable {e.name}")
    if isinstance(e, (Attr, SelfAttr)):
        v = env.get(e.name)
        if v is None:
            raise UndefinedAttribute(e.name)
        return v
    if isinstance(e, (MsgIdx, SndAttr)):
        raise EvalError("restriction-template reference outside instantiation")
    if isinstance(e, Op):
        arity, fn = OPERATORS[e.name]
        if arity is not None and len(e.args) != arity:
            raise ArityMismatch(f"{e.name} expects {arity} arguments")
        return fn(*(eval_expr(a, env, subst) for a in e.args))
    raise TypeError(f"not an expression: {e!r}")


def expr_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Op):
        out = frozenset()
        for a in e.args:
            out |= expr_vars(a)
        return out
    return frozenset()


def subst_expr(e: Expr, mapping: dict) -> Expr:
    """Replace variables by constant values."""
    if isinstance(e, Var) and e.name in mapping:
        return Const(mapping[e.name])
    if isinstance(e, Op):
        return Op(e.name, tuple(subst_expr(a, mapping) for a in e.args))
    return e


# ---------------------------------------------------------------------------
# Predicates


@dataclass(frozen=True)
class Tt:
    pass


@dataclass(frozen=True)
class Ff:
    pass


@dataclass(frozen=True)
class Atom:
    op: str  # '==', '!=', '<', '<=', '>', '>=', 'in'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not:
    pred: "Predicate"


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"


Predicate = Union[Tt, Ff, Atom, Not, And, Or]

TT = Tt()
FF = Ff()


def _atoms(pred: Predicate):
    if isinstance(pred, Atom):
        yield pred
    elif isinstance(pred, Not):
        yield from _atoms(pred.pred)
    elif isinstance(pred, (And, Or)):
        yield from _atoms(pred.left)
        yield from _atoms(pred.right)


def _map_atoms(pred: Predicate, f) -> Predicate:
    if isinstance(pred, (Tt, Ff)):
        return pred
    if isinstance(pred, Atom):
        return Atom(pred.op, f(pred.left), f(pred.right))
    if isinstance(pred, Not):
        return Not(_map_atoms(pred.pred, f))
    if isinstance(pred, And):
        return And(_map_atoms(pred.left, f), _map_atoms(pred.right, f))
    if isinstance(pred, Or):
        return Or(_map_atoms(pred.left, f), _map_atoms(pred.right, f))
    raise TypeError(f"not a predicate: {pred!r}")


def subst_pred(pred: Predicate, mapping_or_names, values=None) -> Predicate:
    """Textual simultaneous substitution of variables by values."""
    if values is not None:
        names = tuple(mapping_or_names)
        values = tuple(values)
        if len(names) != len(values):
            raise ArityMismatch(f"{len(names)} variables vs {len(values)} values")
        mapping = dict(zip(names, values))
    else:
        mapping = mapping_or_names
    if not mapping:
        return pred
    return _map_atoms(pred, lambda e: subst_expr(e, mapping))


def rename_pred_vars(pred: Predicate, ren: dict) -> Predicate:
    return _map_atoms(pred, lambda e: _rename_expr(e, ren))


def pred_vars(pred: Predicate) -> frozenset:
    out = frozenset()
    for a in _atoms(pred):
        out |= expr_vars(a.left) | expr_vars(a.right)
    return out


# ---------------------------------------------------------------------------
# Processes


@dataclass(frozen=True)
class Inact:
    """The inactive process 0."""


@dataclass(frozen=True)
class Out:
    exprs: tuple  # tuple[Expr]
    pred: Predicate
    cont: "Process"


@dataclass(frozen=True)
class In:
    pred: Predicate
    vars: tuple  # tuple[str]
    cont: "Process"


@dataclass(frozen=True)
class Upd:
    """A pending sequence of attribute updates; only ever appears directly
    under an action prefix and is consumed atomically with it."""

    assigns: tuple  # tuple[(attr, Expr)]
    cont: "Process"


@dataclass(frozen=True)
class Aware:
    pred: Predicate
    proc: "Process"


@dataclass(frozen=True)
class Choice:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class ParP:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple = ()  # tuple[Expr]


Process = Union[Inact, Out, In, Upd, Aware, Choice, ParP, Call]

ZERO = Inact()


def free_vars(p: Process, bound: frozenset = frozenset()) -> frozenset:
    if isinstance(p, Inact):
        return frozenset()
    if isinstance(p, Out):
        fv = frozenset()
        for e in p.exprs:
            fv |= expr_vars(e)
        fv |= pred_vars(p.pred)
        return (fv - bound) | free_vars(p.cont, bound)
    if isinstance(p, In):
        fv = pred_vars(p.pred) - bound - frozenset(p.vars)
        return fv | free_vars(p.cont, bound | frozenset(p.vars))
    if isinstance(p, Upd):
        fv = frozenset()
        for _, e in p.assigns:
            fv |= expr_vars(e)
        return (fv - bound) | free_vars(p.cont, bound)
    if isinstance(p, Aware):
        return (pred_vars(p.pred) - bound) | free_vars(p.proc, bound)
    if isinstance(p, (Choice, ParP)):
        return free_vars(p.left, bound) | free_vars(p.right, bound)
    if isinstance(p, Call):
        fv = frozenset()
        for e in p.args:
            fv |= expr_vars(e)
        return fv - bound
    raise TypeError(f"not a process: {p!r}")


def substitute(p: Process, names, values) -> Process:
    """Capture-avoiding simultaneous substitution of variables by values.

    Input binders shadow; since only closed values are substituted in, no
    renaming is ever required.
    """
    names = tuple(names)
    values = tuple(values)
    if len(names) != len(values):
        raise ArityMismatch(f"{len(names)} variables vs {len(values)} values")
    return _subst(p, dict(zip(names, values)))


def _subst(p: Process, mapping: dict) -> Process:
    if not mapping:
        return p
    if isinstance(p, Inact):
        return p
    if isinstance(p, Out):
        return Out(
            tuple(subst_expr(e, mapping) for e in p.exprs),
            subst_pred(p.pred, mapping),
            _subst(p.cont, mapping),
        )
    if isinstance(p, In):
        inner = {k: v for k, v in mapping.items() if k not in p.vars}
        return In(subst_pred(p.pred, inner), p.vars, _subst(p.cont, inner))
    if isinstance(p, Upd):
        return Upd(
            tuple((a, subst_expr(e, mapping)) for a, e in p.assigns),
            _subst(p.cont, mapping),
        )
    if isinstance(p, Aware):
        return Aware(subst_pred(p.pred, mapping), _subst(p.proc, mapping))
    if isinstance(p, Choice):
        return Choice(_subst(p.left, mapping), _subst(p.right, mapping))
    if isinstance(p, ParP):
        return ParP(_subst(p.left, mapping), _subst(p.right, mapping))
    if isinstance(p, Call):
        return Call(p.name, tuple(subst_expr(e, mapping) for e in p.args))
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Components


@dataclass(frozen=True)
class RestrictionFn:
    """A predicate template over msg[i] / snd.a; instantiating it against a
    sender environment and value tuple yields a closed predicate."""

    name: str
    template: Predicate
    arity: int = 0


@dataclass(frozen=True)
class Leaf:
    env: AttrEnv
    iface: frozenset
    proc: Process


@dataclass(frozen=True)
class ParC:
    left: "Component"
    right: "Component"


@dataclass(frozen=True)
class ResOut:
    comp: "Component"
    fn: RestrictionFn


@dataclass(frozen=True)
class ResIn:
    comp: "Component"
    fn: RestrictionFn


Component = Union[Leaf, ParC, ResOut, ResIn]


def leaves(c: Component):
    if isinstance(c, Leaf):
        yield c
    elif isinstance(c, ParC):
        yield from leaves(c.left)
        yield from leaves(c.right)
    else:
        yield from leaves(c.comp)


def apply_updates(leaf: Leaf, domains=None) -> Leaf:
    """Strip leading update prefixes, folding each assignment into the
    environment left to right; later updates see earlier results."""
    env, proc = leaf.env, leaf.proc
    while isinstance(proc, Upd):
        for attr, e in proc.assigns:
            v = eval_expr(e, env)
            if domains is not None:
                dom = domains.get(attr)
                if dom is not None and not any(values_equal(v, d) for d in dom):
                    raise DomainViolation(f"{attr} := {v!r} outside declared domain")
            env = env.set(attr, v)
        proc = proc.cont
    return Leaf(env, leaf.iface, proc)


# ---------------------------------------------------------------------------
# Canonicalization: states are identified up to renaming of input binders.


def canonical(c: Component) -> Component:
    if isinstance(c, Leaf):
        proc, _ = _canon_proc(c.proc, {}, 0)
        return Leaf(c.env, c.iface, proc)
    if isinstance(c, ParC):
        return ParC(canonical(c.left), canonical(c.right))
    if isinstance(c, ResOut):
        return ResOut(canonical(c.comp), c.fn)
    if isinstance(c, ResIn):
        return ResIn(canonical(c.comp), c.fn)
    raise TypeError(f"not a component: {c!r}")


def _canon_proc(p: Process, ren: dict, counter: int):
    if isinstance(p, Inact):
        return p, counter
    if isinstance(p, Out):
        exprs = tuple(_rename_expr(e, ren) for e in p.exprs)
        pred = rename_pred_vars(p.pred, ren)
        cont, counter = _canon_proc(p.cont, ren, counter)
        return Out(exprs, pred, cont), counter
    if isinstance(p, In):
        fresh = tuple(f"x{counter + i}" for i in range(len(p.vars)))
        counter += len(p.vars)
        inner = dict(ren)
        inner.update(zip(p.vars, fresh))
        pred = rename_pred_vars(p.pred, inner)
        cont, counter = _canon_proc(p.cont, inner, counter)
        return In(pred, fresh, cont), counter
    if isinstance(p, Upd):
        assigns = tuple((a, _rename_expr(e, ren)) for a, e in p.assigns)
        cont, counter = _canon_proc(p.cont, ren, counter)
        return Upd(assigns, cont), counter
    if isinstance(p, Aware):
        pred = rename_pred_vars(p.pred, ren)
        proc, counter = _canon_proc(p.proc, ren, counter)
        return Aware(pred, proc), counter
    if isinstance(p, Choice):
        left, counter = _canon_proc(p.left, ren, counter)
        right, counter = _canon_proc(p.right, ren, counter)
        return Choice(left, right), counter
    if isinstance(p, ParP):
        left, counter = _canon_proc(p.left, ren, counter)
        right, counter = _canon_proc(p.right, ren, counter)
        return ParP(left, right), counter
    if isinstance(p, Call):
        return Call(p.name, tuple(_rename_expr(e, ren) for e in p.args)), counter
    raise TypeError(f"not a process: {p!r}")


def _rename_expr(e: Expr, ren: dict) -> Expr:
    if isinstance(e, Var) and e.name in ren:
        return Var(ren[e.name])
    if isinstance(e, Op):
        return Op(e.name, tuple(_rename_expr(a, ren) for a in e.args))
    return e
