"""Predicate semantics: satisfaction, closure, restriction instantiation,
domains, and a finite-witness solver for satisfiability, implication and
semantic equivalence.  The predicate tree itself lives in ``terms``.

The solver enumerates candidate environments built from the constants
occurring in the predicate, declared attribute domains, representative
integers around the mentioned constants, and one fresh name.  Candidate
environments are total on the mentioned attributes: satisfiability,
implication and equivalence quantify over total valuations, which is
what makes a != v equivalent to not (a = v).  This is complete for the
fixed atom catalogue (equality over structural values, integer order,
bounded set membership).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import product
from types import MappingProxyType

from .terms import (  # the tree and subst_pred are re-exported
    FF,
    TT,
    And,
    Atom,
    Attr,
    AttrEnv,
    Const,
    EvalError,
    Ff,
    MsgIdx,
    Node,
    Not,
    Or,
    Predicate,
    RestrictionFn,
    SelfAttr,
    SndAttr,
    Tt,
    UndefinedAttribute,
    atom_map,
    atoms,
    eval_expr,
    expr_leaves,
    map_atoms,
    subst_pred,
    value_key,
    values_equal,
)


_ORDER_OPS = ("<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# Satisfaction (two-valued: an atom whose operand fails to evaluate is
# unsatisfied, so a negation over it holds).


def _int_order(test):
    """The order ``test`` on two integers that are not bool; false on any
    other values."""
    return lambda a, b: (isinstance(a, int) and isinstance(b, int)
                         and not isinstance(a, bool) and not isinstance(b, bool) and test(a, b))


# the comparisons of atoms: each name -> its test on the two operand values
RELATIONS = MappingProxyType({
    "==": values_equal,
    "!=": lambda a, b: not values_equal(a, b),
    "<": _int_order(operator.lt),
    "<=": _int_order(operator.le),
    ">": _int_order(operator.gt),
    ">=": _int_order(operator.ge),
    "in": lambda a, s: isinstance(s, (frozenset, tuple)) and any(values_equal(x, a) for x in s),
})


def _eval_atom(p: Atom, env: AttrEnv) -> bool:
    try:
        lv = eval_expr(p.left, env)
        rv = eval_expr(p.right, env)
    except EvalError:
        return False
    return RELATIONS[p.op](lv, rv)


def satisfies(env: AttrEnv, pred: Predicate) -> bool:
    if isinstance(pred, Tt):
        return True
    if isinstance(pred, Ff):
        return False
    if isinstance(pred, Atom):
        return _eval_atom(pred, env)
    if isinstance(pred, Not):
        return not satisfies(env, pred.pred)
    if isinstance(pred, And):
        return satisfies(env, pred.left) and satisfies(env, pred.right)
    if isinstance(pred, Or):
        return satisfies(env, pred.left) or satisfies(env, pred.right)
    raise TypeError(f"not a predicate: {pred!r}")


# ---------------------------------------------------------------------------
# Closure and restriction instantiation


def close(pred: Predicate, env: AttrEnv) -> Predicate:
    """Replace every this.a by its value under env; bare attribute
    identifiers are left untouched."""
    if isinstance(pred, (Tt, Ff)):
        return pred

    def leaf(e):
        if not isinstance(e, SelfAttr):
            return e
        v = env.get(e.name)
        if v is None:
            raise UndefinedAttribute(e.name)
        return Const(v)

    return map_atoms(pred, atom_map(leaf))


def pred_attrs(pred: Predicate) -> frozenset:
    return frozenset(x.name for a in atoms(pred) for side in (a.left, a.right)
                     for x in expr_leaves(side) if isinstance(x, Attr))


class _Unresolved(Exception):
    pass


def instantiate(fn: RestrictionFn, env: AttrEnv, values: tuple) -> Predicate:
    """Evaluate a restriction template against a sender environment and
    value tuple.  Atoms with out-of-range msg indices or undefined sender
    attributes collapse to ff."""

    def leaf(e):
        if isinstance(e, MsgIdx):
            if 0 <= e.index < len(values):
                return Const(values[e.index])
            raise _Unresolved()
        if isinstance(e, SndAttr):
            v = env.get(e.name)
            if v is None:
                raise _Unresolved()
            return Const(v)
        return e

    on_atom = atom_map(leaf)

    def resolve(a: Atom) -> Predicate:
        try:
            return on_atom(a)
        except _Unresolved:
            return FF

    return map_atoms(fn.template, resolve)


# ---------------------------------------------------------------------------
# Domain contexts


class DomainContext(Node):
    """Declared finite domains for attributes; absence means the domain of
    the relevant sort is unbounded."""

    items: tuple = ()
    _by_value = ("items",)

    @staticmethod
    def of(mapping) -> "DomainContext":
        items = tuple(
            sorted(((a, frozenset(vs)) for a, vs in mapping.items()), key=lambda it: it[0])
        )
        return DomainContext(items)

    def get(self, attr: str):
        for a, vs in self.items:
            if a == attr:
                return vs
        return None


EMPTY_DOMAINS = DomainContext()


# ---------------------------------------------------------------------------
# Finite-witness solver


_FRESH = "zz#fresh"

# Each answer depends on nothing but its key.  One command asks a few
# dozen distinct questions at most; the bound keeps a long-lived process
# (a test session, a library user) from growing without end.
_SOLVER_CACHE_SIZE = 4096


def _candidate_pool(pred: Predicate) -> tuple:
    found = atoms(pred)
    consts = [x.value for a in found for side in (a.left, a.right) for x in expr_leaves(side)
              if isinstance(x, Const)]
    order_atoms = any(a.op in _ORDER_OPS for a in found)
    mem_on_attr = any(a.op == "in" and any(isinstance(x, Attr) for x in expr_leaves(a.right))
                      for a in found)
    # membership in a constant set or tuple needs its members as candidates
    consts += [m for v in consts if isinstance(v, (frozenset, tuple))
               for m in sorted(v, key=value_key)]

    pool = {}  # value_key -> value, in the order first offered

    def add(v):
        pool.setdefault(value_key(v), v)

    for v in consts:
        add(v)
    ints = sorted({v for v in consts if isinstance(v, int) and not isinstance(v, bool)})
    if order_atoms:
        if not ints:
            add(0)
            add(1)
        else:
            add(ints[0] - 1)
            add(ints[-1] + 1)
            for lo, hi in zip(ints, ints[1:]):
                if hi - lo > 1:
                    add((lo + hi) // 2)
    add(_FRESH)
    if mem_on_attr:
        # membership tests against an attribute need set candidates
        for v in list(pool.values()):
            if not isinstance(v, (tuple, frozenset)):
                add(frozenset({v}))
        add(frozenset())
    return tuple(pool.values())


def _witness_envs(pred: Predicate, domains: DomainContext):
    attrs = sorted(pred_attrs(pred))
    pool = _candidate_pool(pred)
    per_attr = [pool if dom is None else sorted(dom, key=value_key)
                for dom in map(domains.get, attrs)]
    for combo in product(*per_attr):
        yield AttrEnv.of(dict(zip(attrs, combo)))


def is_sat(pred: Predicate, domains: DomainContext = EMPTY_DOMAINS) -> bool:
    """True iff some total valuation of the mentioned attributes that
    respects the declared domains satisfies the (closed) predicate;
    decided by finite witness enumeration."""
    return find_witness(pred, domains) is not None


@lru_cache(maxsize=_SOLVER_CACHE_SIZE)
def find_witness(pred: Predicate, domains: DomainContext = EMPTY_DOMAINS):
    if isinstance(pred, Tt):
        return AttrEnv()
    if isinstance(pred, Ff):
        return None
    for env in _witness_envs(pred, domains):
        if satisfies(env, pred):
            return env
    return None


def implies(p1: Predicate, p2: Predicate, domains: DomainContext = EMPTY_DOMAINS) -> bool:
    return not is_sat(And(p1, Not(p2)), domains)


def equiv(p1: Predicate, p2: Predicate, domains: DomainContext = EMPTY_DOMAINS) -> bool:
    if p1 == p2:
        return True
    return implies(p1, p2, domains) and implies(p2, p1, domains)


def is_ff(pred: Predicate, domains: DomainContext = EMPTY_DOMAINS) -> bool:
    return not is_sat(pred, domains)
