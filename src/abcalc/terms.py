"""Abstract syntax for attribute-based components and processes.

Values are plain Python data: int, bool, str (names), tuple and frozenset
of values.  Everything else (expressions, predicates, processes,
components) is an immutable ``Node``: its hash is computed once, when it
is built, and equality is structural, so terms can be used as LTS states
directly.
"""

from __future__ import annotations

import operator
from itertools import count
from types import FunctionType, MappingProxyType

Value = int | bool | str | tuple | frozenset


class EvalError(Exception):
    """Base class for failures while evaluating expressions."""


class UndefinedAttribute(EvalError):
    pass


class OperatorDomainError(EvalError):
    pass


class ArityMismatch(EvalError):
    pass


class DomainViolation(Exception):
    """An attribute value outside its declared finite domain; ``leaf`` is
    the component whose update gave it, if an update did."""

    def __init__(self, message: str, leaf=None):
        super().__init__(message)
        self.leaf = leaf


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
    """``value_key(v) == value_key(w)``, without building the keys."""
    cls = v.__class__
    if cls is not w.__class__:
        return False
    if cls is tuple:
        return len(v) == len(w) and all(map(values_equal, v, w))
    if cls is frozenset:
        return value_key(v) == value_key(w)
    return v == w


def pretty_value(v) -> str:
    """A value in the concrete syntax."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, tuple):
        return "tup(" + ", ".join(pretty_value(x) for x in v) + ")"
    if isinstance(v, frozenset):
        return "{" + ", ".join(pretty_value(x) for x in sorted(v, key=value_key)) + "}"
    raise TypeError(f"not a value: {v!r}")


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# Nodes


# The methods of every Node class are these functions, compiled with the
# module: ``_INITS[n]`` and ``_EQS[n]`` serve the classes of ``n`` fields.
# Field ``i`` is the parameter and attribute ``_f<i>`` and is set by the
# global ``_s<i>``; ``_NodeType`` renames the fields and binds the globals
# of each class, so the names below are not this module's.  ``_plain`` is
# true for a class with no by-value fields; otherwise ``_values`` reads
# them.


def _init0(self):
    _set_hash(self, hash(()))


def _init1(self, _f0):
    _s0(self, _f0)
    _set_hash(self, hash((_f0,)))


def _init2(self, _f0, _f1):
    _s0(self, _f0)
    _s1(self, _f1)
    _set_hash(self, hash((_f0, _f1)))


def _init3(self, _f0, _f1, _f2):
    _s0(self, _f0)
    _s1(self, _f1)
    _s2(self, _f2)
    _set_hash(self, hash((_f0, _f1, _f2)))


def _init4(self, _f0, _f1, _f2, _f3):
    _s0(self, _f0)
    _s1(self, _f1)
    _s2(self, _f2)
    _s3(self, _f3)
    _set_hash(self, hash((_f0, _f1, _f2, _f3)))


def _eq0(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self._hash == other._hash


def _eq1(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self._hash == other._hash and self._f0 == other._f0
            and (_plain or _same(_values(self), _values(other))))


def _eq2(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self._hash == other._hash and (self._f0, self._f1) == (other._f0, other._f1)
            and (_plain or _same(_values(self), _values(other))))


def _eq3(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self._hash == other._hash
            and (self._f0, self._f1, self._f2) == (other._f0, other._f1, other._f2)
            and (_plain or _same(_values(self), _values(other))))


def _eq4(self, other):
    if self is other:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self._hash == other._hash
            and (self._f0, self._f1, self._f2, self._f3) == (other._f0, other._f1, other._f2, other._f3)
            and (_plain or _same(_values(self), _values(other))))


_INITS = (_init0, _init1, _init2, _init3, _init4)
_EQS = (_eq0, _eq1, _eq2, _eq3, _eq4)


class _NodeType(type):
    """Turns the annotated names of a ``Node`` class body into its fields:
    slots in that order, with the class-level values as defaults of the
    trailing ones, and the ``__init__`` and ``__eq__`` of its number of
    fields, with the field names put in and its slot setters bound.  The
    fields named in a class's ``_by_value`` hold values and also compare
    by ``values_equal``, so that ``1`` and ``true`` differ."""

    def __new__(mcls, name, bases, ns):
        if not bases:
            return super().__new__(mcls, name, bases, ns)
        fields = tuple(ns.get("__annotations__", ()))
        if len(fields) >= len(_INITS):
            raise TypeError(f"{name}: a Node has at most {len(_INITS) - 1} fields")
        defaults = tuple(ns.pop(f) for f in fields if f in ns)
        ns["__slots__"] = fields
        cls = super().__new__(mcls, name, bases, ns)
        by_value = ns.get("_by_value", ())
        # the slots are set through their descriptors: ``Node.__setattr__`` refuses
        env = {f"_s{i}": cls.__dict__[f].__set__ for i, f in enumerate(fields)}
        env.update(_set_hash=Node._hash.__set__, _same=values_equal, _plain=not by_value,
                   _values=operator.attrgetter(*by_value) if by_value else None)
        init, eq = _INITS[len(fields)].__code__, _EQS[len(fields)].__code__
        attr = {f"_f{i}": f for i, f in enumerate(fields)}
        init = init.replace(co_name="__init__", co_varnames=("self", *fields))
        eq = eq.replace(co_name="__eq__", co_names=tuple(attr.get(n, n) for n in eq.co_names))
        cls.__init__ = FunctionType(init, env, "__init__", defaults)
        cls.__eq__ = FunctionType(eq, env, "__eq__")
        for method in (cls.__init__, cls.__eq__):  # named in argument errors
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        return cls


class Node(metaclass=_NodeType):
    """An immutable tree node.  A subclass lists its fields as annotated
    names, and trailing fields may have defaults.  The hash is
    ``hash(field tuple)``, computed once when the node is built: sets of
    nodes iterate in hash order and outputs follow that order, so it must
    stay that value.  Equality checks identity, then the class, the hash
    and the fields."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Record:
    """A mutable record: equal to a record of its class with equal
    attributes, and unhashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Attribute environments


class AttrEnv(Node):
    """Finite partial map from attribute identifiers to values.

    Lookup of an unmapped identifier yields None (the undefined result),
    never a value.
    """

    items: tuple = ()
    _by_value = ("items",)

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

    def as_dict(self) -> dict:
        return dict(self.items)


# ---------------------------------------------------------------------------
# Expressions


class Const(Node):
    value: Value
    _by_value = ("value",)


class Var(Node):
    name: str


class Attr(Node):
    """A bare attribute identifier; evaluated in whatever environment the
    enclosing predicate is checked against."""

    name: str


class SelfAttr(Node):
    """this.a — the executing component's own attribute."""

    name: str


class MsgIdx(Node):
    """msg[i] inside a restriction-function template."""

    index: int


class SndAttr(Node):
    """snd.a inside a restriction-function template."""

    name: str


class Op(Node):
    name: str
    args: tuple


Expr = Const | Var | Attr | SelfAttr | MsgIdx | SndAttr | Op


def _on_ints(name, fn):
    """The operator ``name``: ``fn`` on two integers that are not bool."""

    def op(a, b):
        if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, int) or not isinstance(b, int):
            raise OperatorDomainError(f"{name} expects integers")
        return fn(a, b)

    return op


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
    if v not in s:
        return s | {v}
    if not any(values_equal(x, v) for x in s):  # a frozenset would merge 1 and true
        merged = next(x for x in s if x == v)
        raise OperatorDomainError(f"a set cannot hold both {pretty_value(merged)} and "
                                  f"{pretty_value(v)}")
    return s


def _op_remove(s, v):
    s = _as_set(s)
    return frozenset(x for x in s if not values_equal(x, v))


def _op_contains(s, v):
    s = _as_set(s)
    return any(values_equal(x, v) for x in s)


# name -> (arity or None for variadic, implementation)
OPERATORS = MappingProxyType({
    "+": (2, _on_ints("+", operator.add)),
    "-": (2, _on_ints("-", operator.sub)),
    "*": (2, _on_ints("*", operator.mul)),
    "tup": (None, _op_tup),
    "proj": (2, _op_proj),
    "insert": (2, _op_insert),
    "remove": (2, _op_remove),
    "contains": (2, _op_contains),
})


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


def map_expr(e: Expr, leaf) -> Expr:
    """The one rebuild of expressions: ``e`` with each operand that is not
    an operator application replaced by ``leaf(operand)``.  Returns ``e``
    itself when nothing changes."""
    if not isinstance(e, Op):
        return leaf(e)
    args = _same(e.args, tuple([map_expr(a, leaf) for a in e.args]))
    return e if args is e.args else Op(e.name, args)


def expr_leaves(e: Expr) -> list:
    """The one reader of expressions: the operands of ``e`` that are not
    operator applications, left to right."""
    if isinstance(e, Op):
        return [x for a in e.args for x in expr_leaves(a)]
    return [e]


def _same(old: tuple, new: tuple) -> tuple:
    """``old`` when ``new`` holds the same objects, else ``new``."""
    for a, b in zip(old, new):
        if a is not b:
            return new
    return old


# ---------------------------------------------------------------------------
# Predicates


class Tt(Node):
    pass


class Ff(Node):
    pass


class Atom(Node):
    op: str  # a name of predicates.RELATIONS
    left: Expr
    right: Expr


class Not(Node):
    pred: "Predicate"


class And(Node):
    left: "Predicate"
    right: "Predicate"


class Or(Node):
    left: "Predicate"
    right: "Predicate"


Predicate = Tt | Ff | Atom | Not | And | Or

TT = Tt()
FF = Ff()


def atoms(pred: Predicate) -> list:
    """The one reader of predicates: the atoms of ``pred``, left to right."""
    if isinstance(pred, Atom):
        return [pred]
    if isinstance(pred, Not):
        return atoms(pred.pred)
    if isinstance(pred, (And, Or)):
        return atoms(pred.left) + atoms(pred.right)
    return []


def map_atoms(pred: Predicate, f) -> Predicate:
    """The one rebuild of predicates: ``pred`` with each atom ``a``
    replaced by the predicate ``f(a)``.  Returns ``pred`` itself when
    nothing changes."""
    if isinstance(pred, (Tt, Ff)):
        return pred
    if isinstance(pred, Atom):
        return f(pred)
    if isinstance(pred, Not):
        inner = map_atoms(pred.pred, f)
        return pred if inner is pred.pred else Not(inner)
    if isinstance(pred, (And, Or)):
        left, right = map_atoms(pred.left, f), map_atoms(pred.right, f)
        return pred if left is pred.left and right is pred.right else type(pred)(left, right)
    raise TypeError(f"not a predicate: {pred!r}")


def atom_map(leaf):
    """The atom map for ``map_atoms`` that rebuilds both sides of an atom
    with ``map_expr(side, leaf)``."""

    def rebuild(a: Atom) -> Atom:
        left, right = map_expr(a.left, leaf), map_expr(a.right, leaf)
        return a if left is a.left and right is a.right else Atom(a.op, left, right)

    return rebuild


def subst_pred(pred: Predicate, names, values) -> Predicate:
    """Textual simultaneous substitution of variables by values."""
    _, _, rewrite = _scope(_consts(names, values))
    return rewrite(pred)


def _consts(names, values) -> dict:
    """Each name mapped to the constant of its value."""
    names, values = tuple(names), tuple(values)
    if len(names) != len(values):
        raise ArityMismatch(f"{len(names)} variables vs {len(values)} values")
    return {name: Const(v) for name, v in zip(names, values)}


# ---------------------------------------------------------------------------
# Processes


class Inact(Node):
    """The inactive process 0."""


class Out(Node):
    exprs: tuple  # tuple[Expr]
    pred: Predicate
    cont: "Process"


class In(Node):
    pred: Predicate
    vars: tuple  # tuple[str]
    cont: "Process"


class Upd(Node):
    """A pending sequence of attribute updates; only ever appears directly
    under an action prefix and is consumed atomically with it."""

    assigns: tuple  # tuple[(attr, Expr)]
    cont: "Process"


class Aware(Node):
    pred: Predicate
    proc: "Process"


class Choice(Node):
    left: "Process"
    right: "Process"


class ParP(Node):
    left: "Process"
    right: "Process"


class Call(Node):
    name: str
    args: tuple = ()  # tuple[Expr]


Process = Inact | Out | In | Upd | Aware | Choice | ParP | Call

ZERO = Inact()


def substitute(p: Process, names, values) -> Process:
    """Capture-avoiding simultaneous substitution of variables by values.

    Input binders shadow; since only closed values are substituted in, no
    renaming is ever required.
    """
    scope = _scope(_consts(names, values))
    return p if scope is _NO_SCOPE else _rewrite(p, scope, None)


def _unchanged(x):
    return x


_NO_SCOPE = (MappingProxyType({}), _unchanged, _unchanged)


def _scope(mapping: dict) -> tuple:
    """``mapping`` with the rewrites of expression tuples and predicates
    that replace each variable it names by the expression it maps to."""
    if not mapping:
        return _NO_SCOPE

    def leaf(e):
        return mapping.get(e.name, e) if isinstance(e, Var) else e

    on_atom = atom_map(leaf)
    return (mapping, lambda es: _same(es, tuple([map_expr(e, leaf) for e in es])),
            lambda pred: map_atoms(pred, on_atom))


def _rewrite(p: Process, scope: tuple, fresh) -> Process:
    """The one scoped walk over processes, shared by substitution and
    canonical forms: each free variable named in the mapping of ``scope``
    becomes the expression it maps to, and input binders shadow the
    mapping.  Given ``fresh``, an iterator of names, each input binder is
    renamed to the next of them in pre-order; otherwise binders keep their
    names.  Returns ``p`` itself when nothing changes."""
    if isinstance(p, Inact):
        return p
    mapping, exprs, pred = scope
    if isinstance(p, Out):
        es, g, cont = exprs(p.exprs), pred(p.pred), _rewrite(p.cont, scope, fresh)
        return p if es is p.exprs and g is p.pred and cont is p.cont else Out(es, g, cont)
    if isinstance(p, In):
        names = p.vars if fresh is None else tuple([next(fresh) for _ in p.vars])
        if names == p.vars:
            names = p.vars
        if names is not p.vars or not mapping.keys().isdisjoint(p.vars):
            inner = {k: e for k, e in mapping.items() if k not in p.vars}
            for v, n in zip(p.vars, names):  # of repeated binders, the last one wins
                if v != n:
                    inner[v] = Var(n)
                else:
                    inner.pop(v, None)
            _, _, pred = scope = _scope(inner)
        g, cont = pred(p.pred), _rewrite(p.cont, scope, fresh)
        return p if names is p.vars and g is p.pred and cont is p.cont else In(g, names, cont)
    if isinstance(p, (Choice, ParP)):
        left, right = _rewrite(p.left, scope, fresh), _rewrite(p.right, scope, fresh)
        return p if left is p.left and right is p.right else type(p)(left, right)
    if isinstance(p, Upd):
        old = tuple([e for _, e in p.assigns])
        new, cont = exprs(old), _rewrite(p.cont, scope, fresh)
        assigns = p.assigns if new is old else tuple(zip([a for a, _ in p.assigns], new))
        return p if assigns is p.assigns and cont is p.cont else Upd(assigns, cont)
    if isinstance(p, Aware):
        g, proc = pred(p.pred), _rewrite(p.proc, scope, fresh)
        return p if g is p.pred and proc is p.proc else Aware(g, proc)
    if isinstance(p, Call):
        args = exprs(p.args)
        return p if args is p.args else Call(p.name, args)
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Components


class RestrictionFn(Node):
    """A predicate template over msg[i] / snd.a; instantiating it against a
    sender environment and value tuple yields a closed predicate."""

    name: str
    template: Predicate
    arity: int = 0


class Leaf(Node):
    env: AttrEnv
    iface: frozenset
    proc: Process


class ParC(Node):
    left: "Component"
    right: "Component"


class ResOut(Node):
    comp: "Component"
    fn: RestrictionFn


class ResIn(Node):
    comp: "Component"
    fn: RestrictionFn


Component = Leaf | ParC | ResOut | ResIn


def flatten(tree, binary=ParC) -> tuple:
    """The fixed skeleton of a tree and its leaves, left to right, read
    by a loop, so any width is fine.  The skeleton lists the nodes in
    pre-order: ``None`` for a leaf, ``(cls, None)`` for a ``binary`` node
    (with ``left`` and ``right``), ``(cls, fn)`` for a restriction.
    Anything else is a leaf."""
    shape, leaves, todo = [], [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, binary):
            shape.append((node.__class__, None))
            todo += (node.right, node.left)
        elif isinstance(node, (ResOut, ResIn)):
            shape.append((node.__class__, node.fn))
            todo.append(node.comp)
        else:
            shape.append(None)
            leaves.append(node)
    return tuple(shape), leaves


def rebuild(shape: tuple, leaves):
    """The tree of skeleton ``shape`` over ``leaves``, inverse to ``flatten``."""
    stack, k = [], len(leaves)
    for node in reversed(shape):
        if node is None:
            k -= 1
            stack.append(leaves[k])
        elif node[1] is None:
            stack.append(node[0](stack.pop(), stack.pop()))
        else:
            stack.append(node[0](stack.pop(), node[1]))
    return stack[0]


def apply_updates(leaf: Leaf, domains=None) -> Leaf:
    """Strip leading update prefixes, folding each assignment into the
    environment left to right; later updates see earlier results.  A value
    outside the attribute's domain in ``domains`` raises DomainViolation."""
    env, proc = leaf.env, leaf.proc
    while isinstance(proc, Upd):
        for attr, e in proc.assigns:
            v = eval_expr(e, env)
            if domains is not None:
                dom = domains.get(attr)
                if dom is not None and not any(values_equal(v, d) for d in dom):
                    raise DomainViolation(
                        f"{attr} := {pretty_value(v)} outside its declared domain", leaf)
            env = env.set(attr, v)
        proc = proc.cont
    return Leaf(env, leaf.iface, proc)


# ---------------------------------------------------------------------------
# Canonicalization: states are identified up to renaming of input binders.


def canonical(c: Component) -> Component:
    """``c`` with the input binders of each leaf renamed x0, x1, ... in
    pre-order."""
    if isinstance(c, Leaf):
        proc = _rewrite(c.proc, _NO_SCOPE, map("x{}".format, count()))
        return c if proc is c.proc else Leaf(c.env, c.iface, proc)
    if not isinstance(c, (ParC, ResOut, ResIn)):
        raise TypeError(f"not a component: {c!r}")
    shape, leaves = flatten(c)
    canon = [canonical(leaf) for leaf in leaves]
    return c if all(map(operator.is_, canon, leaves)) else rebuild(shape, canon)
