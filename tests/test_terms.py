"""Core term structures: values, environments, expressions, substitution,
update application, and canonicalization."""

import copy
import pickle

import pytest

import abcalc.cli  # noqa: F401
from abcalc import bpi as bp
from abcalc import semantics as sem
from abcalc.predicates import Atom, TT
from abcalc.terms import (
    ArityMismatch,
    Attr,
    AttrEnv,
    Call,
    Const,
    DomainViolation,
    In,
    Inact,
    Leaf,
    Node,
    Op,
    OperatorDomainError,
    Out,
    SelfAttr,
    UndefinedAttribute,
    Upd,
    Var,
    ZERO,
    apply_updates,
    atoms,
    canonical,
    eval_expr,
    expr_leaves,
    substitute,
    value_key,
    values_equal,
)
from abcalc.predicates import DomainContext

from conftest import random_bpi, random_component, random_definitions, random_process


class TestValues:
    def test_bool_distinct_from_int(self):
        assert not values_equal(True, 1)
        assert not values_equal(False, 0)
        assert value_key(True) != value_key(1)

    def test_structural_values(self):
        assert values_equal((1, "a"), (1, "a"))
        assert values_equal(frozenset({1, 2}), frozenset({2, 1}))
        assert not values_equal((1,), (1, 1))


class TestNode:
    """Each term class is a ``Node``: a hash computed once, structural
    equality within a class, the dataclass ``repr``, defaults, no
    assignment."""

    def test_hash_is_the_hash_of_the_field_tuple(self, rng):
        leaf = Leaf(AttrEnv.of({"a": 1}), frozenset({"a"}), Out((Const(1),), TT, ZERO))
        assert hash(leaf) == hash((leaf.env, leaf.iface, leaf.proc))
        assert hash(leaf.env) == hash(((("a", 1),),))
        assert hash(ZERO) == hash(()) and hash(Var("x")) == hash(("x",))

        def plain(x):
            """The tree as nested tuples, hashed by the built-in types alone."""
            if isinstance(x, Node):
                return tuple(plain(getattr(x, f)) for f in type(x).__slots__)
            if isinstance(x, (tuple, frozenset)):
                return type(x)(map(plain, x))
            return x

        for _ in range(50):
            for term in (random_component(rng), random_bpi(rng)):
                assert hash(term) == hash(plain(term))

    def test_equality_is_structural_within_a_class(self):
        assert Out((Const(1),), TT, ZERO) == Out((Const(1),), TT, Inact())
        assert Attr("x") != Var("x") and Attr("x") == Attr("x")
        assert SelfAttr("x") != Attr("x")
        assert Const(1) != Const(2) and Call("A") != "A"

    def test_repr(self):
        assert repr(Call("A", (Const(1),))) == "Call(name='A', args=(Const(value=1),))"
        assert repr(ZERO) == "Inact()"
        assert repr(sem.Label("out", AttrEnv(), TT, ("v",))) == (
            "Label(kind='out', env=AttrEnv(items=()), pred=Tt(), values=('v',))")
        assert repr(bp.BOut("c", ("v",), bp.BNIL)) == "BOut(chan='c', names=('v',), cont=BNil())"

    def test_defaults(self):
        assert Call("A") == Call("A", ()) and Call("A").args == ()
        assert AttrEnv() == AttrEnv(()) and AttrEnv(items=()).items == ()
        assert DomainContext().items == ()

    def test_assignment_raises(self):
        node = Var("x")
        with pytest.raises(AttributeError):
            node.name = "y"
        with pytest.raises(AttributeError):
            del node.name
        with pytest.raises(AttributeError):
            node.other = 1
        assert node.name == "x" and hash(node) == hash(("x",))

    def test_copy_and_pickle(self):
        leaf = Leaf(AttrEnv.of({"a": 1}), frozenset(), In(TT, ("x",), ZERO))
        for other in (copy.copy(leaf), copy.deepcopy(leaf), pickle.loads(pickle.dumps(leaf))):
            assert other == leaf and hash(other) == hash(leaf)

    def test_every_term_class_is_a_node(self):
        for cls in (Leaf, Out, In, Var, AttrEnv, sem.Label, DomainContext, bp.BRec):
            assert issubclass(cls, Node)


def _node_classes() -> list:
    """Every ``Node`` class of the package (``abcalc.cli`` imports every
    module of it)."""
    found, todo = [], [Node]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls is not Node and cls.__module__.startswith("abcalc."):
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


NODE_CLASSES = _node_classes()


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_node_contract(cls):
    """Construction by position, by keyword and with defaults, the hash of
    the field tuple, the dataclass ``repr`` and a pickle round trip."""
    fields = cls.__slots__
    defaults = cls.__init__.__defaults__ or ()
    required = len(fields) - len(defaults)
    values = tuple((i, f"v{i}") for i in range(len(fields)))
    node = cls(*values)
    assert node == cls(**dict(zip(fields, values))) and node is not cls(*values)
    assert tuple(getattr(node, f) for f in fields) == values
    assert hash(node) == hash(values)
    assert cls(*values[:required]) == cls(*values[:required], *defaults)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(node) == f"{cls.__qualname__}({shown})"
    back = pickle.loads(pickle.dumps(node))
    assert back == node and hash(back) == hash(node) and type(back) is cls
    if fields:
        assert node != cls(*values[:-1], "other")
    with pytest.raises(TypeError, match=r"__init__\(\) takes"):
        cls(*values, "extra")
    with pytest.raises(TypeError, match=r"__init__\(\) got an unexpected keyword"):
        cls(*values, no_such_field=1)


def test_a_node_of_more_fields_than_its_methods_cover_is_refused():
    with pytest.raises(TypeError, match="Wide: a Node has at most 4 fields"):
        class Wide(Node):
            a: int
            b: int
            c: int
            d: int
            e: int


def test_same_fields_in_another_class_are_another_node():
    by_shape = {}
    for cls in NODE_CLASSES:
        by_shape.setdefault(len(cls.__slots__), []).append(cls)
    pairs = 0
    for group in by_shape.values():
        for one, two in zip(group, group[1:]):
            values = tuple(range(len(one.__slots__)))
            assert one(*values) != two(*values)
            pairs += 1
    assert pairs >= 20


def test_by_value_fields_keep_1_and_true_apart():
    assert Const(1) != Const(True) and Const(0) != Const(False) and Const(1) == Const(1)
    for one, true in ((1, True), ((1,), (True,)), (frozenset({1}), frozenset({True}))):
        assert sem.Label("out", AttrEnv(), TT, (one,)) != sem.Label("out", AttrEnv(), TT, (true,))
        assert AttrEnv.of({"a": one}) != AttrEnv.of({"a": true})
    label = sem.Label("out", AttrEnv(), TT, (1, "v"))
    assert label == sem.Label("out", AttrEnv(), TT, (1, "v"))


class TestAttrEnv:
    def test_lookup_and_update(self):
        env = AttrEnv.of({"a": 1, "b": "x"})
        assert env.get("a") == 1
        assert env.get("missing") is None
        assert env.set("a", 2).get("a") == 2
        assert env.get("a") == 1  # persistent

    def test_restrict(self):
        env = AttrEnv.of({"a": 1, "b": 2, "c": 3})
        r = env.restrict(frozenset({"a", "c"}))
        assert r.as_dict() == {"a": 1, "c": 3}
        assert env.restrict(frozenset()).items == ()

    def test_of_is_order_insensitive(self):
        assert AttrEnv.of({"a": 1, "b": 2}) == AttrEnv.of({"b": 2, "a": 1})


class TestEvalExpr:
    ENV = AttrEnv.of({"a": 2, "s": frozenset({1, 2}), "t": (5, 6)})

    def test_const_var_attr(self):
        assert eval_expr(Const(7), self.ENV) == 7
        assert eval_expr(Var("x"), self.ENV, {"x": 9}) == 9
        assert eval_expr(Attr("a"), self.ENV) == 2
        assert eval_expr(SelfAttr("a"), self.ENV) == 2

    def test_undefined_attribute_raises(self):
        with pytest.raises(UndefinedAttribute):
            eval_expr(Attr("zz"), self.ENV)
        with pytest.raises(Exception):
            eval_expr(Var("unbound"), self.ENV)

    def test_arith(self):
        e = Op("+", (Attr("a"), Const(3)))
        assert eval_expr(e, self.ENV) == 5
        assert eval_expr(Op("*", (Const(4), Const(2))), self.ENV) == 8
        assert eval_expr(Op("-", (Const(4), Const(2))), self.ENV) == 2

    def test_arith_rejects_non_ints(self):
        with pytest.raises(OperatorDomainError):
            eval_expr(Op("+", (Const(True), Const(1))), self.ENV)
        with pytest.raises(OperatorDomainError):
            eval_expr(Op("+", (Const("x"), Const(1))), self.ENV)

    def test_tuple_ops(self):
        assert eval_expr(Op("tup", (Const(1), Const("n"))), self.ENV) == (1, "n")
        assert eval_expr(Op("proj", (Attr("t"), Const(1))), self.ENV) == 6
        with pytest.raises(OperatorDomainError):
            eval_expr(Op("proj", (Attr("t"), Const(9))), self.ENV)

    def test_set_ops(self):
        assert eval_expr(Op("insert", (Attr("s"), Const(3))), self.ENV) == frozenset({1, 2, 3})
        assert eval_expr(Op("insert", (Attr("s"), Const(1))), self.ENV) == frozenset({1, 2})
        assert eval_expr(Op("remove", (Attr("s"), Const(2))), self.ENV) == frozenset({1})
        assert eval_expr(Op("contains", (Attr("s"), Const(2))), self.ENV) is True
        assert eval_expr(Op("contains", (Attr("s"), Const(9))), self.ENV) is False

    def test_insert_keeps_1_and_true_apart(self):
        # a frozenset cannot hold both, so the step does not exist
        assert eval_expr(Op("insert", (Const(frozenset({True})), Const(True))), self.ENV) == {True}
        with pytest.raises(OperatorDomainError, match="both 1 and true"):
            eval_expr(Op("insert", (Attr("s"), Const(True))), self.ENV)
        with pytest.raises(OperatorDomainError, match=r"both \{false\} and \{0\}"):
            eval_expr(Op("insert", (Const(frozenset({frozenset({False})})), Const(frozenset({0})))),
                      self.ENV)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            eval_expr(Op("+", (Const(1),)), self.ENV)


class TestSubstitute:
    def test_basic(self):
        p = Out((Var("x"),), TT, Inact())
        q = substitute(p, ("x",), (4,))
        assert q == Out((Const(4),), TT, Inact())

    def test_binder_shadows(self):
        inner = In(TT, ("x",), Out((Var("x"),), TT, Inact()))
        q = substitute(inner, ("x",), (4,))
        assert q == inner  # the binder protects its scope

    def test_substitution_into_pred(self):
        p = In(Atom("==", Var("y"), Const(1)), ("z",), Inact())
        q = substitute(p, ("y",), (1,))
        assert q == In(Atom("==", Const(1), Const(1)), ("z",), Inact())

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            substitute(Inact(), ("x", "y"), (1,))

    def test_closed_after_substitution(self, rng):
        # each definition body uses its parameter free, and only that; its
        # inputs bind x, which their guards and continuations use
        for _ in range(50):
            for params, body in random_definitions(rng).values():
                assert free_vars(body) == {"p"}
                closed = substitute(body, params, (2,))
                assert closed != body and free_vars(closed) == set()


def free_vars(p) -> set:
    """The variables free in a process, read here rather than through the
    rewrite in ``terms``: an input's binders scope its guard and its
    continuation."""
    out, todo = set(), [(p, frozenset())]
    while todo:
        q, bound = todo.pop()
        bound |= set(getattr(q, "vars", ()))
        exprs = [*getattr(q, "exprs", ()), *getattr(q, "args", ()),
                 *(e for _, e in getattr(q, "assigns", ()))]
        exprs += [e for a in atoms(getattr(q, "pred", TT)) for e in (a.left, a.right)]
        out |= {x.name for e in exprs for x in expr_leaves(e) if isinstance(x, Var)} - bound
        todo += [(getattr(q, f), bound) for f in ("cont", "proc", "left", "right")
                 if hasattr(q, f)]
    return out


class TestApplyUpdates:
    def test_sequential_updates(self):
        # {a -> 1} [a := a + 1][b := a]  gives  {a -> 2, b -> 2}
        leaf = Leaf(
            AttrEnv.of({"a": 1}),
            frozenset(),
            Upd((("a", Op("+", (Attr("a"), Const(1)))), ("b", Attr("a"))), ZERO),
        )
        out = apply_updates(leaf)
        assert out.env.as_dict() == {"a": 2, "b": 2}
        assert out.proc == ZERO

    def test_chained_update_prefixes(self):
        leaf = Leaf(
            AttrEnv.of({"a": 1}),
            frozenset(),
            Upd((("a", Const(5)),), Upd((("b", Attr("a")),), ZERO)),
        )
        assert apply_updates(leaf).env.as_dict() == {"a": 5, "b": 5}

    def test_no_updates_is_identity(self):
        leaf = Leaf(AttrEnv.of({"a": 1}), frozenset(), ZERO)
        assert apply_updates(leaf) == leaf

    def test_domain_violation(self):
        doms = DomainContext.of({"a": {1, 2}})
        leaf = Leaf(AttrEnv.of({"a": 1}), frozenset(), Upd((("a", Const(9)),), ZERO))
        with pytest.raises(DomainViolation):
            apply_updates(leaf, doms)
        ok = Leaf(AttrEnv.of({"a": 1}), frozenset(), Upd((("a", Const(2)),), ZERO))
        assert apply_updates(ok, doms).env.get("a") == 2


class TestCanonical:
    def test_alpha_equivalent_leaves_identified(self):
        env = AttrEnv()
        p1 = Leaf(env, frozenset(), In(Atom("==", Var("u"), Const(1)), ("u",), Out((Var("u"),), TT, ZERO)))
        p2 = Leaf(env, frozenset(), In(Atom("==", Var("w"), Const(1)), ("w",), Out((Var("w"),), TT, ZERO)))
        assert canonical(p1) == canonical(p2)

    def test_distinct_structure_not_identified(self):
        env = AttrEnv()
        p1 = Leaf(env, frozenset(), Out((Const(1),), TT, ZERO))
        p2 = Leaf(env, frozenset(), Out((Const(2),), TT, ZERO))
        assert canonical(p1) != canonical(p2)

    def test_idempotent(self, rng):
        for _ in range(50):
            leaf = Leaf(AttrEnv.of({"d": 1}), frozenset(), random_process(rng))
            c = canonical(leaf)
            assert canonical(c) == c
