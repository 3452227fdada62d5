"""Differential tests for the one scoped rewrite and the expression and
predicate helpers of ``terms``, and for the one scoped rewrite of
broadcast terms in ``bpi``.

The reference code below is the earlier implementation, one hand-written
walk per use: substitution (``_subst``), canonical forms
(``_canon_proc``), closure, restriction instantiation, the solver's
candidate pool and its witness enumeration; and for broadcast terms,
substitution (``subst_names``), canonical forms (``_canon``) and
recursion unfolding (a substitution, then ``_tie``).  The current code
must give the same terms, compared by ``repr`` so that 1 and true stay
apart, and the same candidate values in the same order, since
``find_witness`` returns the first witness it meets.  Where the earlier
broadcast walks renamed a binder differently, or let an unfolding
capture a name, the tests say which and check the difference.
"""

import random
from collections import Counter
from itertools import count, islice

from hypothesis import given, settings, strategies as st

from abcalc import predicates as pr
from abcalc.terms import (
    FF,
    TT,
    And,
    Atom,
    Attr,
    AttrEnv,
    Aware,
    Call,
    Choice,
    Const,
    EvalError,
    Ff,
    In,
    Inact,
    Leaf,
    MsgIdx,
    Not,
    Op,
    Or,
    Out,
    ParC,
    ParP,
    ResIn,
    ResOut,
    RestrictionFn,
    SelfAttr,
    SndAttr,
    Tt,
    UndefinedAttribute,
    Upd,
    Var,
    ZERO,
    canonical,
    flatten,
    substitute,
    subst_pred,
    value_key,
)

from abcalc import bpi as bp
from abcalc.bpi import BCall, BIn, BNil, BOut, BPar, BRec, BSum, BTau

from abcalc.lts import BoundExceeded, ExploreBounds

from conftest import ORACLE_DOMAINS, random_bpi_rec, random_component, random_process

# ---------------------------------------------------------------------------
# Reference implementation


def ref_subst_expr(e, mapping):
    if isinstance(e, Var) and e.name in mapping:
        return Const(mapping[e.name])
    if isinstance(e, Op):
        return Op(e.name, tuple(ref_subst_expr(a, mapping) for a in e.args))
    return e


def ref_map_atoms(pred, f):
    if isinstance(pred, (Tt, Ff)):
        return pred
    if isinstance(pred, Atom):
        return Atom(pred.op, f(pred.left), f(pred.right))
    if isinstance(pred, Not):
        return Not(ref_map_atoms(pred.pred, f))
    if isinstance(pred, And):
        return And(ref_map_atoms(pred.left, f), ref_map_atoms(pred.right, f))
    if isinstance(pred, Or):
        return Or(ref_map_atoms(pred.left, f), ref_map_atoms(pred.right, f))
    raise TypeError(f"not a predicate: {pred!r}")


def ref_subst_pred(pred, mapping):
    if not mapping:
        return pred
    return ref_map_atoms(pred, lambda e: ref_subst_expr(e, mapping))


def ref_subst(p, mapping):
    if not mapping:
        return p
    if isinstance(p, Inact):
        return p
    if isinstance(p, Out):
        return Out(tuple(ref_subst_expr(e, mapping) for e in p.exprs),
                   ref_subst_pred(p.pred, mapping), ref_subst(p.cont, mapping))
    if isinstance(p, In):
        inner = {k: v for k, v in mapping.items() if k not in p.vars}
        return In(ref_subst_pred(p.pred, inner), p.vars, ref_subst(p.cont, inner))
    if isinstance(p, Upd):
        return Upd(tuple((a, ref_subst_expr(e, mapping)) for a, e in p.assigns),
                   ref_subst(p.cont, mapping))
    if isinstance(p, Aware):
        return Aware(ref_subst_pred(p.pred, mapping), ref_subst(p.proc, mapping))
    if isinstance(p, Choice):
        return Choice(ref_subst(p.left, mapping), ref_subst(p.right, mapping))
    if isinstance(p, ParP):
        return ParP(ref_subst(p.left, mapping), ref_subst(p.right, mapping))
    if isinstance(p, Call):
        return Call(p.name, tuple(ref_subst_expr(e, mapping) for e in p.args))
    raise TypeError(f"not a process: {p!r}")


def ref_rename_expr(e, ren):
    if isinstance(e, Var) and e.name in ren:
        return Var(ren[e.name])
    if isinstance(e, Op):
        return Op(e.name, tuple(ref_rename_expr(a, ren) for a in e.args))
    return e


def ref_rename_pred(pred, ren):
    return ref_map_atoms(pred, lambda e: ref_rename_expr(e, ren))


def ref_canon_proc(p, ren, counter):
    if isinstance(p, Inact):
        return p, counter
    if isinstance(p, Out):
        exprs = tuple(ref_rename_expr(e, ren) for e in p.exprs)
        pred = ref_rename_pred(p.pred, ren)
        cont, counter = ref_canon_proc(p.cont, ren, counter)
        return Out(exprs, pred, cont), counter
    if isinstance(p, In):
        fresh = tuple(f"x{counter + i}" for i in range(len(p.vars)))
        counter += len(p.vars)
        inner = dict(ren)
        inner.update(zip(p.vars, fresh))
        pred = ref_rename_pred(p.pred, inner)
        cont, counter = ref_canon_proc(p.cont, inner, counter)
        return In(pred, fresh, cont), counter
    if isinstance(p, Upd):
        assigns = tuple((a, ref_rename_expr(e, ren)) for a, e in p.assigns)
        cont, counter = ref_canon_proc(p.cont, ren, counter)
        return Upd(assigns, cont), counter
    if isinstance(p, Aware):
        pred = ref_rename_pred(p.pred, ren)
        proc, counter = ref_canon_proc(p.proc, ren, counter)
        return Aware(pred, proc), counter
    if isinstance(p, (Choice, ParP)):
        left, counter = ref_canon_proc(p.left, ren, counter)
        right, counter = ref_canon_proc(p.right, ren, counter)
        return type(p)(left, right), counter
    if isinstance(p, Call):
        return Call(p.name, tuple(ref_rename_expr(e, ren) for e in p.args)), counter
    raise TypeError(f"not a process: {p!r}")


def ref_canonical(c):
    if isinstance(c, Leaf):
        return Leaf(c.env, c.iface, ref_canon_proc(c.proc, {}, 0)[0])
    if isinstance(c, ParC):
        return ParC(ref_canonical(c.left), ref_canonical(c.right))
    return type(c)(ref_canonical(c.comp), c.fn)


def ref_close_expr(e, env):
    if isinstance(e, SelfAttr):
        v = env.get(e.name)
        if v is None:
            raise UndefinedAttribute(e.name)
        return Const(v)
    if isinstance(e, Op):
        return Op(e.name, tuple(ref_close_expr(a, env) for a in e.args))
    return e


def ref_close(pred, env):
    return ref_map_atoms(pred, lambda e: ref_close_expr(e, env))


class _Unresolved(Exception):
    pass


def ref_instantiate_expr(e, env, values):
    if isinstance(e, MsgIdx):
        if 0 <= e.index < len(values):
            return Const(values[e.index])
        raise _Unresolved()
    if isinstance(e, SndAttr):
        v = env.get(e.name)
        if v is None:
            raise _Unresolved()
        return Const(v)
    if isinstance(e, Op):
        return Op(e.name, tuple(ref_instantiate_expr(a, env, values) for a in e.args))
    return e


def ref_instantiate(pred, env, values):
    if isinstance(pred, (Tt, Ff)):
        return pred
    if isinstance(pred, Atom):
        try:
            return Atom(pred.op, ref_instantiate_expr(pred.left, env, values),
                        ref_instantiate_expr(pred.right, env, values))
        except _Unresolved:
            return FF
    if isinstance(pred, Not):
        return Not(ref_instantiate(pred.pred, env, values))
    return type(pred)(ref_instantiate(pred.left, env, values),
                      ref_instantiate(pred.right, env, values))


def ref_atoms(pred):
    if isinstance(pred, Atom):
        yield pred
    elif isinstance(pred, Not):
        yield from ref_atoms(pred.pred)
    elif isinstance(pred, (And, Or)):
        yield from ref_atoms(pred.left)
        yield from ref_atoms(pred.right)


def ref_expr_of(e, kind):
    if isinstance(e, kind):
        return [e]
    if isinstance(e, Op):
        return [x for a in e.args for x in ref_expr_of(a, kind)]
    return []


def ref_pred_attrs(pred):
    return frozenset(x.name for a in ref_atoms(pred) for side in (a.left, a.right)
                     for x in ref_expr_of(side, Attr))


def ref_candidate_pool(pred):
    consts = []
    order_atoms = False
    mem_on_attr = False
    for a in ref_atoms(pred):
        consts.extend(x.value for x in ref_expr_of(a.left, Const))
        consts.extend(x.value for x in ref_expr_of(a.right, Const))
        if a.op in ("<", "<=", ">", ">="):
            order_atoms = True
        if a.op == "in" and ref_expr_of(a.right, Attr):
            mem_on_attr = True
    consts += [m for v in consts if isinstance(v, (frozenset, tuple))
               for m in sorted(v, key=value_key)]
    pool = []
    seen = set()

    def add(v):
        k = value_key(v)
        if k not in seen:
            seen.add(k)
            pool.append(v)

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
    add(pr._FRESH)
    if mem_on_attr:
        for v in list(pool):
            if not isinstance(v, (tuple, frozenset)):
                add(frozenset({v}))
        add(frozenset())
    return tuple(pool)


def ref_witness_envs(pred, domains):
    attrs = sorted(ref_pred_attrs(pred))
    pool = ref_candidate_pool(pred)
    per_attr = []
    for a in attrs:
        dom = domains.get(a)
        per_attr.append((a, tuple(sorted(dom, key=value_key) if dom is not None else pool)))

    def gen(i, acc):
        if i == len(per_attr):
            yield AttrEnv.of(acc)
            return
        a, cands = per_attr[i]
        for v in cands:
            acc[a] = v
            yield from gen(i + 1, acc)
        acc.pop(a, None)

    yield from gen(0, {})


def outcome(f, *args):
    """The repr of f's result, or the name of the evaluation error it raised."""
    try:
        return repr(f(*args))
    except EvalError as exc:
        return type(exc).__name__


# ---------------------------------------------------------------------------
# Generators

# Binder names include the canonical names themselves, so a binder may
# already carry the name canonicalisation gives it, or the name of another.
NAMES = ("x", "y", "z", "x0", "x1", "x2")
VALUES = (0, 1, 2, True, False, "n", frozenset({1, 2}), (1, "n"))


def open_expr(rng, depth=2):
    r = rng.random()
    if depth and r < 0.2:
        return Op(rng.choice(("+", "tup", "insert")),
                  (open_expr(rng, depth - 1), open_expr(rng, depth - 1)))
    if r < 0.55:
        return Var(rng.choice(NAMES))
    if r < 0.8:
        return Const(rng.choice(VALUES))
    return rng.choice((Attr("d"), SelfAttr("d"), SelfAttr("zz")))


def open_pred(rng, depth=2):
    r = rng.random()
    if r < 0.1:
        return rng.choice((TT, FF))
    if depth and r < 0.25:
        return Not(open_pred(rng, depth - 1))
    if depth and r < 0.5:
        return rng.choice((And, Or))(open_pred(rng, depth - 1), open_pred(rng, depth - 1))
    return Atom(rng.choice(("==", "!=", "<", "in")), open_expr(rng), open_expr(rng))


def open_process(rng, depth=4):
    """A process with free variables in every position a variable can take."""
    if depth == 0 or rng.random() < 0.15:
        return rng.choice((ZERO, Call("P", (open_expr(rng),))))
    cont = lambda: open_process(rng, depth - 1)
    r = rng.random()
    if r < 0.25:
        exprs = tuple(open_expr(rng) for _ in range(rng.randint(0, 2)))
        return Out(exprs, open_pred(rng), cont())
    if r < 0.5:
        binders = tuple(rng.choice(NAMES) for _ in range(rng.randint(1, 2)))  # may repeat
        return In(open_pred(rng), binders, cont())
    if r < 0.6:
        return Upd((("d", open_expr(rng)), ("e", open_expr(rng))), cont())
    if r < 0.7:
        return Aware(open_pred(rng), cont())
    return rng.choice((Choice, ParP))(cont(), cont())


def open_component(rng, depth=2):
    r = rng.random()
    if depth == 0 or r < 0.5:
        return Leaf(AttrEnv.of({"d": 1}), frozenset({"d"}), open_process(rng))
    if r < 0.8:
        return ParC(open_component(rng, depth - 1), open_component(rng, depth - 1))
    fn = RestrictionFn("f", TT)
    return rng.choice((ResOut, ResIn))(open_component(rng, depth - 1), fn)


# ---------------------------------------------------------------------------
# Substitution and canonical forms


def test_canonical_matches_reference_on_random_terms():
    rng = random.Random(11)
    for _ in range(400):
        c = random_component(rng)
        assert repr(canonical(c)) == repr(ref_canonical(c))
        leaf = Leaf(AttrEnv(), frozenset(), random_process(rng, depth=4))
        assert repr(canonical(leaf)) == repr(ref_canonical(leaf))
    for _ in range(400):
        c = open_component(rng)
        assert repr(canonical(c)) == repr(ref_canonical(c))


def test_canonical_is_idempotent_and_keeps_canonical_terms():
    rng = random.Random(12)
    for _ in range(200):
        c = canonical(open_component(rng))
        assert canonical(c) is c


def test_substitute_matches_reference_on_random_terms():
    rng = random.Random(13)
    for _ in range(600):
        p = open_process(rng)
        names = tuple(rng.sample(NAMES, rng.randint(0, 3)))
        values = tuple(rng.choice(VALUES) for _ in names)
        assert repr(substitute(p, names, values)) == repr(ref_subst(p, dict(zip(names, values))))
    for _ in range(200):
        p = random_process(rng, depth=4)
        assert repr(substitute(p, ("x",), (2,))) == repr(ref_subst(p, {"x": 2}))


def test_a_binder_shadows_a_substituted_name():
    guard = Atom("==", Var("x"), Var("y"))
    p = Out((Var("x"),), TT, In(guard, ("x",), Out((Var("x"), Var("y")), TT, ZERO)))
    got = substitute(p, ("x", "y"), (1, "n"))
    assert repr(got) == repr(ref_subst(p, {"x": 1, "y": "n"}))
    inner = In(Atom("==", Var("x"), Const("n")), ("x",), Out((Var("x"), Const("n")), TT, ZERO))
    assert got == Out((Const(1),), TT, inner)


def test_inputs_nested_under_choice_and_parallel():
    def recv(binders, cont):
        return In(Atom("==", Var(binders[0]), Var(binders[-1])), binders, cont)

    echo = lambda *names: Out(tuple(Var(n) for n in names), TT, ZERO)
    p = Choice(recv(("a",), recv(("x0", "b"), echo("a", "x0", "b"))),
               ParP(recv(("x1",), echo("x1")), Choice(recv(("x0",), echo("x0")), echo("x0"))))
    leaf = Leaf(AttrEnv(), frozenset(), p)
    got = canonical(leaf)
    assert repr(got) == repr(ref_canonical(leaf))
    left, right = got.proc.left, got.proc.right
    assert left.vars == ("x0",) and left.cont.vars == ("x1", "x2")
    assert left.cont.cont == echo("x0", "x1", "x2")
    assert right.left.vars == ("x3",) and right.right.left.vars == ("x4",)
    assert right.right.right == echo("x0")  # free, so left alone


# ---------------------------------------------------------------------------
# Predicates: closure, instantiation, the candidate pool

leaf_exprs = st.one_of(
    st.sampled_from(VALUES).map(Const),
    st.sampled_from(["a", "b", "c"]).map(Attr),
    st.sampled_from(["a", "b", "zz"]).map(SelfAttr),
    st.sampled_from(["a", "zz"]).map(SndAttr),
    st.integers(0, 3).map(MsgIdx),
    st.sampled_from(["x", "y"]).map(Var),
)
exprs = st.recursive(
    leaf_exprs,
    lambda inner: st.tuples(st.sampled_from(["+", "tup", "insert"]), inner, inner).map(
        lambda t: Op(t[0], t[1:])),
    max_leaves=4,
)
atoms = st.tuples(st.sampled_from(["==", "!=", "<", ">=", "in"]), exprs, exprs).map(
    lambda t: Atom(*t))
preds = st.recursive(
    atoms | st.just(TT) | st.just(FF),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
    ),
    max_leaves=6,
)
ENVS = (AttrEnv(), AttrEnv.of({"a": 1, "b": "n"}), AttrEnv.of({"a": frozenset({1}), "zz": 0}))


@settings(max_examples=300, deadline=None)
@given(preds)
def test_close_matches_reference(p):
    for env in ENVS:
        assert outcome(pr.close, p, env) == outcome(ref_close, p, env)


@settings(max_examples=300, deadline=None)
@given(preds, st.lists(st.sampled_from(VALUES), max_size=3))
def test_instantiate_matches_reference(p, values):
    fn = RestrictionFn("f", p, len(values))
    for env in ENVS:
        assert repr(pr.instantiate(fn, env, tuple(values))) == repr(
            ref_instantiate(p, env, tuple(values)))


def test_restriction_atoms_collapse_to_ff():
    template = And(Atom("==", MsgIdx(3), Const(1)),
                   Or(Not(Atom("==", SndAttr("zz"), Const(1))), Atom("==", MsgIdx(0), SndAttr("a"))))
    env = AttrEnv.of({"a": 2})
    got = pr.instantiate(RestrictionFn("f", template, 1), env, (7,))
    assert repr(got) == repr(ref_instantiate(template, env, (7,)))
    assert got == And(FF, Or(Not(FF), Atom("==", Const(7), Const(2))))


@settings(max_examples=300, deadline=None)
@given(preds, st.sampled_from(VALUES), st.sampled_from(VALUES))
def test_subst_pred_matches_reference(p, v, w):
    assert repr(subst_pred(p, ("x", "y"), (v, w))) == repr(ref_subst_pred(p, {"x": v, "y": w}))
    assert repr(subst_pred(p, ("y",), (w,))) == repr(ref_subst_pred(p, {"y": w}))


@settings(max_examples=300, deadline=None)
@given(preds)
def test_candidate_pool_and_witness_order_match_reference(p):
    """Same candidates in the same order, so find_witness picks the same
    first witness."""
    assert pr.pred_attrs(p) == ref_pred_attrs(p)
    assert ([value_key(v) for v in pr._candidate_pool(p)]
            == [value_key(v) for v in ref_candidate_pool(p)])
    for domains in (pr.EMPTY_DOMAINS, ORACLE_DOMAINS):
        assert ([repr(env) for env in islice(pr._witness_envs(p, domains), 500)]
                == [repr(env) for env in islice(ref_witness_envs(p, domains), 500)])


# ---------------------------------------------------------------------------
# Broadcast terms: reference walks


def ref_subst_names(p, mapping):
    mapping = {k: v for k, v in mapping.items() if k != v}
    if not mapping:
        return p
    look = lambda n: mapping.get(n, n)
    if isinstance(p, BNil):
        return p
    if isinstance(p, BTau):
        return BTau(ref_subst_names(p.cont, mapping))
    if isinstance(p, BIn):
        vars_, cont = ref_avoid_capture(p.vars, p.cont, mapping)
        inner = {k: v for k, v in mapping.items() if k not in vars_}
        return BIn(look(p.chan), vars_, ref_subst_names(cont, inner))
    if isinstance(p, BOut):
        return BOut(look(p.chan), tuple(look(n) for n in p.names),
                    ref_subst_names(p.cont, mapping))
    if isinstance(p, (BSum, BPar)):
        return type(p)(ref_subst_names(p.left, mapping), ref_subst_names(p.right, mapping))
    if isinstance(p, BRec):
        params, body = ref_avoid_capture(p.params, p.body, mapping)
        inner = {k: v for k, v in mapping.items() if k not in params}
        return BRec(p.name, params, ref_subst_names(body, inner), tuple(look(a) for a in p.args))
    if isinstance(p, BCall):
        return BCall(p.name, tuple(look(a) for a in p.args))
    raise TypeError(f"not a bpi process: {p!r}")


def free_names(p, bound=frozenset()):
    """The names free in ``p``, a term with parallel operands or not."""
    return frozenset().union(*[bp._free(g, bound, {}) for g in flatten(p, BPar)[1]])


def ref_avoid_capture(binders, body, mapping):
    live = {k for k in mapping if k not in binders}
    incoming = {mapping[k] for k in live}
    clashing = [b for b in binders if b in incoming]
    if not clashing:
        return binders, body
    avoid = set(incoming) | set(binders) | set(free_names(body))
    ren = {}
    for b in clashing:
        i = 0
        while f"{b}#{i}" in avoid:
            i += 1
        avoid.add(f"{b}#{i}")
        ren[b] = f"{b}#{i}"
    return tuple(ren.get(b, b) for b in binders), ref_subst_names(body, ren)


def ref_fresh_names(avoid):
    return (n for n in map("x{}".format, count()) if n not in avoid)


def ref_canon_bpi(p):
    if isinstance(p, BPar):
        return BPar(ref_canon_bpi(p.left), ref_canon_bpi(p.right))
    return ref_canon(p, {}, ref_fresh_names(free_names(p)), {})


def ref_closed_free(p, bound, recs):
    """The names free in p once each call of a rec named in ``recs`` is
    unfolded: such a call also uses the names ``recs`` gives it."""
    out = set()
    todo = [(p, frozenset(bound), recs)]
    while todo:
        q, bound, recs = todo.pop()
        if isinstance(q, BCall):
            out |= {a for a in q.args if a not in bound} | recs.get(q.name, set())
        elif isinstance(q, BRec):
            out |= {a for a in q.args if a not in bound}
            todo.append((q.body, bound | set(q.params),
                         {k: v for k, v in recs.items() if k != q.name}))
        elif isinstance(q, BIn):
            out |= {q.chan} - bound
            todo.append((q.cont, bound | set(q.vars), recs))
        elif isinstance(q, BOut):
            out |= {q.chan, *q.names} - bound
            todo.append((q.cont, bound, recs))
        elif isinstance(q, BTau):
            todo.append((q.cont, bound, recs))
        elif isinstance(q, BSum):
            todo += [(q.left, bound, recs), (q.right, bound, recs)]
    return out


def ref_canon(p, ren, fresh, recs):
    look = lambda n: ren.get(n, n)
    if isinstance(p, BNil):
        return p
    if isinstance(p, BTau):
        return BTau(ref_canon(p.cont, ren, fresh, recs))
    if isinstance(p, BIn):
        names = tuple([next(fresh) for _ in p.vars])
        inner = {**ren, **dict(zip(p.vars, names))}
        return BIn(look(p.chan), names, ref_canon(p.cont, inner, fresh, recs))
    if isinstance(p, BOut):
        return BOut(look(p.chan), tuple(map(look, p.names)), ref_canon(p.cont, ren, fresh, recs))
    if isinstance(p, (BSum, BPar)):
        return type(p)(ref_canon(p.left, ren, fresh, recs), ref_canon(p.right, ren, fresh, recs))
    if isinstance(p, BRec):
        # the names an enclosing rec's body uses reach this body when a call
        # of that rec in it unfolds, so they are skipped too
        scope = {k: v for k, v in recs.items() if k != p.name}
        own = free_names(p.body, frozenset(p.params))
        used = ref_closed_free(p.body, p.params, scope)
        inner, local = ({}, ref_fresh_names(used)) if ren.keys().isdisjoint(own) else (ren, fresh)
        params = tuple([next(local) for _ in p.params])
        printed = {look(n) for n in own} | (used - own)
        body = ref_canon(p.body, {**inner, **dict(zip(p.params, params))}, local,
                         {**scope, p.name: printed})
        return BRec(p.name, params, body, tuple(map(look, p.args)))
    if isinstance(p, BCall):
        return BCall(p.name, tuple(map(look, p.args)))
    raise TypeError(f"not a bpi process: {p!r}")


def ref_unfold(rec):
    return ref_tie(ref_subst_names(rec.body, dict(zip(rec.params, rec.args))), rec)


def ref_tie(p, rec):
    if isinstance(p, BNil):
        return p
    if isinstance(p, BTau):
        return BTau(ref_tie(p.cont, rec))
    if isinstance(p, BIn):
        return BIn(p.chan, p.vars, ref_tie(p.cont, rec))
    if isinstance(p, BOut):
        return BOut(p.chan, p.names, ref_tie(p.cont, rec))
    if isinstance(p, (BSum, BPar)):
        return type(p)(ref_tie(p.left, rec), ref_tie(p.right, rec))
    if isinstance(p, BRec):
        if p.name == rec.name:
            return p  # inner rec shadows the name
        return BRec(p.name, p.params, ref_tie(p.body, rec), p.args)
    if isinstance(p, BCall):
        if p.name == rec.name:
            return BRec(rec.name, rec.params, rec.body, p.args)
        return p
    raise TypeError(f"not a bpi process: {p!r}")


def _children(p):
    return [getattr(p, f) for f in ("cont", "left", "right", "body") if hasattr(p, f)]


def recs_in(p):
    """Every rec subterm of p, outermost first."""
    if isinstance(p, BRec):
        yield p
    for q in _children(p):
        yield from recs_in(q)


def bpi_binders(p):
    """The names bound anywhere in p."""
    own = p.vars if isinstance(p, BIn) else p.params if isinstance(p, BRec) else ()
    return {*own}.union(*map(bpi_binders, _children(p)))


def captures(p, rec, bound=frozenset()):
    """A copy of rec in p sits under a binder of a name free in rec's body."""
    if isinstance(p, BRec) and (p.name, p.params, p.body) == (rec.name, rec.params, rec.body):
        return not bound.isdisjoint(free_names(rec.body, frozenset(rec.params)))
    bound |= set(p.vars if isinstance(p, BIn) else p.params if isinstance(p, BRec) else ())
    return any(captures(q, rec, bound) for q in _children(p))


def nested_rec(rng):
    """A rec whose body holds a second rec, like
    ``(rec A().x0!().(rec B().c(y).A())())()``: the outer body uses names
    (canonical ones among them) that an unfolding puts into the inner
    body, when the inner one calls the outer one."""
    pool = ("c", "x0", "x1", "y")
    inner_body = BIn(rng.choice(pool), tuple(rng.sample(("y", "x0", "x1"), rng.randint(0, 2))),
                     BCall("A", ()) if rng.random() < 0.7 else bp.BNIL)
    if rng.random() < 0.3:
        inner_body = BSum(inner_body, random_bpi_rec(rng, 2, (("A", 0), ("B", 0))))
    inner = BRec("B", (), inner_body, ())
    outer_body = BOut(rng.choice(pool), tuple(rng.sample(pool, rng.randint(0, 1))), inner)
    return BRec("A", (), outer_body, ())


def random_rec_terms(seed, n, nested=0):
    """n random terms, each with at least one rec, about 30% of them with
    a second parallel operand; then ``nested`` terms with a ``nested_rec``
    in the first operand."""
    rng, out = random.Random(seed), []
    while len(out) < n:
        p = random_bpi_rec(rng)
        if rng.random() < 0.3:
            p = BPar(p, random_bpi_rec(rng, 3))
        if next(recs_in(p), None) is not None:
            out.append(p)
    for _ in range(nested):
        p = nested_rec(rng)
        out.append(BPar(p, random_bpi_rec(rng, 3)) if rng.random() < 0.5 else p)
    return out


# ---------------------------------------------------------------------------
# Broadcast terms: substitution, canonical forms and unfolding


def test_canon_bpi_matches_reference_on_random_terms():
    for p in random_rec_terms(21, 5000, nested=1000):
        c = bp.canon_bpi(p)
        assert repr(c) == repr(ref_canon_bpi(p))
        assert repr(bp.canon_bpi(c)) == repr(c)


def test_unfold_matches_reference_on_random_terms():
    """Equal by repr, except where the rec body binds a name free in
    itself.  There the earlier unfolding either captured that name (a call
    under the binder put the rec back inside its scope) or kept a binder
    that the one walk renames, so the two are alpha-variants.  Of the 9,214
    recs in the canonical forms here, 8,917 unfold equally, 100 unfoldings
    captured and 197 are alpha-variants; of those in the terms as
    generated, 8,426, 382 and 406."""
    counts = Counter()
    for p in random_rec_terms(22, 5000, nested=1000):
        for term in (p, bp.canon_bpi(p)):
            for rec in recs_in(term):
                got, want = bp._unfold(rec), ref_unfold(rec)
                assert not captures(got, rec)
                if repr(got) == repr(want):
                    counts["equal"] += 1
                    continue
                free = free_names(rec.body, frozenset(rec.params))
                assert not bpi_binders(rec.body).isdisjoint(free)
                if captures(want, rec):
                    counts["capture mended"] += 1
                else:
                    assert bp.canon_bpi(got) == bp.canon_bpi(want)
                    counts["alpha-variant"] += 1
    assert counts["capture mended"] and counts["alpha-variant"]


def test_subst_names_matches_reference_on_random_terms():
    """Equal by repr or, where the earlier walk renamed a binder it did not
    need to (it kept a shadowed key in its mapping), after canon_bpi: 24 of
    the 5,000 substitutions here."""
    rng, pool = random.Random(23), ("a", "b", "u", "v", "x", "y", "x0", "x1", "x#0")
    for p in random_rec_terms(24, 5000):
        mapping = {k: rng.choice(pool) for k in rng.sample(pool, rng.randint(0, 3))}
        got, want = bp.subst_names(p, mapping), ref_subst_names(p, mapping)
        assert repr(got) == repr(want) or bp.canon_bpi(got) == bp.canon_bpi(want)


def test_a_rec_canonicalises_alike_in_every_state():
    """Where each rec of a term has its own name and the term's translation
    is defined, every reachable state holds each rec in one canonical form,
    so the translation of the whole walk gives each name one body, and the
    correspondence holds."""
    checked = 0
    for p in random_rec_terms(25, 1000, nested=500):
        names = [r.name for r in recs_in(p)]
        if len(names) != len(set(names)):
            continue
        try:
            bp.encode(p)
        except bp.EncodingError:
            continue
        try:
            report = bp.correspondence_check(p, ExploreBounds(200, 50))
        except (bp.UnboundRecursionVariable, BoundExceeded, RecursionError):
            continue
        assert report.ok, p
        checked += 1
    assert checked > 200
