"""Shared generators and oracles for the test suite.

The predicate oracle enumerates every total attribute valuation over
declared finite domains, which makes it an exact, independent reference
for the witness-enumeration solver whenever all mentioned attributes
carry domains.
"""

import itertools
import random

import pytest

from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.predicates import And, Atom, DomainContext, FF, Not, Or, TT
from abcalc.syntax import parse_process
from abcalc.terms import (
    Attr,
    AttrEnv,
    Aware,
    Call,
    Choice,
    Const,
    In,
    Inact,
    Leaf,
    Out,
    ParC,
    ParP,
    ResIn,
    ResOut,
    RestrictionFn,
    SelfAttr,
    Upd,
    Var,
    ZERO,
)

# ---------------------------------------------------------------------------
# Brute-force predicate oracle

ORACLE_DOMAINS = DomainContext.of(
    {"a": {1, 2, 3}, "b": {"x", "y"}, "c": {0, 5}}
)


def oracle_models(pred, domains=ORACLE_DOMAINS):
    """Every total domain-respecting valuation of the attributes
    mentioned in the predicate."""
    attrs = sorted(pr.pred_attrs(pred))
    choices = []
    for a in attrs:
        dom = domains.get(a)
        assert dom is not None, f"oracle needs a declared domain for {a}"
        choices.append([(a, v) for v in sorted(dom, key=repr)])
    for combo in itertools.product(*choices):
        yield AttrEnv.of(dict(combo))


def oracle_is_sat(pred, domains=ORACLE_DOMAINS):
    return any(pr.satisfies(env, pred) for env in oracle_models(pred, domains))


def oracle_implies(p1, p2, domains=ORACLE_DOMAINS):
    combined = And(p1, Not(p2))
    return not any(
        pr.satisfies(env, combined) for env in oracle_models(combined, domains)
    )


# ---------------------------------------------------------------------------
# Random predicates over the oracle domains

_INT_OPS = ("==", "!=", "<", "<=", ">", ">=")


def random_atom(rng: random.Random):
    attr = rng.choice(["a", "b", "c"])
    if attr == "a":
        consts = [0, 1, 2, 3, 4]
    elif attr == "b":
        consts = ["x", "y", "z"]
    else:
        consts = [0, 5, 7]
    kind = rng.random()
    if kind < 0.2:
        other = rng.choice(["a", "b", "c"])
        return Atom(rng.choice(("==", "!=")), Attr(attr), Attr(other))
    if kind < 0.35:
        members = frozenset(rng.sample(consts, rng.randint(1, 2)))
        return Atom("in", Attr(attr), Const(members))
    op = rng.choice(_INT_OPS) if attr != "b" else rng.choice(("==", "!="))
    return Atom(op, Attr(attr), Const(rng.choice(consts)))


def random_pred(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.35:
        r = rng.random()
        if r < 0.05:
            return TT
        if r < 0.1:
            return FF
        return random_atom(rng)
    shape = rng.random()
    if shape < 0.25:
        return Not(random_pred(rng, depth - 1))
    ctor = And if shape < 0.65 else Or
    return ctor(random_pred(rng, depth - 1), random_pred(rng, depth - 1))


# ---------------------------------------------------------------------------
# Random components

PROBE_MESSAGES = (
    sem.Label(sem.IN, AttrEnv(), pr.TT, (1,)),
    sem.Label(sem.IN, AttrEnv(), pr.TT, (2,)),
    sem.Label(sem.IN, AttrEnv.of({"a": 1}), pr.TT, ("n",)),
)


def random_guard(rng: random.Random):
    """A shallow predicate over the component attributes d and e.  Some are
    ``!(d == 2) && !(d != 2)``, or the same over e: false under every total
    valuation, so an output so guarded is silent, yet true for a hearer
    whose interface lacks the attribute.  They take no draw of their own,
    so the draws after them are those of plain ``ff``."""
    r = rng.random()
    if r < 0.15:
        return TT
    if r < 0.2:
        return FF
    if r < 0.25:
        attr = Attr("d" if r < 0.225 else "e")
        return And(Not(Atom("==", attr, Const(2))), Not(Atom("!=", attr, Const(2))))
    attr = rng.choice(["d", "e"])
    return Atom(rng.choice(("==", "!=")), Attr(attr), Const(rng.randint(1, 3)))


def random_recv_guard(rng: random.Random, var: str):
    r = rng.random()
    if r < 0.3:
        return TT
    if r < 0.6:
        return Atom("==", Var(var), Const(rng.randint(1, 2)))
    return Atom("==", SelfAttr("d"), Const(rng.randint(1, 3)))


def random_process(rng: random.Random, depth: int = 3, calls: tuple = ()):
    """A random process over the attributes d and e.  Given ``calls``, names
    of one-parameter definitions, an end that would be 0 calls one of them
    half the time, with a constant; without, no draw is made for it."""
    if depth == 0 or rng.random() < 0.3:
        if calls and rng.random() < 0.5:
            return Call(rng.choice(calls), (Const(rng.randint(1, 3)),))
        return Inact()
    shape = rng.random()
    cont = lambda: random_process(rng, depth - 1, calls)
    if shape < 0.3:
        exprs = tuple(Const(rng.randint(1, 3)) for _ in range(rng.randint(0, 2)))
        return Out(exprs, random_guard(rng), cont())
    if shape < 0.5:
        var = "x"
        return In(random_recv_guard(rng, var), (var,), cont())
    if shape < 0.6:
        return Aware(random_guard(rng), cont())
    if shape < 0.7:
        body = cont()
        assigns = (("d", Const(rng.randint(1, 3))),)
        if isinstance(body, Upd):
            # adjacent update prefixes are one syntactic block
            return Upd(assigns + body.assigns, body.cont)
        return Upd(assigns, body)
    if shape < 0.85:
        return Choice(cont(), cont())
    return ParP(cont(), cont())


def random_leaf(rng: random.Random, depth: int = 3, calls: tuple = ()) -> Leaf:
    env = {"d": rng.randint(1, 3), "e": rng.randint(1, 3)}
    iface = frozenset(rng.sample(["d", "e"], rng.randint(0, 2)))
    return Leaf(AttrEnv.of(env), iface, random_process(rng, depth, calls))


def random_definitions(rng: random.Random, count: int = 3) -> dict:
    """Definitions ``D0(p)``, ``D1(p)``, ... whose bodies use ``p`` free: as
    an output value, in an awareness guard and as the argument of a call.
    A body calls only later definitions, so every run through them ends."""
    defs, p = {}, Var("p")
    for i in range(count):
        later = tuple(f"D{j}" for j in range(i + 1, count))
        then = Call(rng.choice(later), (p,)) if later else Inact()
        guard = Atom(rng.choice(("==", "!=")), SelfAttr("d"), p)
        offer = Aware(guard, Out((p, Const(rng.randint(1, 3))), random_guard(rng), then))
        defs[f"D{i}"] = (("p",), Choice(offer, random_process(rng, 2, later)))
    return defs


def random_component(rng: random.Random, depth: int = 2, restrict: float = 0.0,
                     calls: tuple = ()):
    """A random tree of leaves; left-, right- and mixed-nested ``||``.  With
    ``restrict``, each node is wrapped, with that probability, in a
    restrictOut or restrictIn of ``RESTRICTION_POOL``; ``calls`` goes to
    ``random_process``."""
    if depth == 0 or rng.random() < 0.6:
        comp = random_leaf(rng, calls=calls)
    else:
        comp = ParC(random_component(rng, depth - 1, restrict, calls),
                    random_component(rng, depth - 1, restrict, calls))
    if restrict and rng.random() < restrict:
        comp = rng.choice((ResOut, ResIn))(comp, random_restriction(rng))
    return comp


def chains_abc(depths) -> str:
    """One component per depth d: emit c_0, receive c_0, emit c_1, ...,
    emit c_d.  The universe closure learns each label one round after
    the one before it, so a depth-d chain needs d + 2 rounds."""
    lines = []
    for j, d in enumerate(depths):
        run = "".join(f'("c{j}_{m}")@tt.(x == "c{j}_{m}")(x).' for m in range(d))
        lines.append(f'comp C{j} {{ iface: []; env: {{}}; run: {run}("c{j}_{d}")@tt.0 }}')
    lines.append("system: " + " || ".join(f"C{j}" for j in range(len(depths))) + ";")
    return "\n".join(lines) + "\n"


def emitters_abc(k: int) -> str:
    """k interleaved emitters, each sending (this.id, i) twice to role b:
    3^k states."""
    lines = ['domain role in {"a", "b"};']
    for i in range(k):
        out = f'(this.id, {i})@(role == "b")'
        lines.append(f'comp E{i} {{ iface: [role]; env: {{id = "e{i}", role = "a"}}; '
                     f"run: {out}.{out}.0 }}")
    lines.append("system: " + " || ".join(f"E{i}" for i in range(k)) + ";")
    return "\n".join(lines) + "\n"


def tau_leaves_abc(k: int, plain: bool = False) -> str:
    """k leaves doing two silent steps, then emitting their id; ``plain``
    drops the silent steps."""
    run = "(this.id)@tt.0" if plain else "()@ff.()@ff.(this.id)@tt.0"
    lines = [f'comp L{i} {{ iface: []; env: {{id = "l{i}"}}; run: {run} }}' for i in range(k)]
    lines.append("system: " + " || ".join(f"L{i}" for i in range(k)) + ";")
    return "\n".join(lines) + "\n"


RESTRICTION_POOL = (
    RestrictionFn("ftt", TT),
    RestrictionFn("fff", FF),
    RestrictionFn("fmsg", Atom("==", pr.MsgIdx(0), Const(1))),
    RestrictionFn("fsnd", Atom("!=", pr.SndAttr("d"), Const(2))),
)


def random_restriction(rng: random.Random) -> RestrictionFn:
    return rng.choice(RESTRICTION_POOL)


# ---------------------------------------------------------------------------
# Equivalence-preserving rewrites (each instance of a proved law)


def _rewrite_proc(rng: random.Random, p):
    choices = []
    if isinstance(p, Choice):
        choices.append(lambda: Choice(p.right, p.left))
    if isinstance(p, ParP):
        choices.append(lambda: ParP(p.right, p.left))
    choices.append(lambda: Aware(TT, p))
    choices.append(lambda: Choice(p, ZERO))
    choices.append(lambda: ParP(p, ZERO))
    choices.append(lambda: Choice(p, p))
    return rng.choice(choices)()


def rewrite_equivalent(rng: random.Random, comp):
    """A component bisimilar to the argument, obtained by one law
    instance applied at a random position."""
    if isinstance(comp, ParC):
        r = rng.random()
        if r < 0.3:
            return ParC(comp.right, comp.left)
        if r < 0.5:
            return ParC(rewrite_equivalent(rng, comp.left), comp.right)
        if r < 0.7:
            return ParC(comp.left, rewrite_equivalent(rng, comp.right))
        return ParC(comp, Leaf(AttrEnv(), frozenset(), ZERO))
    if isinstance(comp, Leaf):
        if rng.random() < 0.3:
            return ParC(comp, Leaf(AttrEnv(), frozenset(), ZERO))
        return Leaf(comp.env, comp.iface, _rewrite_proc(rng, comp.proc))
    return comp


# ---------------------------------------------------------------------------
# Equivalence examples: the choice / or-predicate pair and the negative
# congruence instances


def choice_or_pair(preds, cont: str = '("done")@tt.0', env=None, iface=()):
    """A component guarded by the disjunction of the given predicates,
    paired with the sum of individually guarded branches."""
    texts = [f"({p})" if not p.startswith("(") else p for p in preds]
    disj = " || ".join(texts)
    sum_text = " + ".join(f"{t}(x).{_wrap(cont)}" for t in texts)
    c1 = _leaf(f"({disj})(x).{_wrap(cont)}", env, iface)
    c2 = _leaf(sum_text, env, iface)
    return c1, c2


def _wrap(cont: str) -> str:
    return f"({cont})" if ("+" in cont or "|" in cont) else cont


def _leaf(proc_text: str, env=None, iface=()) -> Leaf:
    return Leaf(AttrEnv.of(env or {}), frozenset(iface), parse_process(proc_text))


def remark51() -> dict:
    """The negative congruence instances: P and Q are bisimilar in
    isolation (neither can move: the awareness guard this.a = w fails
    under the closed environment), but prefixing, interleaving and
    updates can tell them apart by binding or assigning w."""
    env = {"a": "v"}
    p = '<(this.a == "w")> (1)@tt.0'
    q = "0"
    p_bind = "<(this.a == w)> (1)@tt.0"  # the guard name bound by a prefix
    mk = lambda text: Leaf(AttrEnv.of(env), frozenset(), parse_process(text))
    msg = sem.Label(sem.IN, AttrEnv(), pr.TT, ("v",))
    return {
        "P": mk(p),
        "Q": mk(q),
        "prefix_P": mk(f"(tt)(w).({p_bind})"),
        "prefix_Q": mk(f"(tt)(w).{q}"),
        "par_P": mk(f'({p}) | ()@ff.[a := "w"] 0'),
        "par_Q": mk(f'{q} | ()@ff.[a := "w"] 0'),
        "upd_P": mk(f'("z")@tt.[a := "w"] ({p})'),
        "upd_Q": mk(f'("z")@tt.[a := "w"] {q}'),
        "message": msg,
    }


def remark52() -> dict:
    """Mixed choice distinguishes receive predicates: with R an output,
    the message arrival consumes the input branch on one side only."""
    pi1 = Atom("==", Attr("b"), Const(1))
    pi2 = Atom("==", Attr("b"), Const(2))
    r = '("v")@(c == 3).0'
    mk = lambda text: Leaf(AttrEnv.of({"c": 3}), frozenset({"c"}), parse_process(text))
    msg = sem.Label(sem.IN, AttrEnv.of({"b": 1}), pr.TT, ("w",))
    return {
        "C1": mk(f"(b == 1)(x).0 + {r}"),
        "C2": mk(f"(b == 2)(x).0 + {r}"),
        "plain1": mk("(b == 1)(x).0"),
        "plain2": mk("(b == 2)(x).0"),
        "message": msg,
    }


# ---------------------------------------------------------------------------
# Random broadcast terms

_CHANS = ("a", "b", "c")
_NAMES = ("u", "v", "w")


def random_bpi_seq(rng: random.Random, depth: int = 3):
    """A random sequential term (no parallel composition)."""
    from abcalc import bpi as bp

    if depth == 0 or rng.random() < 0.25:
        return bp.BNIL
    shape = rng.random()
    if shape < 0.2:
        return bp.BTau(random_bpi_seq(rng, depth - 1))
    if shape < 0.5:
        names = tuple(rng.sample(_NAMES, rng.randint(0, 2)))
        return bp.BOut(rng.choice(_CHANS), names, random_bpi_seq(rng, depth - 1))
    if shape < 0.8:
        vars_ = tuple(rng.sample(("x", "y"), rng.randint(0, 2)))
        return bp.BIn(rng.choice(_CHANS), vars_, random_bpi_seq(rng, depth - 1))
    return bp.BSum(random_bpi_seq(rng, depth - 1), random_bpi_seq(rng, depth - 1))


def random_bpi(rng: random.Random, depth: int = 3, nest: str = "left", width: int = 2):
    """A random closed term: parallel composition of up to ``width`` + 1
    sequential terms, nested to the ``left``, to the ``right`` or, for
    ``mixed``, either way at each ``||``."""
    from abcalc import bpi as bp

    p = random_bpi_seq(rng, depth)
    for _ in range(rng.randint(0, width)):
        q = random_bpi_seq(rng, depth - 1)
        right = nest == "right" or nest == "mixed" and rng.random() < 0.5
        p = bp.BPar(q, p) if right else bp.BPar(p, q)
    return p


# Binders, channels and values share one pool, canonical names included,
# so binders shadow one another, clash with substituted names and may
# capture a name free in a recursion body.
_REC_POOL = ("a", "b", "u", "v", "x", "y", "x0", "x1")


def random_bpi_rec(rng: random.Random, depth: int = 5, recs: tuple = ()):
    """A random sequential term with parametrised recursion and calls of
    the recursions in scope (``recs``: name and arity); an inner rec may
    reuse the name of an outer one."""
    from abcalc import bpi as bp

    names = lambda k: tuple(rng.choice(_REC_POOL) for _ in range(k))
    if depth == 0 or rng.random() < 0.15:
        if recs and rng.random() < 0.7:
            name, arity = rng.choice(recs)
            return bp.BCall(name, names(arity))
        return bp.BNIL
    cont = lambda: random_bpi_rec(rng, depth - 1, recs)
    shape = rng.random()
    if shape < 0.1:
        return bp.BTau(cont())
    if shape < 0.35:
        return bp.BOut(rng.choice(_REC_POOL), names(rng.randint(0, 2)), cont())
    if shape < 0.6:
        return bp.BIn(rng.choice(_REC_POOL), tuple(rng.sample(_REC_POOL, rng.randint(0, 2))),
                      cont())
    if shape < 0.75:
        return bp.BSum(cont(), cont())
    name = rng.choice(("A", "B"))
    params = tuple(rng.sample(_REC_POOL, rng.randint(0, 2)))
    inner = tuple(r for r in recs if r[0] != name) + ((name, len(params)),)
    return bp.BRec(name, params, random_bpi_rec(rng, depth - 1, inner), names(len(params)))


# ---------------------------------------------------------------------------
# Shared universe helper for law checks


def law_universe(c1, c2, defs=None, domains=pr.EMPTY_DOMAINS):
    """Auto universes of both sides plus the fixed probe messages, so that
    input behaviour is actually exercised."""
    from abcalc.lts import abc_walk, auto_universe, merge_labels

    u1, _ = auto_universe(abc_walk(c1, defs or {}, domains), domains=domains)
    u2, _ = auto_universe(abc_walk(c2, defs or {}, domains), domains=domains)
    return merge_labels(merge_labels(u1, u2, domains), PROBE_MESSAGES, domains)


@pytest.fixture
def rng():
    return random.Random(20260826)


# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion at the end of the
# run, collected by tests/test_acceptance.py.

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, title: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    ACCEPTANCE_RESULTS.append(
        f"criterion {number} [{'PASS' if ok else 'FAIL'}] {title}{tail}"
    )
    assert ok, f"acceptance criterion {number} failed: {title}{tail}"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)
