"""Acceptance gate: seven end-to-end criteria, each reported as a single
pass/fail line in the terminal summary.

All randomness is seeded, so the suite is deterministic run to run.
"""

import random

import pytest

from abcalc import predicates as pr
from abcalc.bpi import correspondence_check, encode, parse_bpi, pretty_bpi
from abcalc.equivalence import barbs, label_equiv, strong_bisim, weak_bisim
from abcalc.lts import ExploreBounds, abc_walk, aut_text, auto_universe, explore, unstepped
from abcalc.predicates import And, Atom, DomainContext, Not
from abcalc.semantics import IN, Label, OUT
from abcalc.syntax import parse_predicate, parse_process, pretty_pred, pretty_process
from abcalc.systems import corpus_path, network
from abcalc.terms import Attr, AttrEnv, Const, Leaf, ParC, ResIn, ResOut

import composition_reference as ref
import conftest
from conftest import (
    ORACLE_DOMAINS,
    PROBE_MESSAGES,
    choice_or_pair,
    law_universe,
    oracle_implies,
    oracle_is_sat,
    random_bpi,
    random_component,
    random_leaf,
    random_pred,
    random_process,
    random_restriction,
    record_acceptance,
    remark51,
    remark52,
    rewrite_equivalent,
)

SEED = 973


def leaf(text, env=None, iface=()):
    return Leaf(AttrEnv.of(env or {}), frozenset(iface), parse_process(text))


# ---------------------------------------------------------------------------
# 1. Predicate solver


def test_criterion_1_predicate_solver():
    ok = True
    notes = []

    if not pr.equiv(parse_predicate("a != 10"), parse_predicate("!(a == 10)")):
        ok, notes = False, notes + ["negated equality"]

    roles = DomainContext.of({"role": {"client", "fwd"}})
    conj_form = parse_predicate('(role == "client") && (role != "fwd")')
    pi1 = parse_predicate('role == "client"')
    if not pr.equiv(conj_form, pi1, roles):
        ok, notes = False, notes + ["conjunction under domain"]
    # the domain-sensitive half: the bare inequality matches the equality
    # only when role ranges over the two declared values
    if not pr.equiv(parse_predicate('role != "fwd"'), pi1, roles):
        ok, notes = False, notes + ["inequality under domain"]
    if pr.equiv(parse_predicate('role != "fwd"'), pi1):
        ok, notes = False, notes + ["inequality without domain"]

    rng = random.Random(SEED)
    agree = 0
    total = 500
    prev = random_pred(rng)
    for _ in range(total):
        p = random_pred(rng)
        sat_ok = pr.is_sat(p, ORACLE_DOMAINS) == oracle_is_sat(p)
        imp_ok = pr.implies(prev, p, ORACLE_DOMAINS) == oracle_implies(prev, p)
        agree += sat_ok and imp_ok
        prev = p
    if agree != total:
        ok = False
        notes.append(f"oracle agreement {agree}/{total}")

    record_acceptance(
        1, "predicate solver matches the enumeration oracle", ok,
        "; ".join(notes) if notes else f"{total}/{total} random checks agree",
    )


# ---------------------------------------------------------------------------
# 2. Narrated transition sequence of the forwarding network


def test_criterion_2_narrated_sequence():
    net = network()
    domains = net["domains"]
    pi1 = net["pi1"]
    lts = explore(unstepped(abc_walk(net["N"], net["defs"], domains)))

    def kind(lab):
        if lab.kind != OUT:
            return "in"
        if pr.is_ff(lab.pred, domains):
            return "tau"
        if pr.equiv(lab.pred, pi1, domains) and lab.values == ("p", "v"):
            return "pi1"
        return "other"

    wanted = ("pi1", "tau", "tau", "pi1", "pi1")

    def search(state, i):
        if i == len(wanted):
            return True
        return any(
            kind(lab) == wanted[i] and search(dst, i + 1)
            for src, lab, dst in lts.transitions
            if src == state
        )

    has_path = search(0, 0)
    tau_shape = any(
        pr.is_ff(lab.pred, domains)
        and 'role == "fwd"' in pretty_pred(lab.pred)
        and 'role != "fwd"' in pretty_pred(lab.pred)
        for _, lab, _ in lts.transitions
    )
    first = [lab for src, lab, _ in lts.transitions if src == 0]
    first_ok = len(first) == 1 and kind(first[0]) == "pi1"

    record_acceptance(
        2, "network narrates client emission, silent forwards, re-emissions",
        has_path and tau_shape and first_ok,
        f"{len(lts.states)} states, {len(lts.transitions)} transitions",
    )


# ---------------------------------------------------------------------------
# 3. Bisimilarity verdicts for the named examples


def test_criterion_3_example_verdicts():
    checks = {}

    c1, c2 = choice_or_pair(("x == 1", "x == 2"))
    checks["or-vs-choice n=2"] = weak_bisim(c1, c2, universe=law_universe(c1, c2)).equivalent
    c1, c2 = choice_or_pair(("x == 1", "x == 2", "d == 1"), env={"d": 1})
    checks["or-vs-choice n=3"] = weak_bisim(c1, c2, universe=law_universe(c1, c2)).equivalent

    net = network()
    checks["closed network vs test"] = weak_bisim(
        net["N_closed"], net["T"], net["defs"], domains=net["domains"]
    ).equivalent
    v = weak_bisim(net["N_CP2"], net["T_CP2"], net["defs"], domains=net["domains"])
    checks["interference detected"] = not v.equivalent
    checks["witness mentions f3"] = bool(v.witness) and any(
        "f3" in s["label"] for s in v.witness
    )

    r = remark52()
    u = (r["message"],)
    checks["plain inputs equivalent"] = weak_bisim(r["plain1"], r["plain2"], universe=u).equivalent
    checks["mixed choice distinguishes"] = not weak_bisim(r["C1"], r["C2"], universe=u).equivalent

    r = remark51()
    u = (r["message"],)
    checks["baseline equivalent"] = weak_bisim(r["P"], r["Q"], universe=u).equivalent
    checks["prefix breaks it"] = not weak_bisim(r["prefix_P"], r["prefix_Q"], universe=u).equivalent
    checks["interleaving breaks it"] = not weak_bisim(r["par_P"], r["par_Q"], universe=u).equivalent
    checks["update breaks it"] = not weak_bisim(r["upd_P"], r["upd_Q"], universe=u).equivalent

    bad = [name for name, ok in checks.items() if not ok]
    record_acceptance(
        3, "named equivalence and inequivalence verdicts reproduced",
        not bad, "; ".join(bad) if bad else f"{len(checks)} verdicts",
    )


# ---------------------------------------------------------------------------
# 4. Law suite


def _law_pairs():
    mk = lambda t: leaf(t, env={"d": 1})
    a = leaf("(1)@tt.0")
    b = leaf('(x == 1)(x).("got")@tt.0', env={"d": 1}, iface=["d"])
    c = leaf("()@ff.(2)@tt.0")
    zero = Leaf(AttrEnv.of({"d": 9}), frozenset(), parse_process("0"))
    p1, p2, p3 = "(1)@tt.0", "(x == 1)(x).(2)@tt.0", "()@ff.(3)@tt.0"
    body = "(1)@tt.(x == 1)(x).(2)@tt.0"
    return {
        "parallel": [
            (ParC(a, b), ParC(b, a)),
            (ParC(ParC(a, b), c), ParC(a, ParC(b, c))),
            (ParC(zero, c), c),
        ],
        "choice": [
            (mk(f"{p1} + {p2}"), mk(f"{p2} + {p1}")),
            (mk(f"({p1} + {p2}) + {p3}"), mk(f"{p1} + ({p2} + {p3})")),
            (mk(f"{p1} + 0"), mk(p1)),
            (mk(f"{p2} + {p2}"), mk(p2)),
            (mk(f"<(d == 1)> ({p1} + {p2})"), mk(f"<(d == 1)> {p1} + <(d == 1)> {p2}")),
        ],
        "interleaving": [
            (mk(f"{p1} | {p2}"), mk(f"{p2} | {p1}")),
            (mk(f"({p1} | {p2}) | {p3}"), mk(f"{p1} | ({p2} | {p3})")),
            (mk(f"{p1} | 0"), mk(p1)),
        ],
        "awareness": [
            (mk(f"<ff> ({body})"), mk("0")),
            (mk(f"<tt> ({body})"), mk(body)),
            (mk(f"<(d == 1)> (<(d != 2)> ({body}))"), mk(f"<((d == 1) && (d != 2))> ({body})")),
        ],
        "silent-components": [
            (mk("(x == 1)(x).(y == 2)(y).0"), mk("0")),
            (mk("<(d == 1)> (tt)(x).0"), mk("0")),
            (mk("(tt)(x).0 + (x == 1)(x).0 | ()@ff.0"), mk("0")),
        ],
    }


def test_criterion_4_law_suite():
    bad = []
    count = 0
    for law, pairs in _law_pairs().items():
        for i, (c1, c2) in enumerate(pairs):
            u = law_universe(c1, c2)
            if not weak_bisim(c1, c2, universe=u).equivalent:
                bad.append(f"{law}[{i}]")
            count += 1

    rng = random.Random(SEED)
    silent = Label(IN, AttrEnv(), pr.FF, ())
    violations = 0
    for _ in range(200):
        comp = random_component(rng)
        # a silent message always loops back
        if comp not in ref.system_in_step(comp, silent, {}):
            violations += 1
        # silent steps lift through parallel composition
        other = random_component(rng)
        composed = ref.system_out_steps(ParC(comp, other), {})
        for lab, succ in ref.system_out_steps(comp, {}):
            if pr.is_ff(lab.pred) and (lab, ParC(succ, other)) not in composed:
                violations += 1
        # equivalent message predicates give the same responses
        for m in PROBE_MESSAGES:
            variant = Label(IN, m.env, Not(Not(m.pred)), m.values)
            if set(ref.system_in_step(comp, variant, {})) != set(
                ref.system_in_step(comp, m, {})
            ):
                violations += 1
        # both restrictions preserve silent steps
        fn = random_restriction(rng)
        n_tau = sum(1 for lab, _ in ref.system_out_steps(comp, {}) if pr.is_ff(lab.pred))
        for wrapped in (ResOut(comp, fn), ResIn(comp, fn)):
            n_after = sum(
                1 for lab, _ in ref.system_out_steps(wrapped, {}) if pr.is_ff(lab.pred)
            )
            if n_after < n_tau:
                violations += 1

    ok = not bad and violations == 0
    record_acceptance(
        4, "equational laws and silent-step properties hold", ok,
        "; ".join(bad) or (f"{violations} violations" if violations else
                           f"{count} law instances, 200 random components"),
    )


# ---------------------------------------------------------------------------
# 5. Congruence under composition and restriction


def test_criterion_5_congruence():
    rng = random.Random(SEED)
    pairs_checked = 0
    failures = []
    while pairs_checked < 100:
        c1 = random_leaf(rng, depth=2)
        c2 = rewrite_equivalent(rng, c1)
        u = law_universe(c1, c2)
        if not weak_bisim(c1, c2, universe=u).equivalent:
            failures.append(f"pair {pairs_checked}: rewrite not equivalent")
            break

        ctx = random_leaf(rng, depth=2)
        d1, d2 = ParC(c1, ctx), ParC(c2, ctx)
        if not weak_bisim(d1, d2, universe=law_universe(d1, d2)).equivalent:
            failures.append(f"pair {pairs_checked}: parallel context broke it")
            break

        fn = random_restriction(rng)
        r1, r2 = ResOut(c1, fn), ResOut(c2, fn)
        if not weak_bisim(r1, r2, universe=law_universe(r1, r2)).equivalent:
            failures.append(f"pair {pairs_checked}: output restriction broke it")
            break
        r1, r2 = ResIn(c1, fn), ResIn(c2, fn)
        if not weak_bisim(r1, r2, universe=law_universe(r1, r2)).equivalent:
            failures.append(f"pair {pairs_checked}: input restriction broke it")
            break

        b1, b2 = barbs(c1), barbs(c2)
        match = all(any(pr.equiv(p, q) for q in b2) for p in b1) and all(
            any(pr.equiv(p, q) for q in b1) for p in b2
        )
        if not match:
            failures.append(f"pair {pairs_checked}: barbs disagree")
            break
        pairs_checked += 1

    record_acceptance(
        5, "equivalence survives parallel contexts and restrictions",
        not failures, failures[0] if failures else "100 pairs preserved",
    )


# ---------------------------------------------------------------------------
# 6. Encoding correspondence and transfer of equivalences


ENCODING_TERMS = [
    "nil",
    "tau.nil",
    "tau.tau.a!(v).nil",
    "a!().nil",
    "a!(v).nil",
    "a!(v, w).nil",
    "a().nil",
    "a(x).nil",
    "a(x, y).nil",
    "a(x).x!(v).nil",
    "a(x).b(y).y!(x).nil",
    "a!(v).b!(w).nil",
    "a!(v).a(x).nil",
    "a(x).a!(x).nil",
    "a(x).nil + b(y).nil",
    "a!(v).nil + b!(w).nil",
    "a(x).x!(w).nil + b(y).nil + tau.c!(u).nil",
    "tau.a!(v).nil + a(x).nil",
    "a!(v).nil || a(x).nil",
    "a!(v).nil || a(x).x!(w).nil || b(y).nil",
    "a!(v).nil || b!(w).nil",
    "a(x).nil || a(y).nil",
    "tau.a!(v).nil || a(x).b!(x).nil",
    "c!(a).nil || c(x).x(y).y!(x).nil || a!(b).nil",
    "(rec A(x).a!(x).A(x))(v)",
    "(rec A(x).a!(x).tau.A(x))(v) || a(y).nil",
    "(rec A(x, y).x!(y).A(y, x))(a, b)",
    "(rec A().tau.A())()",
    "a((rec B(z).b!(z).B(z))(w))",
    "(rec A(x).a!(x).A(x))(v) || (rec C(y).b(y).C(y))(u)",
]

# hand-verified source-calculus verdicts: the encodings must agree
EQUIVALENT_PAIRS = [
    ("a!(v).nil", "a!(v).nil + a!(v).nil"),
    ("tau.a!(v).nil", "a!(v).nil"),
    ("nil", "nil || nil"),
    ("a!(v).b!(w).nil", "a!(v).b!(w).nil || nil"),
    ("tau.tau.nil", "nil"),
]
INEQUIVALENT_PAIRS = [
    ("a!(v).nil", "b!(v).nil"),
    ("a!(v).nil", "nil"),
    ("a!(v).a!(v).nil", "a!(v).nil"),
    ("a!(v).nil + b!(w).nil", "a!(v).nil"),
    ("a!(v).nil", "a!(w).nil"),
]


def _fix_input_term(text):
    # "a((rec ...)(w))" is not grammatical; build it directly
    if text.startswith("a((rec"):
        from abcalc.bpi import BIn

        return BIn("a", ("x",), parse_bpi("(rec B(z).b!(z).B(z))(w)"))
    return parse_bpi(text)


def test_criterion_6_encoding_correspondence():
    bad = []
    corpus = [corpus_path(n).read_text() for n in (
        "choice.bpi", "handshake.bpi", "mobile.bpi", "relay.bpi",
        "repeater.bpi", "tau_chain.bpi",
    )]
    rng = random.Random(SEED)
    terms = [_fix_input_term(t) for t in ENCODING_TERMS]
    terms += [parse_bpi(t) for t in corpus]
    terms += [random_bpi(rng) for _ in range(10)]
    for i, p in enumerate(terms):
        report = correspondence_check(p, ExploreBounds(max_states=600))
        if not report.ok:
            bad.append(f"term {i} ({pretty_bpi(p)[:40]}): {report.violations[0]}")

    for want, pairs in ((True, EQUIVALENT_PAIRS), (False, INEQUIVALENT_PAIRS)):
        for s1, s2 in pairs:
            e1, d1 = encode(parse_bpi(s1))
            e2, d2 = encode(parse_bpi(s2))
            got = weak_bisim(e1, e2, {**d1, **d2}).equivalent
            if got != want:
                bad.append(f"transfer {s1!r} vs {s2!r}: expected {want}")

    record_acceptance(
        6, "broadcast encoding is step-for-step faithful", not bad,
        bad[0] if bad else f"{len(terms)} terms, 10 transfer pairs",
    )


# ---------------------------------------------------------------------------
# 7. Infrastructure: round trips and deterministic exports


def test_criterion_7_infrastructure(tmp_path):
    from abcalc.cli import main
    from abcalc.syntax import parse_abc, pretty_model

    bad = []
    rng = random.Random(SEED)

    for name in ("network.abc", "zero.abc"):
        text = corpus_path(name).read_text()
        model = parse_abc(text)
        again = parse_abc(pretty_model(model))
        if (again.component, again.defs, again.domains) != (
            model.component, model.defs, model.domains
        ):
            bad.append(f"model round trip: {name}")
    for name in ("choice.bpi", "handshake.bpi", "mobile.bpi", "relay.bpi",
                 "repeater.bpi", "tau_chain.bpi"):
        p = parse_bpi(corpus_path(name).read_text())
        if parse_bpi(pretty_bpi(p)) != p:
            bad.append(f"bpi round trip: {name}")

    for i in range(400):
        p = random_process(rng)
        if parse_process(pretty_process(p)) != p:
            bad.append(f"process round trip #{i}")
            break
    for i in range(300):
        p = random_pred(rng)
        if parse_predicate(pretty_pred(p)) != p:
            bad.append(f"predicate round trip #{i}")
            break
    for i in range(300):
        p = random_bpi(rng)
        if parse_bpi(pretty_bpi(p)) != p:
            bad.append(f"bpi round trip #{i}")
            break

    outs = []
    for i in range(3):
        path = tmp_path / f"net{i}.aut"
        rc = main(["explore", str(corpus_path("network.abc")),
                   "--universe", "none", "-o", str(path)])
        if rc != 0:
            bad.append(f"explore run {i} failed")
        outs.append(path.read_bytes())
    if not (outs[0] == outs[1] == outs[2]):
        bad.append("aut export not byte-identical across runs")

    net = network()
    a1 = aut_text(explore(unstepped(abc_walk(net["N"], net["defs"], net["domains"]))))
    a2 = aut_text(explore(unstepped(abc_walk(net["N"], net["defs"], net["domains"]))))
    if a1 != a2:
        bad.append("in-process exploration nondeterministic")

    record_acceptance(
        7, "round trips and deterministic exports", not bad,
        bad[0] if bad else "corpus + 1000 random terms, byte-identical .aut",
    )
