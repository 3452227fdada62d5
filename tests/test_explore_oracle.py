"""Exploration against the pipeline it replaced: the universe closure
without recorded steps, then a breadth-first walk in sorted order that
steps every state again and prints every successor as its sort key.  The
engine numbers the closure's states instead, so the two must agree on
the .aut text, the universe and, when a bound is hit, the message with
the depth reached and the frontier size."""

from pathlib import Path

import pytest

from abcalc import bpi as bp
from abcalc import lts as L
from abcalc import predicates as pr
from abcalc.equivalence import barbs, strong_bisim, weak_bisim
from abcalc.lts import (
    BoundExceeded,
    DEFAULT_BOUNDS,
    ExploreBounds,
    abc_walk,
    aut_text,
    auto_universe,
    explore,
    label_equiv,
    merge_labels,
    unstepped,
)
from abcalc.predicates import EMPTY_DOMAINS
from abcalc.semantics import OUT
from abcalc.syntax import parse_abc, pretty_component, pretty_label
from abcalc.cli import main
from abcalc.systems import corpus_path, network
from abcalc.terms import Choice, In, Inact, Leaf, Out, Tt, canonical

import composition_reference as ref
from conftest import (chains_abc, emitters_abc, random_bpi, random_component,
                      random_definitions)

# ---------------------------------------------------------------------------
# The replaced pipeline


def old_fixpoint(initial, out_steps, in_steps, grow, base, max_states):
    universe, new = tuple(base), ()
    seen, queue, stepped, met = {initial}, [initial], [], set()
    depth = {initial: 0}

    def visit(state, succ):
        if succ not in seen:
            if len(seen) >= max_states:
                raise BoundExceeded(f"state bound {max_states} hit", len(queue),
                                    max(depth.values()))
            seen.add(succ)
            depth[succ] = depth[state] + 1
            queue.append(succ)

    while True:
        for state in stepped:
            for lab in new:
                for succ in in_steps(state, lab):
                    visit(state, succ)
        fresh = []
        while queue:
            state = queue.pop(0)
            for lab, succ in out_steps(state):
                if lab not in met:
                    met.add(lab)
                    fresh.append(lab)
                visit(state, succ)
            for lab in universe:
                for succ in in_steps(state, lab):
                    visit(state, succ)
            stepped.append(state)
        grown = grow(universe, fresh)
        if len(grown) == len(universe):
            return grown
        old = set(universe)
        new, universe = [lab for lab in grown if lab not in old], grown


def old_reach(initial, successors, bounds):
    states, index, depth, transitions, queue = [initial], {initial: 0}, [0], [], [0]
    while queue:
        src = queue.pop(0)
        for lab, succ in successors(states[src]):
            dst = index.get(succ)
            if dst is None:
                if len(states) >= bounds.max_states:
                    raise BoundExceeded(f"state bound {bounds.max_states} hit", len(queue),
                                        depth[-1])
                if depth[src] + 1 > bounds.max_depth:
                    raise BoundExceeded(f"depth bound {bounds.max_depth} hit", len(queue),
                                        depth[-1])
                dst = index[succ] = len(states)
                states.append(succ)
                depth.append(depth[src] + 1)
                queue.append(dst)
            transitions.append((src, lab, dst))
    return states, transitions


def old_merged(have, new, domains):
    out = list(have)
    for lab in new:
        if not any(label_equiv(lab, old, domains) for old in out):
            out.append(lab)
    return tuple(sorted(out, key=pretty_label))


def old_auto_universe(comp, defs, bounds, domains):
    def grow(have, outputs):
        heard = [lab.as_input() for lab in outputs if not pr.is_ff(lab.pred, domains)]
        return old_merged(have, sorted(heard, key=pretty_label), domains)

    return old_fixpoint(
        canonical(comp),
        lambda c: [(lab, canonical(s)) for lab, s in ref.system_out_steps(c, defs)],
        lambda c, msg: [canonical(s) for s in ref.system_in_step(c, msg, defs)],
        grow, (), bounds.max_states)


def old_successors(defs, universe):
    def successors(comp):
        steps = [(lab, canonical(c)) for lab, c in ref.system_out_steps(comp, defs)]
        steps += [(msg, canonical(c)) for msg in universe
                  for c in ref.system_in_step(comp, msg, defs)]
        return sorted(steps, key=lambda st: (pretty_label(st[0]), pretty_component(st[1])))

    return successors


def old_aut_text(states, transitions, domains) -> str:
    """The Aldebaran text, an output printed ``tau`` when no total
    valuation within ``domains`` satisfies its predicate."""
    def text(lab):
        silent = lab.kind == OUT and pr.is_ff(lab.pred, domains)
        return ("tau" if silent else pretty_label(lab)).replace('"', "'")

    lines = [f"des (0,{len(transitions)},{len(states)})"]
    lines += [f'({src},"{text(lab)}",{dst})' for src, lab, dst in transitions]
    return "\n".join(lines) + "\n"


def old_explore(comp, defs, mode, bounds, domains):
    try:
        universe = old_auto_universe(comp, defs, bounds, domains) if mode == "auto" else ()
        states, transitions = old_reach(canonical(comp), old_successors(defs, universe), bounds)
        return old_aut_text(states, transitions, domains), universe
    except BoundExceeded as exc:
        return str(exc)


def new_explore(comp, defs, mode, bounds, domains):
    try:
        universe, closure = (auto_universe(abc_walk(comp, defs, domains), bounds, domains)
                             if mode == "auto" else ((), None))
        return aut_text(explore(closure or unstepped(abc_walk(comp, defs, domains)), universe,
                                bounds)), universe
    except BoundExceeded as exc:
        return str(exc)


def old_correspondence(p, bounds):
    universe = old_fixpoint(
        bp.canon_bpi(p),
        lambda q: [(lab, bp.canon_bpi(nxt)) for lab, nxt in ref.bpi_steps(q)],
        lambda q, msg: [bp.canon_bpi(nxt) for nxt in ref.par_ins(q, *msg[1:])],
        lambda have, outs: tuple(sorted({*have, *(("in", *l[1:]) for l in outs if l != bp.TAU)})),
        (), bounds.max_states)
    states, transitions = old_reach(
        bp.canon_bpi(p),
        lambda q: [(lab, bp.canon_bpi(nxt)) for lab, nxt in ref.bpi_steps(q, universe)],
        bounds)
    report = bp.CorrespondenceReport(len(states), len(transitions), universe)
    steps = [[] for _ in states]
    for src, lab, dst in transitions:
        steps[src].append((lab, states[dst]))
    for cur, bsteps in zip(states, steps):
        comp, defs = bp.encode(cur)
        comp = canonical(comp)
        asteps = list(ref.system_out_steps(comp, defs))
        for lab in universe:
            msg = bp._abc_label(lab)
            for c2 in ref.system_in_step(comp, msg, defs):
                asteps.append((msg, c2))
        asteps = [(lab, canonical(c2)) for lab, c2 in asteps]
        if len(bsteps) != len(asteps):
            report.violations.append(("transition-count", cur, len(bsteps), len(asteps)))
        remaining = list(asteps)
        for lab, nxt in bsteps:
            want = (bp._abc_label(lab), canonical(bp.encode(nxt)[0]))
            if want in remaining:
                remaining.remove(want)
            else:
                report.violations.append(("unmatched-source-step", cur, lab))
        for extra in remaining:
            report.violations.append(("unmatched-target-step", cur, extra[0]))
        tgt_barbs = frozenset(lab.values[0] for lab, _ in ref.system_out_steps(comp, defs)
                              if isinstance(lab.pred, Tt) and lab.values)
        src_barbs = frozenset(lab[1] for lab, _ in ref.bpi_steps(cur) if lab != bp.TAU)
        if src_barbs != tgt_barbs:
            report.violations.append(("barb-mismatch", cur, src_barbs, tgt_barbs))
    return report


def correspondence(check, p, bounds):
    try:
        return check(p, bounds)
    except BoundExceeded as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# Models

SMALL_BOUNDS = [ExploreBounds(s, d) for s in (5, 40) for d in (2, 4)]

LABEL_COUNTER = ("def A = (tt)(n).(n + 1)@tt.A;\n"
                 "comp K { iface: []; env: {}; run: A }\n"
                 "comp Z { iface: []; env: {}; run: (0)@tt.0 }\n"
                 "system: K || Z;\n")
STATE_COUNTER = "def A(n) = (n)@tt.A(n + 1);\ncomp C { iface: []; env: {}; run: A(0) }\n"


def named_models():
    net = network()
    for key in ("N", "T", "N_closed", "N_CP2", "T_CP2"):
        yield f"network-{key}", net[key], net["defs"], net["domains"], True
    for depths in ((3,), (3, 2), (10,)):
        model = parse_abc(chains_abc(depths))
        yield f"chains-{depths}", model.component, model.defs, model.domains, True
    for name, text in (("label-counter", LABEL_COUNTER), ("state-counter", STATE_COUNTER)):
        model = parse_abc(text)
        yield name, model.component, model.defs, model.domains, False


# ---------------------------------------------------------------------------
# Differential tests


@pytest.mark.parametrize("mode", ["none", "auto"])
def test_random_components_match_old_pipeline(rng, mode):
    for _ in range(200):
        c = random_component(rng)
        for bounds in SMALL_BOUNDS:
            assert new_explore(c, {}, mode, bounds, EMPTY_DOMAINS) == \
                old_explore(c, {}, mode, bounds, EMPTY_DOMAINS)


@pytest.mark.parametrize("mode", ["none", "auto"])
def test_components_calling_definitions_match_old_pipeline(rng, mode):
    for _ in range(100):
        defs = random_definitions(rng)
        c = random_component(rng, calls=tuple(defs))
        for bounds in SMALL_BOUNDS:
            assert new_explore(c, defs, mode, bounds, EMPTY_DOMAINS) == \
                old_explore(c, defs, mode, bounds, EMPTY_DOMAINS)


@pytest.mark.parametrize("mode", ["none", "auto"])
def test_named_models_match_old_pipeline(mode):
    for name, comp, defs, domains, finite in named_models():
        bounds = SMALL_BOUNDS + [ExploreBounds(60, 30), ExploreBounds(200, 8)]
        if finite:
            bounds.append(DEFAULT_BOUNDS)
        for b in bounds:
            got = new_explore(comp, defs, mode, b, domains)
            assert got == old_explore(comp, defs, mode, b, domains), (name, b)


def test_correspondence_matches_old_pipeline(rng):
    for _ in range(100):
        p = random_bpi(rng)
        for bounds in (DEFAULT_BOUNDS, ExploreBounds(5, 2), ExploreBounds(40, 4)):
            assert correspondence(bp.correspondence_check, p, bounds) == \
                correspondence(old_correspondence, p, bounds)


# Faults put into the encoding, so that the violation path runs: the real
# encoding is correct, and the check then only ever explains a match.


def swap_channels(real):
    """``_abc_label`` with channels ``a`` and ``b`` swapped."""
    swap = {"a": "b", "b": "a"}
    return lambda lab: real(lab if lab == bp.TAU else (lab[0], swap.get(lab[1], lab[1]), lab[2]))


def drop_branches(kind):
    """``_encode_leaf`` that leaves out each top-level branch of ``kind``."""

    def drop(proc):
        if isinstance(proc, kind):
            return Inact()
        if isinstance(proc, Choice):
            return Choice(drop(proc.left), drop(proc.right))
        return proc

    return lambda real: lambda g, defs: Leaf((leaf := real(g, defs)).env, leaf.iface,
                                             drop(leaf.proc))


FAULTS = {
    "swap-channels": ("_abc_label", swap_channels,
                      {"unmatched-source-step", "unmatched-target-step"}),
    "drop-inputs": ("_encode_leaf", drop_branches(In),
                    {"unmatched-source-step", "unmatched-target-step"}),
    "drop-outputs": ("_encode_leaf", drop_branches(Out),
                     {"transition-count", "unmatched-source-step", "unmatched-target-step",
                      "barb-mismatch"}),
}
CORPUS_BPI = ("choice", "handshake", "mobile", "relay", "repeater", "tau_chain")


@pytest.mark.parametrize("fault", FAULTS)
def test_violations_match_old_pipeline(monkeypatch, rng, fault):
    name, make, kinds = FAULTS[fault]
    monkeypatch.setattr(bp, name, make(getattr(bp, name)))
    terms = [bp.parse_bpi(corpus_path(f"{n}.bpi").read_text()) for n in CORPUS_BPI]
    terms += [random_bpi(rng) for _ in range(60)]
    seen = set()
    for p in terms:
        for bounds in (DEFAULT_BOUNDS, ExploreBounds(40, 4)):
            got = correspondence(bp.correspondence_check, p, bounds)
            assert got == correspondence(old_correspondence, p, bounds), p
            if not isinstance(got, str):
                seen |= {v[0] for v in got.violations}
    assert seen >= kinds


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_encoding_reports_a_violation(monkeypatch, capsys, fault):
    name, make, _ = FAULTS[fault]
    monkeypatch.setattr(bp, name, make(getattr(bp, name)))
    assert main(["verify-encoding", str(corpus_path("relay.bpi"))]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("VIOLATION: ")
    assert err and all(line.startswith("violation: (") for line in err.splitlines())


def test_bisim_numbering_a_closure_matches_fresh_exploration(rng):
    # the auto verdict numbers each side's closure; the same check under the
    # merged universe, given explicitly, steps both sides again
    for _ in range(60):
        c1, c2 = random_component(rng), random_component(rng)
        u1, _ = auto_universe(abc_walk(c1, {}))
        u2, _ = auto_universe(abc_walk(c2, {}))
        universe = merge_labels(u1, u2)
        for check in (strong_bisim, weak_bisim):
            assert check(c1, c2).as_dict() == check(c1, c2, universe=universe).as_dict()


# ---------------------------------------------------------------------------
# Work done per state


def test_explore_prints_each_leaf_once(monkeypatch):
    """A sort key is the skeleton filled with the texts of the leaves, so
    each leaf is printed once, not each state."""
    model = parse_abc(emitters_abc(5))
    printed = []
    monkeypatch.setattr(L, "pretty_component", lambda c: printed.append(c) or pretty_component(c))
    universe, closure = auto_universe(abc_walk(model.component, model.defs, model.domains),
                                      domains=model.domains)
    lts = explore(closure, universe)
    assert (len(lts.states), len(lts.transitions)) == (243, 2025)
    # five emitters of three local states each
    assert len(printed) == len(set(printed)) == 15
    printed.clear()
    lts = explore(unstepped(abc_walk(model.component, model.defs, model.domains)))
    assert len(lts.states) == 243
    assert len(printed) == len(set(printed)) == 15


@pytest.mark.parametrize("mode", ["auto", "declared", "none"])
def test_auto_explore_steps_each_state_once(monkeypatch, mode):
    """Under ``auto`` the fixpoint steps each state; under a fixed
    universe ``explore`` numbers an unstepped closure and steps each state
    as it numbers it."""
    declared = 'universe { msg {} @ tt ("e0", 0); }\n' if mode == "declared" else ""
    model = parse_abc(emitters_abc(3) + declared)
    outs, ins = [], []
    real_outs, real_ins = L.Walk.outs, L.Walk.ins
    monkeypatch.setattr(L.Walk, "outs", lambda walk, c: outs.append(c) or real_outs(walk, c))
    monkeypatch.setattr(L.Walk, "ins",
                        lambda walk, c, msg: ins.append((c, msg)) or real_ins(walk, c, msg))
    walk = abc_walk(model.component, model.defs, model.domains)
    universe, closure = (auto_universe(walk, domains=model.domains) if mode == "auto"
                         else (model.universe, unstepped(walk)))
    assert len(universe) == {"auto": 3, "declared": 1, "none": 0}[mode]
    lts = explore(closure, universe)
    assert len(outs) == len(set(outs)) == len(lts.states)
    assert len(ins) == len(set(ins)) == len(lts.states) * len(universe)


FAMILIES = Path(__file__).resolve().parent / "golden" / "families"


@pytest.mark.parametrize("weak, stepped, found", [(False, 1, 0), (True, 27, 1)])
def test_barbs_step_each_state_once(monkeypatch, weak, stepped, found):
    """Weak barbs step each state that silent outputs reach once, for the
    walk to those states and for their barbs alike."""
    model = parse_abc((FAMILIES / "tau-k3.abc").read_text())
    outs = []
    real_outs = L.Walk.outs
    monkeypatch.setattr(L.Walk, "outs", lambda walk, c: outs.append(c) or real_outs(walk, c))
    assert len(barbs(model.component, model.defs, model.domains, weak=weak)) == found
    assert len(outs) == len(set(outs)) == stepped
