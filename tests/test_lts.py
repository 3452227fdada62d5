"""Bounded exploration, universes, the silent closure that weak
bisimilarity saturates with, and the Aldebaran text."""

from pathlib import Path

import pytest

from abcalc import equivalence as eq
from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.cli import main
from abcalc.lts import (
    BoundExceeded,
    ExploreBounds,
    abc_walk,
    auto_universe,
    aut_text,
    explore,
    fingerprint,
    merge_labels,
    silent,
    unstepped,
)
from abcalc.predicates import Atom, TT
from abcalc.semantics import IN, Label
from abcalc.syntax import parse_abc, parse_process
from abcalc.terms import Attr, AttrEnv, Const, DomainViolation, Leaf, ParC, ZERO

from abcalc.systems import network

from conftest import PROBE_MESSAGES, random_component


FAMILIES = Path(__file__).resolve().parent / "golden" / "families"
# the family models whose exploration meets the state bound or a model error
UNEXPLORED = {"counter.abc", "overflow.abc", "sender-deep.abc", "sender-late.abc"}


def leaf(text, env=None, iface=()):
    return Leaf(AttrEnv.of(env or {}), frozenset(iface), parse_process(text))


class TestExplore:
    def test_inactive_single_state(self):
        lts = explore(unstepped(abc_walk(Leaf(AttrEnv(), frozenset(), ZERO), {})))
        assert len(lts.states) == 1 and lts.transitions == []

    def test_three_shot_chain(self):
        net = network()
        lts = explore(unstepped(abc_walk(net["T"], net["defs"], net["domains"])))
        assert len(lts.states) == 4
        assert len(lts.transitions) == 3
        labels = [lab for _, lab, _ in lts.transitions]
        assert all(lab.values == labels[0].values for lab in labels)
        assert all(lab.pred == labels[0].pred for lab in labels)

    def test_universe_inputs_added(self):
        c = leaf("(x == 1)(x).(\"done\")@tt.0")
        u = (Label(IN, AttrEnv(), TT, (1,)),)
        lts = explore(unstepped(abc_walk(c, {})), universe=u)
        kinds = {lab.kind for _, lab, _ in lts.transitions}
        assert IN in kinds
        assert any(lab.kind == sem.OUT for _, lab, _ in lts.transitions)

    def test_deterministic_numbering(self):
        net = network()
        a = explore(unstepped(abc_walk(net["N"], net["defs"], net["domains"])))
        b = explore(unstepped(abc_walk(net["N"], net["defs"], net["domains"])))
        assert aut_text(a) == aut_text(b)

    def test_state_bound(self):
        net = network()
        with pytest.raises(BoundExceeded):
            explore(unstepped(abc_walk(net["N"], net["defs"])), bounds=ExploreBounds(max_states=2))

    def test_depth_bound(self):
        net = network()
        with pytest.raises(BoundExceeded):
            explore(unstepped(abc_walk(net["T"], net["defs"])), bounds=ExploreBounds(max_depth=1))
        # terminal states exactly at the depth limit are fine
        lts = explore(unstepped(abc_walk(net["T"], net["defs"])), bounds=ExploreBounds(max_depth=3))
        assert len(lts.states) == 4


class TestUniverse:
    def test_auto_universe_harvests_outputs(self):
        net = network()
        u, _ = auto_universe(abc_walk(net["T"], net["defs"], net["domains"]),
                             domains=net["domains"])
        assert len(u) == 1
        lab = u[0]
        assert lab.kind == IN and lab.values[0] == "p"

    def test_auto_universe_skips_silent(self):
        c = leaf("()@ff.()@ff.0")
        assert auto_universe(abc_walk(c, {}))[0] == ()

    def test_merged_dedupes_by_equivalence(self):
        l1 = Label(IN, AttrEnv(), Atom("!=", Attr("a"), Const(10)), (1,))
        l2 = Label(IN, AttrEnv(), pr.Not(Atom("==", Attr("a"), Const(10))), (1,))
        u = merge_labels((l1,), (l2,))
        assert len(u) == 1

    def test_fingerprint_stable_and_discriminating(self):
        u1 = PROBE_MESSAGES
        u2 = tuple(reversed(PROBE_MESSAGES))
        assert fingerprint(u1) == fingerprint(u2)
        assert fingerprint(u1) != fingerprint(())


def weak_closure(lts, domains=pr.EMPTY_DOMAINS):
    """For each state, the targets of its silent weak moves in
    ``check-bisim --weak``: the states that zero or more silent steps reach."""
    classes = eq._label_classes((lab for _, lab, _ in lts.transitions), domains)
    moves = eq._moves(lts, 0, classes, weak=True)
    return [frozenset(t for cls, t in m if cls == eq._TAU) for m in moves]


class TestWeakClosure:
    def test_tau_chain(self):
        c = leaf('()@ff.()@ff.("v")@tt.0')
        lts = explore(unstepped(abc_walk(c, {})))
        closure = weak_closure(lts)
        assert closure[0] == frozenset({0, 1, 2})

    def test_no_taus_is_identity(self):
        net = network()
        lts = explore(unstepped(abc_walk(net["T"], net["defs"], net["domains"])))
        closure = weak_closure(lts, net["domains"])
        assert all(closure[i] == frozenset({i}) for i in range(len(lts.states)))

    def test_transitive(self, rng):
        for _ in range(20):
            c = random_component(rng)
            lts = explore(unstepped(abc_walk(c, {})))
            closure = weak_closure(lts)
            for s in range(len(lts.states)):
                for t in closure[s]:
                    assert closure[t] <= closure[s]


class TestAutExport:
    def test_header_and_quoting(self):
        c = leaf('("v")@tt.0')
        lts = explore(unstepped(abc_walk(c, {})))
        text = aut_text(lts)
        lines = text.splitlines()
        assert lines[0] == "des (0,1,2)"
        assert '"' + "{}@tt!('v')" + '"' in lines[1]

    def test_tau_label_text(self):
        lts = explore(unstepped(abc_walk(leaf("()@ff.0"), {})))
        assert '(0,"tau",1)' in aut_text(lts)

    def test_tau_follows_the_declared_domains(self, tmp_path, capsys):
        """No value in the domain {1} of ``a`` satisfies ``a != 1``, so the
        output is silent, although a total valuation outside the domain
        satisfies it."""
        path = tmp_path / "s.abc"
        path.write_text('domain a in {1};\n'
                        'comp S { iface: [a]; env: {a = 1}; run: ("x")@(a != 1).("y")@tt.0 }\n')
        assert main(["explore", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == '(0,"tau",1)'

    @pytest.mark.parametrize("name", sorted(p.name for p in FAMILIES.glob("*.abc")))
    def test_tau_marks_the_silent_labels(self, name):
        """On each family model, explored as ``explore`` does by default,
        ``aut_text`` prints ``tau`` exactly for the labels that ``silent``
        finds silent under the model's declared domains."""
        model = parse_abc((FAMILIES / name).read_text())
        bounds = ExploreBounds(max_states=2_000)
        try:
            universe, closure = auto_universe(
                abc_walk(model.component, model.defs, model.domains), bounds, model.domains)
            lts = explore(closure, universe, bounds)
        except (BoundExceeded, DomainViolation):
            assert name in UNEXPLORED
            return
        assert name not in UNEXPLORED
        lines = aut_text(lts).splitlines()[1:]
        texts = [line.split('"')[1] for line in lines]
        for text, (_, lab, _) in zip(texts, lts.transitions, strict=True):
            assert (text == "tau") == silent(lab, model.domains), text
        assert ("tau" in texts) == name.startswith("tau-")
