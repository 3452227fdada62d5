"""Local steps worked out once per exploration: the steps of each leaf and
its answer to each message (``lts.abc_walk``), the steps of each
sequential broadcast term (``bpi.harvest_bpi_universe``) and its
encoding (``bpi.correspondence_check``).  Also what sharing them relies
on: values that compare by type, and canonical bπ forms that keep every
binding."""

import pytest

from abcalc import bpi as bp
from abcalc import lts as L
from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.cli import main
from abcalc.semantics import IN, Label
from abcalc.syntax import parse_abc, parse_process
from abcalc.terms import TT, AttrEnv, Call, Const, Leaf

from conftest import emitters_abc

# A relay of five stages: 233 states, 12 distinct sequential terms.
RELAY_K5 = " || ".join(["c0!(m).nil"] + [f"c{i}(x).c{i + 1}!(x).nil" for i in range(5)])


def run(capsys, tmp_path, name, text, *argv):
    model = tmp_path / name
    model.write_text(text)
    rc = main([*argv, str(model)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _operands(q):
    if isinstance(q, bp.BPar):
        return _operands(q.left) + _operands(q.right)
    return [q]


class TestOncePerLocalState:
    def test_leaf_steps_once_per_leaf_and_message(self, monkeypatch, capsys, tmp_path):
        outs, ins = [], []
        real_outs, real_ins = sem.component_out_steps, sem.component_in_step
        monkeypatch.setattr(sem, "component_out_steps",
                            lambda leaf, *rest: outs.append(leaf) or real_outs(leaf, *rest))
        monkeypatch.setattr(sem, "component_in_step",
                            lambda leaf, msg, *rest: ins.append((leaf, msg))
                            or real_ins(leaf, msg, *rest))
        rc, out, _ = run(capsys, tmp_path, "emitters.abc", emitters_abc(5),
                         "explore", "--universe", "auto")
        assert rc == 0 and out.startswith("des (0,2025,243)")
        # five emitters of three local states each, under five input labels
        assert len(outs) == len(set(outs)) == 15
        assert len(ins) == len(set(ins)) == 15 * 5

    def test_hearers_known_to_discard_are_not_asked_again(self, monkeypatch, capsys, tmp_path):
        """A message whose hearers all hear it alike and have all discarded
        it before never reaches the per-position loop: one set test
        composes the step."""
        scans, known_deaf, real = [], [], L.Walk._answer

        def answer(walk, state, asks):
            scans.append(asks)
            if asks and len({id(msg) for _, _, msg in asks}) == 1 and all(
                    table.get(state[k]) is L.DISCARDS for k, table, _ in asks):
                known_deaf.append((state, asks[0][2]))
            return real(walk, state, asks)

        monkeypatch.setattr(L.Walk, "_answer", answer)
        rc, out, _ = run(capsys, tmp_path, "emitters.abc", emitters_abc(5),
                         "explore", "--universe", "auto")
        assert rc == 0 and out.startswith("des (0,2025,243)")
        assert scans and not known_deaf, f"{len(known_deaf)} steps asked known-deaf hearers"

    def test_encoding_once_per_sequential_term(self, monkeypatch):
        term = bp.parse_bpi(RELAY_K5)
        top, depth = [], [0]
        real = bp.encode_proc

        def counting(g, bound, defs):
            if not depth[0]:
                top.append(g)
            depth[0] += 1
            try:
                return real(g, bound, defs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(bp, "encode_proc", counting)
        report = bp.correspondence_check(term)
        assert report.ok and report.states_checked == 233
        _, (states, _, walk) = bp.harvest_bpi_universe(term)
        operands = {g for q in states for g in _operands(walk.tree(q))}
        assert len(top) == len(set(top)) == len(operands) == 12
        assert set(top) == operands

    def test_sequential_steps_once_per_term_and_message(self, monkeypatch):
        outs, ins = [], []
        real_outs, real_ins = bp._seq_outs, bp._seq_ins
        monkeypatch.setattr(bp, "_seq_outs", lambda g: outs.append(g) or real_outs(g))
        monkeypatch.setattr(bp, "_seq_ins", lambda g, chan, values: ins.append((g, chan, values))
                            or real_ins(g, chan, values))
        universe, (states, _, _) = bp.harvest_bpi_universe(bp.parse_bpi(RELAY_K5))
        assert len(states) == 233 and len(universe) == 6
        assert len(outs) == len(set(outs)) == 12
        assert len(ins) == len(set(ins))

    def test_explorations_share_no_memo(self):
        leaf = Leaf(AttrEnv(), frozenset(), Call("A"))
        one = {"A": ((), parse_process('("one")@tt.0'))}
        two = {"A": ((), parse_process('("two")@tt.0'))}
        for defs, value in ((one, "one"), (two, "two")):
            walk = L.abc_walk(leaf, defs)
            assert [lab.values for lab, _ in walk.steps(walk.initial, ())] == [(value,)]
        assert (L.aut_text(L.explore(L.unstepped(L.abc_walk(leaf, one))))
                != L.aut_text(L.explore(L.unstepped(L.abc_walk(leaf, two)))))
        # two terms that name different recursions A are checked apart
        assert bp.correspondence_check(bp.parse_bpi("(rec A(x).a!(x).A(x))(v)")).ok
        assert bp.correspondence_check(bp.parse_bpi("(rec A(x).b!(x).A(x))(v)")).ok

    def test_aut_prints_each_label_once(self, monkeypatch):
        model = parse_abc(emitters_abc(4))
        universe, closure = L.auto_universe(L.abc_walk(model.component, model.defs, model.domains),
                                            domains=model.domains)
        lts = L.explore(closure, universe)
        printed = []
        real = L.pretty_label
        monkeypatch.setattr(L, "pretty_label", lambda lab: printed.append(lab) or real(lab))
        text = L.aut_text(lts)
        assert text.startswith("des (0,")
        shown = {lab for _, lab, _ in lts.transitions if not pr.is_ff(lab.pred, model.domains)}
        assert len(printed) == len(shown) == 8


class TestTypedValues:
    def test_integers_and_booleans_differ(self):
        assert Const(1) != Const(True) and hash(Const(1)) == hash(Const(True))
        assert Const((1, "a")) != Const((True, "a"))
        assert Const(frozenset({1})) != Const(frozenset({True}))
        assert AttrEnv.of({"a": 0}) != AttrEnv.of({"a": False})
        assert Const(2) == Const(2) and AttrEnv.of({"a": 1}) == AttrEnv.of({"a": 1})

    def test_labels_and_label_equivalence(self):
        one, yes = Label(IN, AttrEnv(), TT, (1,)), Label(IN, AttrEnv(), TT, (True,))
        assert one != yes
        assert not L.label_equiv(one, yes)
        assert L.label_equiv(one, Label(IN, AttrEnv(), TT, (1,)))
        assert len(L.merge_labels((one,), (yes,))) == 2

    def test_explore_keeps_one_and_true_apart(self, capsys, tmp_path):
        text = ("comp C { iface: []; env: {}; run: (true)@tt.0 + (2)@tt.0 + (1)@tt.0 }\n"
                "comp R { iface: []; env: {}; run: (tt)(x).(x)@tt.0 }\n"
                "system: C || R;\n")
        rc, out, _ = run(capsys, tmp_path, "b.abc", text, "explore")
        assert rc == 0 and out.startswith("des (0,48,9)\n")
        for label in ('"{}@tt?(1)"', '"{}@tt?(2)"', '"{}@tt?(true)"'):
            assert label in out.replace("'", '"')


class TestRecursionBinding:
    def test_canonical_rec_keeps_the_outer_binding(self):
        c = bp.canon_bpi(bp.parse_bpi("c(y).(rec A(x).y!(x).A(x))(v)"))
        # the rec body still names the input's binder, and its own
        # parameter does not reuse that name
        assert c.cont.body.chan == c.vars[0]
        assert c.cont.params[0] != c.vars[0]

    def test_canonical_names_capture_no_free_name(self):
        c = bp.canon_bpi(bp.parse_bpi("c(b).(rec A().x0!(v).A())()"))
        assert c.vars != ("x0",) and c.cont.body.chan == "x0"

    def test_canonical_form_per_operand(self):
        p = bp.parse_bpi("a(x).x!(v).nil || b(y).(rec B(z).z!(y).B(z))(y)")
        c = bp.canon_bpi(p)
        assert c == bp.BPar(bp.canon_bpi(p.left), bp.canon_bpi(p.right))
        assert bp.canon_bpi(c) == c

    def test_steps_deliver_to_the_rec_body(self, capsys, tmp_path):
        text = "c(y).(rec A(x).y!(x).A(x))(v) || c!(w).nil\n"
        rc, out, _ = run(capsys, tmp_path, "r.bpi", text, "steps")
        assert rc == 0 and "w?(v)" in out and "y?(v)" not in out

    @pytest.mark.parametrize("command", ["verify-encoding", "translate"])
    def test_rec_using_an_outer_name_is_refused(self, capsys, tmp_path, command):
        text = "c(y).(rec A(x).y!(x).A(x))(v) || c!(w).nil\n"
        rc, out, err = run(capsys, tmp_path, "r.bpi", text, command)
        assert rc == 2 and out == ""
        assert err == "error: recursion A uses y, a name bound outside it\n"

    def test_free_name_spelled_like_a_binder(self, capsys, tmp_path):
        text = "c(b).(rec A().x0!(v).A())() || c!(n).nil\n"
        rc, out, err = run(capsys, tmp_path, "cap.bpi", text, "verify-encoding")
        assert rc == 0 and out.startswith("ok: ") and err == ""
