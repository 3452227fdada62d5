"""How far a positive verdict holds beyond its universe.  Every verdict is
relative to a finite label universe.  Each random pair that ``auto``
finds equivalent is decided again from a larger start: the ``auto``
universe plus one input per value that the models mention (their
constants and declared domain values) and one fresh value.  A pair whose
verdict flips is a finding.  It stays in the sample, marked
``xfail(strict=True)`` with the CHANGES.md line that names it."""

import random

import pytest

from abcalc import predicates as pr
from abcalc import semantics as sem
from abcalc.equivalence import strong_bisim, weak_bisim
from abcalc.lts import merge_labels
from abcalc.predicates import EMPTY_DOMAINS, DomainContext
from abcalc.syntax import parse_process
from abcalc.terms import AttrEnv, Const, Leaf, Node

from conftest import random_component

SEED, SIZE = 20261020, 60
CHECKS = {"weak": weak_bisim, "strong": strong_bisim}

# Equivalent under ``auto`` only because neither side emits a visible
# output before an input, so the universe is empty and no input is tried.
EMPTY_UNIVERSE = ("FOUND in CHANGES.md: an `auto` universe that is empty tries no input, "
                  "so a receiver equals 0")
FLIPPED = {6: EMPTY_UNIVERSE, 23: EMPTY_UNIVERSE, 26: EMPTY_UNIVERSE, 45: EMPTY_UNIVERSE}


def sample() -> list:
    rng = random.Random(SEED)
    return [(random_component(rng), random_component(rng)) for _ in range(SIZE)]


PAIRS = sample()


def values_of(comp) -> set:
    """The values that a component tree mentions: its constants and its
    leaves' attribute values."""
    found, todo = set(), [comp]
    while todo:
        node = todo.pop()
        if isinstance(node, Const):
            found.add(node.value)
        elif isinstance(node, Leaf):
            found.update(value for _, value in node.env.items)
            todo.append(node.proc)
        elif isinstance(node, Node):
            todo += [getattr(node, field) for field in node.__slots__]
        elif isinstance(node, tuple):
            todo += node
    return found


def extra_inputs(comps, domains=EMPTY_DOMAINS) -> list:
    """One input label per value of ``comps`` and ``domains``, and one for
    a fresh value.  Every input of the generated leaves binds one name,
    so each label carries one value, to every receiver (``tt``)."""
    values = set().union(*map(values_of, comps))
    values.update(value for _, vals in domains.items for value in vals)
    values = sorted(values, key=repr) + ["fresh"]
    return [sem.Label(sem.IN, AttrEnv(), pr.TT, (value,)) for value in values]


def test_the_extra_inputs():
    receiver = Leaf(AttrEnv.of({"d": 1}), frozenset(),
                    parse_process("(this.d == 1)(x).()@tt.[d := 3]0"))
    idle = Leaf(AttrEnv.of({"e": 2}), frozenset(), parse_process("0"))
    assert values_of(receiver) == {1, 3} and values_of(idle) == {2}
    domains = DomainContext.of({"d": {1, 4}})
    assert [lab.values for lab in extra_inputs((receiver, idle), domains)] == [
        (1,), (2,), (3,), (4,), ("fresh",)]
    # such a pair is what the flipped verdicts look like: no output
    # before an input, so the ``auto`` universe is empty
    verdict = weak_bisim(receiver, idle)
    assert verdict.equivalent and verdict.universe == ()
    again = weak_bisim(receiver, idle, base=extra_inputs((receiver, idle)))
    assert not again.equivalent


def test_the_sample_holds_equivalent_pairs():
    equivalent = sum(weak_bisim(c1, c2).equivalent for c1, c2 in PAIRS)
    assert equivalent >= SIZE // 4


@pytest.mark.parametrize("index", [
    pytest.param(i, marks=pytest.mark.xfail(strict=True, reason=FLIPPED[i])) if i in FLIPPED
    else i for i in range(SIZE)])
def test_a_positive_auto_verdict_holds_on_more_inputs(index):
    c1, c2 = PAIRS[index]
    for mode, check in CHECKS.items():
        verdict = check(c1, c2)
        if verdict.equivalent:
            base = merge_labels(verdict.universe, extra_inputs((c1, c2)))
            again = check(c1, c2, base=base)
            assert again.equivalent and not again.inconclusive, (mode, again.witness)
