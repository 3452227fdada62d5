"""Hypothesis property tests over structured generators: solver soundness
against the enumeration oracle, round trips, and input totality."""

from hypothesis import given, settings, strategies as st

from abcalc import predicates as pr
from abcalc.bpi import BIn, BOut, BSum, BTau, encode, parse_bpi, pretty_bpi
from abcalc.predicates import And, Atom, Not, Or
from abcalc.syntax import parse_predicate, pretty_pred
from abcalc.terms import Attr, AttrEnv, Const

import composition_reference as ref
from conftest import ORACLE_DOMAINS, PROBE_MESSAGES, oracle_implies, oracle_is_sat

# predicates over the oracle domains a: {1,2,3}, b: {"x","y"}, c: {0,5}

_atoms = st.one_of(
    st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
              st.sampled_from(["a", "c"]),
              st.sampled_from([0, 1, 2, 3, 5, 7])).map(
        lambda t: Atom(t[0], Attr(t[1]), Const(t[2]))
    ),
    st.tuples(st.sampled_from(["==", "!="]),
              st.sampled_from(["x", "y", "z"])).map(
        lambda t: Atom(t[0], Attr("b"), Const(t[1]))
    ),
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"])).map(
        lambda t: Atom("==", Attr(t[0]), Attr(t[1]))
    ),
)

preds = st.recursive(
    _atoms | st.just(pr.TT) | st.just(pr.FF),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda t: And(*t)),
        st.tuples(inner, inner).map(lambda t: Or(*t)),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(preds)
def test_sat_matches_oracle(p):
    assert pr.is_sat(p, ORACLE_DOMAINS) == oracle_is_sat(p)


@settings(max_examples=80, deadline=None)
@given(preds, preds)
def test_implication_matches_oracle(p, q):
    assert pr.implies(p, q, ORACLE_DOMAINS) == oracle_implies(p, q)


@settings(max_examples=100, deadline=None)
@given(preds)
def test_witness_is_sound(p):
    w = pr.find_witness(p, ORACLE_DOMAINS)
    if w is not None:
        assert pr.satisfies(w, p)


@settings(max_examples=100, deadline=None)
@given(preds)
def test_pred_roundtrip(p):
    assert parse_predicate(pretty_pred(p)) == p


# broadcast terms

_names = st.sampled_from(["u", "v", "w"])
_chans = st.sampled_from(["a", "b", "c"])

bpi_seq = st.recursive(
    st.just(parse_bpi("nil")),
    lambda inner: st.one_of(
        inner.map(BTau),
        st.tuples(_chans, st.lists(_names, max_size=2), inner).map(
            lambda t: BOut(t[0], tuple(t[1]), t[2])
        ),
        st.tuples(_chans, st.lists(st.sampled_from(["x", "y"]), max_size=2, unique=True), inner).map(
            lambda t: BIn(t[0], tuple(t[1]), t[2])
        ),
        st.tuples(inner, inner).map(lambda t: BSum(*t)),
    ),
    max_leaves=5,
)


@settings(max_examples=100, deadline=None)
@given(bpi_seq)
def test_bpi_roundtrip(p):
    assert parse_bpi(pretty_bpi(p)) == p


@settings(max_examples=60, deadline=None)
@given(bpi_seq, st.sampled_from(list(PROBE_MESSAGES)))
def test_encoded_input_totality(p, msg):
    comp, defs = encode(p)
    assert ref.system_in_step(comp, msg, defs)
