"""Ready-made systems used by the regression corpus, the examples in the
documentation, and the test suite: the forwarding network, the choice /
or-predicate equivalence, and the negative congruence instances.
"""

from __future__ import annotations

from pathlib import Path

from . import predicates as pr
from . import semantics as sem
from .predicates import Atom
from .syntax import Model, parse_abc, parse_predicate, parse_process
from .terms import Attr, AttrEnv, Const, Leaf, ParC, ResIn

CORPUS_DIR = Path(__file__).parent / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / name


def load(name: str) -> Model:
    return parse_abc(corpus_path(name).read_text())


def network() -> dict:
    """The forwarding network: source CP1, forwarders CF1 and CF2 behind
    an output restriction, the three-shot test component T, and the
    interfering sender CP2."""
    model = load("network.abc")
    comps = model.components
    n = model.component  # restrictOut(ffwd){ CP1 || CF1 || CF2 }
    gstar = model.fns["gstar"]
    pi1 = parse_predicate('role == "client"')
    return {
        "model": model,
        "defs": model.defs,
        "domains": model.domains,
        "pi1": pi1,
        "CP1": comps["CP1"],
        "CF1": comps["CF1"],
        "CF2": comps["CF2"],
        "T": comps["T"],
        "CP2": comps["CP2"],
        "N": n,
        "N_closed": ResIn(n, gstar),
        "N_CP2": ParC(n, comps["CP2"]),
        "T_CP2": ParC(comps["T"], comps["CP2"]),
    }


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
