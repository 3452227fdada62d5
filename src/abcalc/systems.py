"""Ready-made systems used by the regression corpus, the examples in the
documentation, and the test suite: the bundled corpus and the forwarding
network.
"""

from __future__ import annotations

from pathlib import Path

from .syntax import Model, parse_abc, parse_predicate
from .terms import ParC, ResIn

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
