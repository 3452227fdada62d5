"""Workload definitions: seeded input families, the closed forms and
known verdicts each output is checked against, and the operations (one
CLI call each) that make up one round of a workload.

Every family is generated as source text from a ``random.Random`` seeded
by the workload name and ``--seed``.  The seed only changes names,
constants and the order of parallel components, never the shape of a
family, so the work per operation does not depend on the seed.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import product

# Family sizes per workload.  The smoke tests substitute the smallest
# sizes through ``build_workload(..., sizes=SMOKE_SIZES[name])``.
SIZES = {
    "explore_scale": {
        "emitters": (3, 5),
        "tau_leaves": (2, 4),
        "chains": ((2, 4),),  # (chains c, depth d); d <= 6 closes in 8 rounds
    },
    "bisim_decide": {
        "emitters": (4,),
        "tau_leaves": (4,),
        "tau_leaves_strong": (3,),
        "guarded": (3,),
        "guarded_changed": (3,),
    },
    "encode_verify": {
        "tau_leaves": (3,),
        "relay": (4, 5),
        "repeaters": (2, 4),
        "random_terms": 2,
    },
}

SMOKE_SIZES = {
    "explore_scale": {"emitters": (1,), "tau_leaves": (1,), "chains": ((1, 1),)},
    "bisim_decide": {
        "emitters": (1,),
        "tau_leaves": (1,),
        "tau_leaves_strong": (1,),
        "guarded": (1,),
        "guarded_changed": (2,),
    },
    "encode_verify": {"tau_leaves": (1,), "relay": (1,), "repeaters": (1,), "random_terms": 1},
}

CORPUS_BPI = ("choice.bpi", "handshake.bpi", "mobile.bpi", "relay.bpi", "repeater.bpi",
              "tau_chain.bpi")

# How often the largest operation runs in one round.  largest_op_s is the
# median of that one operation alone, so it needs more samples than the
# sum of per-operation medians that makes wall_s.
LARGEST_CALLS = 4

# The depth of the chain whose universe fixpoint needs more rounds than
# ``lts.auto_universe`` allows (d + 2 rounds against its max_rounds=8).
DEEP_CHAIN = 10


@dataclass
class Result:
    """What one CLI call left behind."""

    returncode: int
    stdout: str
    stderr: str
    workdir: Path

    def json_file(self, name: str) -> dict:
        return json.loads((self.workdir / name).read_text(encoding="utf-8"))

    def json_stdout(self) -> dict:
        return json.loads(self.stdout)


@dataclass
class Op:
    """One timed CLI call and the check of its output.

    ``check`` returns None when the output is right, else a one-line
    reason.  ``known_fault`` names the program fault that makes the check
    fail on every run today; such an operation counts as failed, not as
    incorrect.  ``size`` orders instances: the largest one of a workload
    gives ``largest_op_s``.
    """

    name: str
    argv: list
    files: dict
    check: Callable[[Result], Optional[str]]
    size: int = 0
    known_fault: Optional[str] = None


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)

    @property
    def files(self) -> dict:
        out = {}
        for op in self.ops:
            out.update(op.files)
        return out

    @property
    def largest(self) -> Op:
        return max(self.ops, key=lambda op: op.size)

    @property
    def round(self) -> list:
        """The calls of one round: every operation once, and the largest
        LARGEST_CALLS times, spread evenly over the round."""
        largest = self.largest
        others = [op for op in self.ops if op is not largest]
        calls = []
        for i in range(LARGEST_CALLS):
            calls.append(largest)
            calls += others[i * len(others) // LARGEST_CALLS:
                            (i + 1) * len(others) // LARGEST_CALLS]
        return calls


# ---------------------------------------------------------------------------
# Closed forms (derived in README.md; checked against an independent
# enumeration in tests/test_perfbench.py)


def emitters_counts(k: int) -> dict:
    return {"states": 3**k, "transitions": k * 3**k + 2 * k * 3 ** (k - 1),
            "universe": k, "taus": 0}


def tau_leaves_counts(k: int) -> dict:
    return {"states": 4**k, "transitions": k * 4**k + 3 * k * 4 ** (k - 1),
            "universe": k, "taus": 2 * k * 4 ** (k - 1)}


def chains_counts(c: int, d: int) -> dict:
    states = (2 * d + 2) ** c
    universe = c * (d + 1)
    return {"states": states,
            "transitions": states * universe + c * (d + 1) * (2 * d + 2) ** (c - 1),
            "universe": universe, "taus": 0}


# network.abc under the auto universe: the source's emission, then each
# of the two forwarders in {received, forwarded, done}: 1 + 3 * 3 states.
# 13 output moves (6 of them silent forwards) plus one input self-loop
# per state for the single harvested label.
NETWORK_COUNTS = {"states": 10, "transitions": 23, "universe": 1, "taus": 6}


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def relay_counts(k: int) -> dict:
    """F(2k+3) states; the transitions have no closed form here, so they
    come from the independent enumeration in product.py."""
    return {"states": fib(2 * k + 3),
            "transitions": product.counts(product.relay(k))["transitions"]}


def repeaters_counts(k: int) -> dict:
    """Each repeater/receiver pair has 3 joint states and one move in
    each; every state also takes each of the k universe inputs."""
    return {"states": 3**k, "transitions": 2 * k * 3**k}


# ---------------------------------------------------------------------------
# Seeded names


def _names(rng: random.Random, count: int, prefix: str) -> list:
    """Distinct identifiers ``prefix<index><letters>``; the index keeps
    them distinct and away from keywords."""
    return [f"{prefix}{i}{''.join(rng.choices(string.ascii_lowercase, k=3))}"
            for i in range(count)]


def _system(rng: random.Random, comps: list) -> str:
    order = list(comps)
    rng.shuffle(order)
    return "system: " + " || ".join(order) + ";"


# ---------------------------------------------------------------------------
# .abc families


def emitters_abc(rng: random.Random, k: int) -> str:
    """k interleaved emitters, each sending (this.id, i) twice to role b."""
    ids = _names(rng, k, "e")
    consts = rng.sample(range(100), k)
    lines = ['domain role in {"a", "b"};']
    for i in range(k):
        out = f'(this.id, {consts[i]})@(role == "b")'
        lines.append(f'comp E{i} {{ iface: [role]; env: {{id = "{ids[i]}", role = "a"}}; '
                     f"run: {out}.{out}.0 }}")
    lines.append(_system(rng, [f"E{i}" for i in range(k)]))
    return "\n".join(lines) + "\n"


def tau_leaves_abc(rng: random.Random, k: int, plain: bool = False) -> str:
    """k leaves doing two silent steps, then emitting their id; ``plain``
    drops the silent steps."""
    ids = _names(rng, k, "l")
    run = "(this.id)@tt.0" if plain else "()@ff.()@ff.(this.id)@tt.0"
    lines = [f'comp L{i} {{ iface: []; env: {{id = "{ids[i]}"}}; run: {run} }}'
             for i in range(k)]
    lines.append(_system(rng, [f"L{i}" for i in range(k)]))
    return "\n".join(lines) + "\n"


def chains_abc(rng: random.Random, depths, names=None) -> str:
    """One universe chain per depth d: emit a_0, receive a_0, emit a_1, ...,
    emit a_d.  Each label is learnt one fixpoint round after the last."""
    names = names or _names(rng, len(depths), "a")
    lines = []
    for j, d in enumerate(depths):
        run = "".join(f'("{names[j]}_{m}")@tt.(x == "{names[j]}_{m}")(x).' for m in range(d))
        run += f'("{names[j]}_{d}")@tt.0'
        lines.append(f"comp C{j} {{ iface: []; env: {{}}; run: {run} }}")
    lines.append(_system(rng, [f"C{j}" for j in range(len(depths))]))
    return "\n".join(lines) + "\n"


def _guard(tier: int, rewrite: bool) -> str:
    if rewrite:
        return f'!((role != "b") || (tier == {tier}))'
    return f'(role == "b") && (tier != {tier})'


def guarded_abc(ids, tiers, rewrite: bool, order) -> str:
    """Emitters guarded by role and tier; ``rewrite`` states each guard
    through De Morgan."""
    lines = ['domain role in {"a", "b"};', "domain tier in {1, 2, 3};"]
    for i, (ident, tier) in enumerate(zip(ids, tiers)):
        out = f"(this.id, {i})@({_guard(tier, rewrite)})"
        lines.append(f'comp G{i} {{ iface: [role]; env: {{id = "{ident}", role = "a"}}; '
                     f"run: {out}.{out}.0 }}")
    lines.append("system: " + " || ".join(f"G{i}" for i in order) + ";")
    return "\n".join(lines) + "\n"


_NETWORK_SYSTEM = "system: restrictOut(ffwd){ CP1 || CF1 || CF2 };"


def network_variant(text: str, system: str) -> str:
    if _NETWORK_SYSTEM not in text:
        raise ValueError("network.abc no longer has the expected system line")
    return text.replace(_NETWORK_SYSTEM, f"system: {system};")


# ---------------------------------------------------------------------------
# .bpi families


def tau_leaves_bpi(rng: random.Random, k: int) -> str:
    chans = _names(rng, k, "c")
    vals = _names(rng, k, "v")
    parts = [f"tau.tau.{chans[i]}!({vals[i]}).nil" for i in range(k)]
    rng.shuffle(parts)
    return " || ".join(parts) + "\n"


def relay_bpi(rng: random.Random, k: int) -> str:
    """A sender on c_0 and k relays c_i(x).c_{i+1}!(x)."""
    chans = _names(rng, k + 1, "c")
    parts = [f"{chans[0]}!(m).nil"]
    parts += [f"{chans[i]}(x).{chans[i + 1]}!(x).nil" for i in range(k)]
    return " || ".join(parts) + "\n"


def repeaters_bpi(rng: random.Random, k: int) -> str:
    chans = _names(rng, k, "a")
    vals = _names(rng, k, "v")
    parts = [f"(rec R{i}(x).{chans[i]}!(x).tau.R{i}(x))({vals[i]}) || {chans[i]}(y).nil"
             for i in range(k)]
    return " || ".join(parts) + "\n"


def random_bpi(rng: random.Random) -> str:
    """Two sequential terms of three prefixes each over two channels: at
    most 22 states over seeds 0-399, so the cost hardly depends on the seed."""
    chans = _names(rng, 2, "k")
    seqs = []
    for _ in range(2):
        prefixes = []
        bound = []
        for _ in range(3):
            shape = rng.choice(("tau", "out", "in"))
            chan = rng.choice(chans)
            if shape == "tau":
                prefixes.append("tau")
            elif shape == "out":
                prefixes.append(f"{chan}!({rng.choice(bound + ['u', 'w'])})")
            else:
                var = f"x{len(bound)}"
                bound.append(var)
                prefixes.append(f"{chan}({var})")
        seqs.append(".".join(prefixes) + ".nil")
    return " || ".join(seqs) + "\n"


# ---------------------------------------------------------------------------
# Output checks


def _label_kind(text: str) -> str:
    """'tau', 'out' or 'in' for an .aut label: the kind mark sits just
    before the parenthesised value tuple that ends the label."""
    if text == "tau":
        return "tau"
    depth = 0
    for i in range(len(text) - 1, -1, -1):
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            depth -= 1
            if depth == 0:
                mark = text[i - 1] if i else ""
                if mark == "!":
                    return "out"
                if mark == "?":
                    return "in"
                break
    raise ValueError(f"unrecognised label {text!r}")


def aut_counts(text: str) -> dict:
    lines = text.rstrip("\n").split("\n")
    header = lines[0]
    if not (header.startswith("des (0,") and header.endswith(")")):
        raise ValueError(f"bad .aut header {header!r}")
    n_trans, n_states = (int(x) for x in header[len("des (0,"):-1].split(","))
    labels = set()
    taus = 0
    for line in lines[1:]:
        body = line[line.index(",") + 1:line.rindex(",")]
        text = body[1:-1]
        kind = _label_kind(text)
        if kind == "tau":
            taus += 1
        elif kind == "in":
            labels.add(text)
    if len(lines) - 1 != n_trans:
        raise ValueError(f"header says {n_trans} transitions, file has {len(lines) - 1}")
    return {"states": n_states, "transitions": n_trans, "universe": len(labels),
            "taus": taus}


def _diff(got: dict, want: dict) -> Optional[str]:
    bad = [f"{k} {got.get(k)} != {v}" for k, v in want.items() if got.get(k) != v]
    return "; ".join(bad) or None


def check_explore(stem: str, want: dict):
    def check(res: Result) -> Optional[str]:
        if res.returncode != 0:
            return f"exit {res.returncode}: {res.stderr.strip()[-200:]}"
        payload = res.json_file(f"{stem}.json")
        aut = aut_counts((res.workdir / f"{stem}.aut").read_text(encoding="utf-8"))
        if (payload["states"], payload["transitions"]) != (aut["states"], aut["transitions"]):
            return "JSON and .aut disagree on the counts"
        return _diff(aut, want)
    return check


def _is_silent(label: str) -> bool:
    return label == "tau" or "}@ff!" in label


def check_bisim(equivalent: bool, universe: Optional[int] = None,
                witness: Callable[[list], Optional[str]] = None):
    def check(res: Result) -> Optional[str]:
        if res.returncode != (0 if equivalent else 1):
            return f"exit {res.returncode}, expected {0 if equivalent else 1}"
        payload = res.json_stdout()
        if payload["equivalent"] is not equivalent or payload["inconclusive"]:
            return f"verdict equivalent={payload['equivalent']}, expected {equivalent}"
        if universe is not None and payload["universe_size"] != universe:
            return f"universe {payload['universe_size']} != {universe}"
        if equivalent:
            return None if payload["witness"] is None else "witness on an equivalent pair"
        steps = payload["witness"]
        if not steps:
            return "no witness"
        return witness(steps) if witness else None
    return check


def witness_starts_silent_from_a(steps) -> Optional[str]:
    first = steps[0]
    if first["from"] == "A" and _is_silent(first["label"]):
        return None
    return f"first witness step is {first}, expected a silent step from A"


def witness_mentions(text: str):
    def check(steps) -> Optional[str]:
        if any(text in step["label"] for step in steps):
            return None
        return f"witness does not mention {text}"
    return check


def check_encoding(want: Optional[dict] = None):
    def check(res: Result) -> Optional[str]:
        if res.returncode != 0:
            return f"exit {res.returncode}: {res.stderr.strip()[-200:]}"
        payload = res.json_stdout()
        if not payload["ok"] or payload["violations"]:
            return "correspondence violated"
        got = {"states": payload["states_checked"],
               "transitions": payload["transitions_checked"]}
        return _diff(got, {k: v for k, v in (want or {}).items() if k in got})
    return check


# ---------------------------------------------------------------------------
# Workloads


def _explore_op(name: str, text: str, want: dict, known_fault=None) -> Op:
    # an instance the program gets wrong is never the largest one
    return Op(name, ["explore", "--universe", "auto", "-o", f"{name}.aut",
                     "--json", f"{name}.json", f"{name}.abc"],
              {f"{name}.abc": text}, check_explore(name, want),
              size=0 if known_fault else want["transitions"], known_fault=known_fault)


def _bisim_op(name: str, mode: str, left: str, right: str, check, size: int,
              known_fault=None) -> Op:
    return Op(name, ["check-bisim", f"--{mode}", "--json", "-", f"{name}.A.abc",
                     f"{name}.B.abc"],
              {f"{name}.A.abc": left, f"{name}.B.abc": right}, check, size=size,
              known_fault=known_fault)


def _encode_op(name: str, text: str, check, size: int = 0) -> Op:
    return Op(name, ["verify-encoding", "--json", "-", f"{name}.bpi"],
              {f"{name}.bpi": text}, check, size=size)


UNIVERSE_CAP_FAULT = ("lts.auto_universe stops after max_rounds=8 without a diagnostic, so a "
                      "depth-10 chain loses its last labels")
CANDIDATE_POOL_FAULT = ("predicates._candidate_pool offers a set constant but never its "
                        "members, so tier in {1, 2} is judged unsatisfiable")


def explore_scale(seed: int, corpus: Path, sizes=None) -> Workload:
    sizes = sizes or SIZES["explore_scale"]
    rng = random.Random(f"explore_scale:{seed}")
    w = Workload("explore_scale")
    for k in sizes["emitters"]:
        w.ops.append(_explore_op(f"emitters-k{k}", emitters_abc(rng, k), emitters_counts(k)))
    for k in sizes["tau_leaves"]:
        w.ops.append(_explore_op(f"tau-leaves-k{k}", tau_leaves_abc(rng, k),
                                 tau_leaves_counts(k)))
    for c, d in sizes["chains"]:
        w.ops.append(_explore_op(f"chains-c{c}-d{d}", chains_abc(rng, [d] * c),
                                 chains_counts(c, d)))
    w.ops.append(_explore_op("network", (corpus / "network.abc").read_text(encoding="utf-8"),
                             NETWORK_COUNTS))
    # Seed-independent input: fails on every run until the fixpoint cap goes.
    deep = chains_abc(random.Random(0), [DEEP_CHAIN], names=["deep"])
    w.ops.append(_explore_op(f"chain-d{DEEP_CHAIN}", deep, chains_counts(1, DEEP_CHAIN),
                             known_fault=UNIVERSE_CAP_FAULT))
    return w


def bisim_decide(seed: int, corpus: Path, sizes=None) -> Workload:
    sizes = sizes or SIZES["bisim_decide"]
    rng = random.Random(f"bisim_decide:{seed}")
    w = Workload("bisim_decide")
    for k in sizes["emitters"]:
        text = emitters_abc(rng, k)
        w.ops.append(_bisim_op(f"emitters-k{k}-refl", "weak", text, text,
                               check_bisim(True, universe=k),
                               size=emitters_counts(k)["transitions"]))
    for mode, ks in (("weak", sizes["tau_leaves"]), ("strong", sizes["tau_leaves_strong"])):
        for k in ks:
            names = rng.random()  # both sides get the same ids and order
            left = tau_leaves_abc(random.Random(names), k)
            right = tau_leaves_abc(random.Random(names), k, plain=True)
            check = (check_bisim(True, universe=k) if mode == "weak" else
                     check_bisim(False, universe=k, witness=witness_starts_silent_from_a))
            w.ops.append(_bisim_op(f"tau-leaves-k{k}-{mode}", mode, left, right, check,
                                   size=tau_leaves_counts(k)["transitions"]))

    def guarded_pair(k):
        ids = _names(rng, k, "g")
        tiers = [rng.randint(1, 3) for _ in range(k)]
        order = rng.sample(range(k), k)
        return ids, tiers, order

    for k in sizes["guarded"]:
        ids, tiers, order = guarded_pair(k)
        w.ops.append(_bisim_op(f"guarded-k{k}-demorgan", "weak",
                               guarded_abc(ids, tiers, False, order),
                               guarded_abc(ids, tiers, True, order),
                               check_bisim(True, universe=k),
                               size=emitters_counts(k)["transitions"]))
    for k in sizes["guarded_changed"]:
        ids, tiers, order = guarded_pair(k)
        changed = rng.randrange(k)
        moved = list(tiers)
        moved[changed] = rng.choice([t for t in (1, 2, 3) if t != tiers[changed]])
        w.ops.append(_bisim_op(f"guarded-k{k}-changed", "weak",
                               guarded_abc(ids, tiers, False, order),
                               guarded_abc(ids, moved, True, order),
                               check_bisim(False, universe=k + 1,
                                           witness=witness_mentions(f'"{ids[changed]}"')),
                               size=emitters_counts(k)["transitions"]))
    net = (corpus / "network.abc").read_text(encoding="utf-8")
    w.ops.append(_bisim_op(
        "network-closed", "weak",
        network_variant(net, "restrictIn(gstar){ restrictOut(ffwd){ CP1 || CF1 || CF2 } }"),
        network_variant(net, "T"), check_bisim(True), size=10))
    w.ops.append(_bisim_op(
        "network-interferer", "weak",
        network_variant(net, "restrictOut(ffwd){ CP1 || CF1 || CF2 } || CP2"),
        network_variant(net, "T || CP2"),
        check_bisim(False, witness=witness_mentions('"f3"')), size=10))
    # Seed-independent input: fails on every run until the solver offers
    # the members of a set constant as candidates.
    w.ops.append(_bisim_op(
        "set-guard-vs-nil", "weak",
        'comp H { iface: []; env: {}; run: ("hi")@(tier in {1, 2}).0 }\n',
        "comp Z { iface: []; env: {}; run: 0 }\n",
        check_bisim(False), size=0, known_fault=CANDIDATE_POOL_FAULT))
    return w


def encode_verify(seed: int, corpus: Path, sizes=None) -> Workload:
    sizes = sizes or SIZES["encode_verify"]
    rng = random.Random(f"encode_verify:{seed}")
    w = Workload("encode_verify")
    families = (("tau-leaves", tau_leaves_bpi, tau_leaves_counts),
                ("relay", relay_bpi, relay_counts),
                ("repeaters", repeaters_bpi, repeaters_counts))
    for family, text, counts in families:
        for k in sizes[family.replace("-", "_")]:
            want = counts(k)
            w.ops.append(_encode_op(f"{family}-k{k}", text(rng, k), check_encoding(want),
                                    size=want["states"]))
    for name in CORPUS_BPI:
        w.ops.append(_encode_op(f"corpus-{name[:-4]}",
                                (corpus / name).read_text(encoding="utf-8"),
                                check_encoding()))
    for i in range(sizes["random_terms"]):
        w.ops.append(_encode_op(f"random-{i}", random_bpi(rng), check_encoding()))
    return w


WORKLOADS = {
    "explore_scale": explore_scale,
    "bisim_decide": bisim_decide,
    "encode_verify": encode_verify,
}


def build_workload(name: str, seed: int, corpus: Path, sizes=None) -> Workload:
    return WORKLOADS[name](seed, corpus, sizes)
