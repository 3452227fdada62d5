"""Traced CLI call: ``python3 tracer.py TRACE_STEM CLI_ARGS...``.

Runs ``abcalc.cli.main(CLI_ARGS)`` with the public functions listed in
``TRACED`` wrapped from outside.  Every call of a wrapped function opens
a span (name, start, end, parent); a call of a function from inside its
own span (recursion) is passed straight through, so a span covers one
outermost call.  Spans stay in memory until the command ends; then the
raw spans go to ``TRACE_STEM.spans`` (float64 records ``name, start, end,
parent``) and the names and counters to ``TRACE_STEM.json``.  The exit
code is the command's.  ``summarize(TRACE_STEM)`` turns the two files
into per-layer numbers after the traced process has ended.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# Module -> public functions wrapped.  A layer's self time is the time in
# its spans that no other span covers.
TRACED = {
    "syntax": ("parse_abc", "parse_bpi", "pretty_component", "pretty_label"),
    "terms": ("canonical",),
    "predicates": ("find_witness", "is_sat", "implies", "equiv", "is_ff"),
    "semantics": ("system_out_steps", "system_in_step"),
    "lts": ("explore", "auto_universe", "aut_text"),
    "equivalence": ("weak_bisim", "strong_bisim", "label_equiv"),
    "bpi": ("harvest_bpi_universe", "correspondence_check", "canon_bpi", "bpi_steps"),
}
ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.explored_states = {}  # span index of an explore call -> states
        self.solver_calls = 0
        self.solver_keys = set()

    def wrap(self, qualname: str, fn, on_return=None):
        name_id = len(self.names)
        self.names.append(qualname)
        stack, span_name = self.stack, self.span_name
        start, end, parent = self.start, self.end, self.parent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and span_name[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            i = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(i, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace each traced function in every abcalc module that holds
        a reference to it, so ``from .x import f`` call sites are traced."""
        cli = importlib.import_module("abcalc.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "abcalc" or name.startswith("abcalc.")]
        pr = importlib.import_module("abcalc.predicates")
        for mod_name, funcs in TRACED.items():
            home = importlib.import_module(f"abcalc.{mod_name}")
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:  # gone from the program: its metrics read 0
                    continue
                if func == "explore":
                    wrapped = self.wrap(f"{mod_name}.{func}", original, self._explored)
                else:
                    wrapped = self.wrap(f"{mod_name}.{func}", original)
                if func == "find_witness":
                    wrapped = self._count_keys(wrapped, pr)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
        return cli

    def _explored(self, span: int, lts):
        self.explored_states[span] = len(lts.states)

    def _count_keys(self, traced, pr):
        """Every solver query reaches find_witness; the distinct keys are
        the misses of predicates' process-wide cache."""
        plain = (pr.Tt, pr.Ff)

        def find_witness(pred, domains=pr.EMPTY_DOMAINS):
            self.solver_calls += 1
            if not isinstance(pred, plain):
                self.solver_keys.add((pred, domains))
            return traced(pred, domains)
        return find_witness

    def write(self, stem: str):
        records = array("d")
        for i in range(len(self.span_name)):
            records.extend((self.span_name[i], self.start[i], self.end[i], self.parent[i]))
        with open(stem + ".spans", "wb") as fh:
            records.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "explored_states": {str(k): v for k, v in self.explored_states.items()},
                       "solver_calls": self.solver_calls,
                       "solver_misses": len(self.solver_keys)}, fh, sort_keys=True)


def summarize(stem: str) -> dict:
    """Per-layer numbers of one traced command (defined in README.md)."""
    with open(stem + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    records = array("d")
    with open(stem + ".spans", "rb") as fh:
        records.frombytes(fh.read())
    names = meta["names"]
    n = len(records) // 4
    name = [names[int(records[4 * i])] for i in range(n)]
    parent = [int(records[4 * i + 3]) for i in range(n)]
    dur = [records[4 * i + 2] - records[4 * i + 1] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]

    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    count = defaultdict(int)
    under = defaultdict(int)  # (name, parent name) -> spans
    under_s = defaultdict(float)
    for i in range(n):
        pname = name[parent[i]] if parent[i] >= 0 else ""
        self_s[name[i]] += dur[i] - child[i]
        incl_s[name[i]] += dur[i]
        count[name[i]] += 1
        under[name[i], pname] += 1
        under_s[name[i], pname] += dur[i]

    def total(table, funcs):
        return sum(table[f] for f in funcs)

    pretty = ("syntax.pretty_component", "syntax.pretty_label")
    steps = ("semantics.system_out_steps", "semantics.system_in_step")
    solver = tuple(f"predicates.{f}" for f in TRACED["predicates"])
    step_calls = sum(c for (f, p), c in under.items()
                     if f in steps and not p.startswith("semantics."))
    reported = sum(states for span, states in meta["explored_states"].items()
                   if name[parent[int(span)]] != "lts.auto_universe")
    expanded = sum(meta["explored_states"].values())
    return {
        "cli.self_s": self_s[ROOT],
        "syntax.parse_s": total(self_s, ("syntax.parse_abc", "syntax.parse_bpi")),
        "syntax.pretty_s": total(self_s, pretty),
        "syntax.pretty_calls": total(count, pretty),
        "terms.canonical_s": self_s["terms.canonical"],
        "terms.canonical_calls": count["terms.canonical"],
        "semantics.steps_s": total(self_s, steps),
        "semantics.step_calls": step_calls,
        "lts.explore_s": self_s["lts.explore"],
        "lts.explore_calls": count["lts.explore"],
        "lts.universe_s": incl_s["lts.auto_universe"],
        "lts.universe_rounds": under["lts.explore", "lts.auto_universe"],
        "lts.states_expanded": expanded,
        "lts.states_reported": reported,
        "lts.aut_s": self_s["lts.aut_text"],
        "equivalence.decide_s": total(self_s, ("equivalence.weak_bisim",
                                               "equivalence.strong_bisim")),
        "equivalence.label_equiv_calls": count["equivalence.label_equiv"],
        "predicates.solver_s": total(self_s, solver),
        "predicates.solver_calls": meta["solver_calls"],
        "predicates.solver_misses": meta["solver_misses"],
        "bpi.harvest_s": incl_s["bpi.harvest_bpi_universe"],
        "bpi.check_s": (incl_s["bpi.correspondence_check"]
                        - under_s["bpi.harvest_bpi_universe", "bpi.correspondence_check"]),
        "bpi.canon_s": self_s["bpi.canon_bpi"],
        "bpi.steps_calls": count["bpi.bpi_steps"],
        "trace.spans": n,
    }


def main(argv) -> int:
    stem, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        return tracer.wrap(ROOT, cli.main)(cli_args)
    finally:
        tracer.write(stem)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
