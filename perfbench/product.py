"""Independent state counts for the benchmark families.

Each family is restated as a product of small local automata over
channel names, with broadcast semantics: an output by one component
moves every other component that has an input on that channel at its
current state, and leaves the rest where they are; an input from the
environment does the same for every component.  The input universe is
the true fixpoint of the emitted channels, with no cap on rounds.  This
shares no code with abcalc, so the tests can hold the closed forms in
workloads.py against it.

A local automaton is a dict: state -> list of (kind, channel, next state),
kind "out", "in" or "tau", initial state 0.
"""

from __future__ import annotations

from collections import deque
from itertools import product


def _receivers(components, state, chan, sender=None):
    """All joint next states when ``chan`` is broadcast: each component
    other than the sender takes one of its inputs on it, or stays."""
    options = []
    for i, (auto, s) in enumerate(zip(components, state)):
        moves = [nxt for kind, c, nxt in auto.get(s, ()) if kind == "in" and c == chan]
        options.append([s] if i == sender or not moves else moves)
    return [tuple(p) for p in product(*options)]


def _explore(components, universe):
    init = (0,) * len(components)
    seen = {init}
    queue = deque([init])
    transitions = taus = 0
    emitted = set()
    while queue:
        state = queue.popleft()
        succs = []
        for i, (auto, s) in enumerate(zip(components, state)):
            for kind, chan, nxt in auto.get(s, ()):
                if kind == "tau":
                    taus += 1
                    succs.append(state[:i] + (nxt,) + state[i + 1:])
                elif kind == "out":
                    emitted.add(chan)
                    for joint in _receivers(components, state, chan, sender=i):
                        succs.append(joint[:i] + (nxt,) + joint[i + 1:])
        for chan in universe:
            succs.extend(_receivers(components, state, chan))
        transitions += len(succs)
        for nxt in succs:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return {"states": len(seen), "transitions": transitions, "taus": taus}, emitted


def counts(components) -> dict:
    universe = set()
    while True:
        result, emitted = _explore(components, universe)
        if emitted <= universe:
            return dict(result, universe=len(universe))
        universe |= emitted


def emitters(k: int) -> list:
    return [{0: [("out", f"e{i}", 1)], 1: [("out", f"e{i}", 2)]} for i in range(k)]


def tau_leaves(k: int) -> list:
    return [{0: [("tau", "", 1)], 1: [("tau", "", 2)], 2: [("out", f"l{i}", 3)]}
            for i in range(k)]


def chains(depths) -> list:
    out = []
    for j, d in enumerate(depths):
        auto = {}
        for m in range(d + 1):
            auto[2 * m] = [("out", f"a{j}_{m}", 2 * m + 1)]
            if m < d:
                auto[2 * m + 1] = [("in", f"a{j}_{m}", 2 * m + 2)]
        out.append(auto)
    return out


def relay(k: int) -> list:
    sender = {0: [("out", "c0", 1)]}
    return [sender] + [{0: [("in", f"c{i}", 1)], 1: [("out", f"c{i + 1}", 2)]}
                       for i in range(k)]


def repeaters(k: int) -> list:
    out = []
    for i in range(k):
        out.append({0: [("out", f"a{i}", 1)], 1: [("tau", "", 0)]})
        out.append({0: [("in", f"a{i}", 1)]})
    return out
