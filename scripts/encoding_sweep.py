"""Sweep the broadcast-to-attribute encoding over the bundled corpus and a
batch of random terms, reporting how many states and transitions the
step-for-step correspondence checker covered.

Usage: python scripts/encoding_sweep.py [--count 200] [--seed 7]
"""

import argparse
import random
import sys
import time

sys.path.insert(0, "tests")

from abcalc.bpi import correspondence_check, parse_bpi, pretty_bpi
from abcalc.lts import ExploreBounds
from abcalc.systems import corpus_path

CORPUS = ["choice.bpi", "handshake.bpi", "mobile.bpi", "relay.bpi",
          "repeater.bpi", "tau_chain.bpi"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    from conftest import random_bpi

    rng = random.Random(args.seed)
    terms = [(name, parse_bpi(corpus_path(name).read_text())) for name in CORPUS]
    terms += [(f"random-{i}", random_bpi(rng)) for i in range(args.count)]

    states = transitions = failures = 0
    t0 = time.perf_counter()
    for name, term in terms:
        report = correspondence_check(term, ExploreBounds(max_states=800))
        states += report.states_checked
        transitions += report.transitions_checked
        if not report.ok:
            failures += 1
            print(f"FAIL {name}: {pretty_bpi(term)}")
            for v in report.violations[:3]:
                print(f"     {v}")
    dt = time.perf_counter() - t0
    print(f"{len(terms)} terms, {states} states, {transitions} transitions "
          f"checked in {dt:.2f}s; {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
