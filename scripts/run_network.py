"""Explore the forwarding-network case study and print every verdict the
analysis supports: the narrated transition sequence, barbs, and the three
bisimilarity checks (closed network vs the three-shot test, and the
interference scenario).

Usage: python scripts/run_network.py [--aut out.aut]
"""

import argparse
import sys
import time

from abcalc import predicates as pr
from abcalc.equivalence import barbs, weak_bisim
from abcalc.lts import explore, export_aut
from abcalc.syntax import pretty_label, pretty_pred
from abcalc.systems import network


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--aut", default=None, help="write the network LTS here")
    args = ap.parse_args()

    net = network()
    defs, domains = net["defs"], net["domains"]

    t0 = time.perf_counter()
    lts = explore(net["N"], defs, (), domains=domains)
    print(f"network: {len(lts.states)} states, {len(lts.transitions)} transitions "
          f"({time.perf_counter() - t0:.3f}s)")
    for src, lab, dst in lts.transitions:
        mark = "tau " if lts.is_tau(lab) else "    "
        print(f"  {src:2d} -> {dst:2d}  {mark}{pretty_label(lab)}")
    if args.aut:
        export_aut(lts, args.aut)
        print(f"wrote {args.aut}")

    print("barbs:", ", ".join(pretty_pred(p) for p in barbs(net["N"], defs, domains)))

    for name, c1, c2, expect in (
        ("closed network vs three-shot test", net["N_closed"], net["T"], True),
        ("network with interferer vs test with interferer", net["N_CP2"], net["T_CP2"], False),
    ):
        t0 = time.perf_counter()
        v = weak_bisim(c1, c2, defs, domains=domains)
        status = "equivalent" if v.equivalent else "NOT equivalent"
        print(f"{name}: {status} ({time.perf_counter() - t0:.3f}s, "
              f"universe {len(v.universe)} labels)")
        if v.witness:
            for step in v.witness:
                print(f"    [{step['from']}] {step['label']}")
        if v.equivalent != expect:
            print("unexpected verdict", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
