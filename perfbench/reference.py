"""A fixed program that does not use abcalc: the yardstick of run.py.

run.py starts it in a fresh interpreter before and after each timed
call, so it pays the same cold start.  Its work resembles the
program's: it builds frozen dataclass trees, prints them as sorted
strings, counts them in a dict and writes JSON.  Its cost never changes,
so the time of a call divided by the time of the reference runs around
it moves only when the program does, not when the shared host gets
faster or slower.
"""

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Node:
    tag: str
    kids: tuple


def build(depth: int, i: int) -> Node:
    if depth == 0:
        return Node(f"leaf{i % 7}", ())
    return Node(f"n{depth}", tuple(build(depth - 1, i * 3 + j) for j in range(3)))


def text(node: Node) -> str:
    if not node.kids:
        return node.tag
    return node.tag + "(" + ",".join(sorted(text(kid) for kid in node.kids)) + ")"


def main() -> None:
    seen = {}
    for r in range(40):
        s = text(build(6, r))
        seen[s] = seen.get(s, 0) + 1
        json.dumps({"key": s[:50], "size": len(s)})


if __name__ == "__main__":
    main()
