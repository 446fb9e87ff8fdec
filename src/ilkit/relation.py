"""Binary relations on finite node sets.

A relation is an iterable of pairs. Every closure, reachability walk,
cycle check and adjacency join of the frame code goes through these
helpers; `fold` is the bottom-up walk over a frame DAG. The formula
evaluators run their own explicit-stack loops, with no callback per node.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

Pair = tuple[Hashable, Hashable]


def image(pairs: Iterable[Pair]) -> dict[Hashable, set]:
    """The relation as a map a -> {b : (a, b) in pairs}. Nodes without an
    outgoing pair are absent, so callers look up with .get(a, ())."""
    out: dict[Hashable, set] = {}
    for a, b in pairs:
        bs = out.get(a)
        if bs is None:
            out[a] = {b}
        else:
            bs.add(b)
    return out


def reach(seed: Iterable[Hashable], step: Callable[[Hashable], Iterable[Hashable]]) -> set:
    """The least superset of seed that contains step(n) for each member n."""
    out = set(seed)
    todo = list(out)
    while todo:
        for m in step(todo.pop()):
            if m not in out:
                out.add(m)
                todo.append(m)
    return out


def fold(roots: Iterable[Hashable], kids, value, got: dict) -> dict:
    """value(n, [the values of n's kids]) at each node n reached from roots
    by kids, computed from the bottom up into got, which is returned; a node
    already in got is not revisited. kids must return collections and
    reach no cycle, and no node is a tuple: an expanded node goes back on
    the stack as (node, kids) under its kids. The stack is explicit, so
    long chains cannot exhaust Python's."""
    stack = list(roots)
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            n, ks = n
            got[n] = value(n, [got[k] for k in ks])
        elif n not in got:
            ks = kids(n)
            stack.append((n, ks))
            stack.extend(ks)
    return got


def find_cycle(nodes: Iterable[Hashable], pairs: Iterable[Pair]) -> tuple | None:
    """A cycle of the relation as (n, ..., n), or None if it has none.

    Depth-first search from every node and every source of a pair, roots
    and successors in sorted order, so the witness is deterministic. The
    search keeps its own stack, so long chains cannot exhaust Python's."""
    succ = image(pairs)
    color: dict[Hashable, int] = {}  # 1 on the current path, 2 finished
    for root in sorted(set(nodes) | succ.keys()):
        if root in color:
            continue
        color[root] = 1
        path = [root]
        stack = [iter(sorted(succ.get(root, ())))]
        while stack:
            for m in stack[-1]:
                c = color.get(m)
                if c == 1:
                    return (*path[path.index(m):], m)
                if c is None:
                    color[m] = 1
                    path.append(m)
                    stack.append(iter(sorted(succ.get(m, ()))))
                    break
            else:
                stack.pop()
                color[path.pop()] = 2
    return None
