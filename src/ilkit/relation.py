"""Binary relations on finite node sets: iterables of pairs or, on nodes
numbered 0..n-1, lists of int rows (bit j of row i: i is related to j).
Every closure, reachability walk, cycle check and adjacency map of the
frame code goes through these helpers; `close_rows` is the one closure.
"""

from __future__ import annotations

from operator import or_
from typing import Callable, Hashable, Iterable, Iterator

Pair = tuple[Hashable, Hashable]

_WORD = (1 << 64) - 1  # the bits a walk takes at a time


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


def bits(m: int) -> Iterator[int]:
    """The set bits of m, ascending. The mask is taken 64 bits at a time,
    so a bit costs the same on a mask of any width."""
    off = -1
    while m:
        word = m & _WORD
        m >>= 64
        while word:
            low = word & -word
            word ^= low
            yield low.bit_length() + off
        off += 64


def to_rows(ix: dict, pairs: Iterable, triples: Iterable) -> tuple[list[int], list[list[int]]]:
    """Rows over the numbering ix: R[x] has bit y per pair (x, y), S[x][y]
    bit z per triple (x, y, z)."""
    R, S = [0] * len(ix), [[0] * len(ix) for _ in ix]
    for x, y in pairs:
        R[ix[x]] |= 1 << ix[y]
    for x, y, z in triples:
        S[ix[x]][ix[y]] |= 1 << ix[z]
    return R, S


def from_rows(n: list, rows: list, old: list | tuple = ()) -> frozenset:
    """`to_rows` read back over the names n: the pairs (x, y) of R rows
    (ints), or the triples (x, y, z) of S rows (lists of ints), less those
    of old, rows over the first of n (so a row past old's is all new)."""
    k = len(old)
    if rows and type(rows[0]) is list:
        return frozenset(
            (n[x], n[y], n[z])
            for x, Sx in enumerate(rows)
            for y, s in enumerate(Sx)
            if (m := s & ~old[x][y] if x < k and y < k else s)
            for z in bits(m)
        )
    return frozenset((n[x], n[y]) for x, r in enumerate(rows) if (m := r & ~old[x] if x < k else r) for y in bits(m))


def _transitive(rows: list[int]) -> None:
    """Close rows transitively in place (Warshall's algorithm)."""
    live = [i for i, r in enumerate(rows) if r]
    for k in live:
        rk, bk = rows[k], 1 << k
        for i in live:
            if rows[i] & bk:
                rows[i] |= rk


def close_rows(R: list[int], S: list[list[int]], ilm: bool) -> None:
    """Close a frame's rows in place (R[x]: x's successors, S[x][y]: the z
    with y S_x z) to the least frame closed under R-transitivity, y S_x y
    and y S_x z for x R y R z, S-transitivity and, given ilm, the ILM
    condition y S_x z R u -> y R u. R first: under ILM, y gets the
    successors of each node that R steps and input triples reach from y
    (along a triple S gains later, successors only shrink), by one closure
    of rows that carry the reached nodes' successors above their n low
    bits. Then each S_x gets y S_x y and R[y] for y in R[x], and closes."""
    n = len(R)
    if ilm:
        reach = [r | r << n for r in R]
        for Sx in filter(any, S):
            reach = list(map(or_, reach, Sx))
        _transitive(reach)
        R[:] = [r >> n for r in reach]
    else:
        _transitive(R)
    for Sx, rx in zip(S, R):
        for y in bits(rx):
            Sx[y] |= 1 << y | R[y]
        if rx or any(Sx):
            _transitive(Sx)


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


def reach_rows(seed: int, *steps: list[int]) -> int:
    """`reach` on rows: the least superset of the node mask seed that holds
    rows[i] for each member i and each of the row lists steps."""
    out = todo = seed
    while todo:
        i = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        for rows in steps:
            todo |= rows[i] & ~out
        out |= todo
    return out


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
