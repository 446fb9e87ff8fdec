"""The relation helpers against brute-force definitions on seeded random
relations, cyclic ones included."""

import itertools
import random

from conftest import transitive_closure_pairs

from ilkit.relation import find_cycle, fold, image, reach


def random_relation(rng, n_nodes, p_edge):
    nodes = [f"n{i}" for i in range(n_nodes)]
    pairs = {(a, b) for a in nodes for b in nodes if rng.random() < p_edge}
    return nodes, pairs


def relations(seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_relation(rng, rng.randrange(1, 7), rng.choice((0.1, 0.25, 0.5)))


def brute_reach(seed, pairs):
    """Nodes reachable from seed by paths of length >= 0: every node is
    reached within len(nodes) steps."""
    nodes = set(seed) | {n for pr in pairs for n in pr}
    out = set(seed)
    for _ in range(len(nodes)):
        out |= {b for (a, b) in pairs if a in out}
    return out


def test_image_matches_definition():
    for nodes, pairs in relations(1):
        got = image(pairs)
        for a in nodes:
            want = {b for (x, b) in pairs if x == a}
            assert got.get(a, set()) == want
        assert all(got[a] for a in got)  # no empty entries


def test_reach_matches_paths():
    rng = random.Random(2)
    for nodes, pairs in relations(2):
        succ = image(pairs)
        seed = set(rng.sample(nodes, rng.randrange(0, len(nodes) + 1)))
        got = reach(seed, lambda n: succ.get(n, ()))
        assert got == brute_reach(seed, pairs)


def test_reach_with_a_composite_step():
    # the cones step along two relations at once
    rng = random.Random(3)
    for nodes, r in relations(3, 100):
        _, s = random_relation(rng, len(nodes), 0.2)
        rs, ss = image(r), image(s)
        got = reach({nodes[0]}, lambda n: (*rs.get(n, ()), *ss.get(n, ())))
        assert got == brute_reach({nodes[0]}, r | s)


def _is_cycle_of(witness, pairs):
    return (
        len(witness) >= 2
        and witness[0] == witness[-1]
        and len(set(witness[:-1])) == len(witness) - 1
        and all((a, b) in pairs for a, b in zip(witness, witness[1:]))
    )


def test_find_cycle_agrees_with_reflexive_transitive_closure():
    saw_cycle = saw_acyclic = False
    for nodes, pairs in relations(5):
        closure = transitive_closure_pairs(pairs)
        cyclic = any((n, n) in closure for n in nodes)
        got = find_cycle(nodes, pairs)
        assert (got is not None) == cyclic
        if got is not None:
            assert _is_cycle_of(got, pairs)
            saw_cycle = True
        else:
            saw_acyclic = True
    assert saw_cycle and saw_acyclic


def test_find_cycle_witness_is_the_sorted_depth_first_one():
    # roots and successors are tried in sorted order, and the witness runs
    # from the first node met twice on the current path back to itself
    assert find_cycle(["a", "b"], {("a", "b"), ("b", "a")}) == ("a", "b", "a")
    assert find_cycle(["a"], {("a", "a")}) == ("a", "a")
    pairs = {("a", "b"), ("b", "c"), ("c", "b"), ("a", "d"), ("d", "a")}
    assert find_cycle(["a", "b", "c", "d"], pairs) == ("b", "c", "b")
    assert find_cycle(["a", "b", "c"], {("a", "b"), ("b", "c"), ("a", "c")}) is None
    # sources of pairs count as roots even when not listed among the nodes
    assert find_cycle([], {("x", "y"), ("y", "x")}) == ("x", "y", "x")


def test_find_cycle_on_long_chains_uses_no_recursion():
    n = 5000
    chain = {(f"v{i:05d}", f"v{i + 1:05d}") for i in range(n)}
    assert find_cycle([], chain) is None
    got = find_cycle([], chain | {(f"v{n:05d}", "v00000")})
    assert got is not None and len(got) == n + 2


def test_find_cycle_is_deterministic():
    for nodes, pairs in itertools.islice(relations(6), 50):
        shuffled = list(pairs)
        random.Random(0).shuffle(shuffled)
        assert find_cycle(reversed(nodes), shuffled) == find_cycle(nodes, sorted(pairs))


def test_fold_values_each_node_once_from_the_bottom_up():
    succ = {"a": ("b", "c"), "b": ("d",), "c": ("d",)}
    seen = []

    def paths(n, vs):
        seen.append(n)
        return sum(vs) or 1

    assert fold(["a"], lambda n: succ.get(n, ()), paths, {}) == {"a": 2, "b": 1, "c": 1, "d": 1}
    assert sorted(seen) == ["a", "b", "c", "d"]
    # a long chain needs no recursion, and a node already in got is kept
    longest = lambda n, vs: max(vs, default=-1) + 1
    step = lambda n: (n + 1,) if n < 5000 else ()
    assert fold([0], step, longest, {})[0] == 5000
    assert fold([0], step, longest, {2: 10}) == {0: 12, 1: 11, 2: 10}
