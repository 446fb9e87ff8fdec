import gc
import itertools
import random

import pytest
from conftest import (
    closure_seeds,
    neg_chain,
    random_formula,
    reference_saturation_constraints,
    reference_value,
    search_preference,
)

from ilkit import syntax, theory
from ilkit.construction import (
    Deficiency,
    LabeledFrame,
    Problem,
    fresh_candidate_theories,
    seed_frame,
)
from ilkit.decide import axiom_instance
from ilkit.semantics import GL, IL, ILM
from ilkit.syntax import (
    BOT,
    And,
    Atom,
    Box,
    Implies,
    Neg,
    Or,
    Rhd,
    adequate_closure,
    modal_atoms_of,
    parse,
    render,
)
from ilkit.theory import (
    DTheory,
    LoggedTheory,
    TheoryError,
    TheoryQuery,
    box_incl,
    common_predecessor,
    crit_succ,
    saturation_constraints,
    solve_theories,
    succ,
)

p, q = Atom("p"), Atom("q")


def theories(seed, logic=ILM, include=(), exclude=()):
    D = adequate_closure(seed)
    cs = [(f, True) for f in include] + [(f, False) for f in exclude]
    return D, list(solve_theories(D, logic, cs))


def test_enumerate_single_atom():
    D, ts = theories([p])
    assert len(ts) == 2
    assert {frozenset(t.members) for t in ts} == {
        frozenset([p]),
        frozenset([Neg(p)]),
    }


def test_enumerate_with_membership_constraint():
    D, ts = theories([Box(p)], include=[Box(p)])
    assert len(ts) == 2
    assert all(t.models(Box(p)) for t in ts)
    assert {t.models(p) for t in ts} == {True, False}


def test_enumerate_contradiction():
    D, ts = theories([p], include=[p, Neg(p)])
    assert ts == []


def test_enumeration_is_deterministic():
    D = adequate_closure([parse("[]p -> p |> q")])
    a = [t.key() for t in solve_theories(D, ILM)]
    b = [t.key() for t in solve_theories(D, ILM)]
    assert a == b
    assert a == sorted(a)


def test_saturation_prunes_axiom_violations():
    # L2 instance [](p) -> [][]p lies inside D: no theory may contain
    # []p without [][]p
    D, ts = theories([Box(Box(p))])
    assert all(t.models(Box(Box(p))) for t in ts if t.models(Box(p)))
    # the J5 instance <>p |> p is forced true whenever it lies in D
    D2, ts2 = theories([Rhd(parse("<>p"), p)])
    assert all(t.models(Rhd(parse("<>p"), p)) for t in ts2)


_LOGIC_AXIOMS = {
    IL: {"L1": 2, "L2": 1, "L3": 1, "J1": 2, "J2": 3, "J3": 3, "J4": 2, "J5": 1},
}
_LOGIC_AXIOMS[ILM] = {**_LOGIC_AXIOMS[IL], "M": 3}


def _instances_by_brute_force(D):
    """Per schema (and "derived", for A |> bot -> []~A), its instances with
    each metavariable bound to a member of D, kept when their modal atoms
    lie in D. Each metavariable sits right under a box or rhd of the
    schema, so in any instance kept it is a subformula of D: no instance is
    missed."""
    found = {"derived": {Implies(Rhd(a, BOT), Box(Neg(a))) for a in D.sorted_members}}
    for name, arity in _LOGIC_AXIOMS[ILM].items():
        found[name] = {
            axiom_instance(name, *args)
            for args in itertools.product(D.sorted_members, repeat=arity)
        }
    return {name: {f for f in fs if modal_atoms_of(f) <= D.members} for name, fs in found.items()}


def _saturation_inputs():
    """The closure of the negation of each schema instance over p, q and r
    (and of A |> bot -> []~A), then 30 seeded sets: the negation of a
    schema instance over small arguments, sometimes with a random formula,
    at most 12 members each."""
    a, b, c = Atom("p"), Atom("q"), Atom("r")
    sets = [
        adequate_closure([Neg(axiom_instance(name, *(a, b, c)[:n]))])
        for name, n in _LOGIC_AXIOMS[ILM].items()
    ]
    sets.append(adequate_closure([parse("~(p |> bot -> []~p)")]))
    pool, rng = (a, b, BOT, Neg(a), Box(b)), random.Random(23)
    while len(sets) < 10 + 30:
        name, n = rng.choice(list(_LOGIC_AXIOMS[ILM].items()))
        seed = [Neg(axiom_instance(name, *(rng.choice(pool) for _ in range(n))))]
        if rng.random() < 0.5:
            seed.append(random_formula(rng, 2, ("p", "q")))
        D = adequate_closure(seed)
        if len(D) <= 12:
            sets.append(D)
    return sets


def test_saturation_matches_brute_force():
    for D in _saturation_inputs():
        found = _instances_by_brute_force(D)
        for logic in (IL, ILM):
            want = set().union(found["derived"], *(found[n] for n in _LOGIC_AXIOMS[logic]))
            got = saturation_constraints(D, logic)
            assert len(set(got)) == len(got)
            assert set(got) == want, (D.sorted_members, logic)


def test_saturation_matches_the_reference_that_tries_every_template():
    for seed in closure_seeds():
        D = adequate_closure(seed)
        for logic in (GL, IL, ILM):
            assert saturation_constraints(D, logic) == reference_saturation_constraints(D, logic)


def test_succ():
    D, ts = theories([Box(p)])
    g_box = next(t for t in ts if t.models(Box(p)) and t.models(p))
    g_nobox = next(t for t in ts if not t.models(Box(p)))
    d_p = next(t for t in ts if t.models(p) and t.models(Box(p)))
    d_notp = next(t for t in ts if not t.models(p))
    assert succ(g_box, d_p)
    assert not succ(g_box, d_notp)
    # no positive boxes: successor of everything
    assert all(succ(g_nobox, d) for d in ts)


def test_succ_requires_same_adequate_set():
    D1, ts1 = theories([p])
    D2, ts2 = theories([q])
    with pytest.raises(TheoryError):
        succ(ts1[0], ts2[0])


def test_box_incl():
    D, ts = theories([Box(p)])
    for t in ts:
        assert box_incl(t, t)
    g = next(t for t in ts if t.models(Box(p)))
    d = next(t for t in ts if not t.models(Box(p)))
    assert not box_incl(g, d)
    assert box_incl(d, g)


def test_crit_bot_is_succ():
    D, ts = theories([parse("p |> q"), Box(p)])
    for g, d in itertools.product(ts, ts):
        assert crit_succ(g, BOT, d) == succ(g, d)


def test_crit_succ_examples():
    D, ts = theories([parse("p |> q")])
    g = next(t for t in ts if t.models(Rhd(p, q)))
    d_p = next(t for t in ts if t.models(p))
    assert not crit_succ(g, q, d_p)
    d_ok = next(t for t in ts if not t.models(p) and not t.models(q))
    assert crit_succ(g, q, d_ok)


def test_crit_succ_remark_properties():
    # on every theory triple of a small adequate set:
    #   crit(g, c, d) implies succ(g, d)
    #   crit(g, c, d) and succ(d, e) implies crit(g, c, e)
    D, ts = theories([parse("p |> q"), Box(q)])
    labels = [BOT, q]
    for c in labels:
        for g, d in itertools.product(ts, ts):
            if crit_succ(g, c, d):
                assert succ(g, d)
    for c in labels:
        for g, d, e in itertools.product(ts, ts, ts):
            if c == BOT and crit_succ(g, c, d) and succ(d, e):
                assert crit_succ(g, c, e)


def test_crit_succ_composition_with_expressible_boxes():
    # when the boxed halves of the criticality constraints lie inside the
    # adequate set, the composition law holds for every label and triple
    D, ts = theories([parse("p |> q"), parse("[]~p"), parse("[]~q")])
    labels = [BOT, q]
    for c in labels:
        for g, d, e in itertools.product(ts, ts, ts):
            if crit_succ(g, c, d) and succ(d, e):
                assert crit_succ(g, c, e), (c, g, d, e)


def _walked(answer):
    # the theories of a fresh-candidate answer, in preference order
    index, mask = answer
    return list(index.preferred(mask))


def _problem_candidates(g, nf):
    # the fresh witnesses of a problem at the root of a one-world frame
    return _walked(fresh_candidate_theories(seed_frame(g.adequate, ILM, g), Problem("w0", nf)))


def _deficiency_candidates(g, d, cd, label=None):
    # the fresh S-exits for x R y, y carrying d; a label on the edge puts y
    # in x's critical cone for it
    F = LabeledFrame(g.adequate, ILM)
    F.worlds, F.nu = ["x", "y"], {"x": g, "y": d}
    F.obligations = {"x": frozenset(), "y": frozenset()}
    F.R = {("x", "y")}
    if label is not None:
        F.edge_label[("x", "y")] = label
    return _walked(fresh_candidate_theories(F, Deficiency("x", "y", cd)))


def test_fresh_problem_rhd():
    D, ts = theories([Neg(Rhd(p, q))])
    g = next(t for t in ts if t.models(Neg(Rhd(p, q))))
    cands = _problem_candidates(g, Neg(Rhd(p, q)))
    assert cands
    for d in cands:
        assert crit_succ(g, q, d)
        assert d.models(p)
        assert d.models(Neg(q))


def test_fresh_problem_bot_reduces_to_succ():
    D, ts = theories([Neg(Rhd(p, BOT))])
    g = next(t for t in ts if t.models(Neg(Rhd(p, BOT))))
    cands = _problem_candidates(g, Neg(Rhd(p, BOT)))
    assert cands
    for d in cands:
        assert succ(g, d)
        assert d.models(p)


def test_fresh_problem_contradiction_empty():
    # g with []~p and ~(p |> q): successor must contain ~p yet witness p
    D = adequate_closure([parse("[]~p"), parse("p |> q")])
    ts = list(solve_theories(D, ILM, [(parse("[]~p"), True), (parse("p |> q"), False)]))
    assert ts
    for g in ts:
        assert _problem_candidates(g, Neg(Rhd(p, q))) == []


def test_fresh_problem_box():
    D, ts = theories([Neg(Box(p))])
    g = next(t for t in ts if t.models(Neg(Box(p))))
    cands = _problem_candidates(g, Neg(Box(p)))
    assert cands
    for d in cands:
        assert succ(g, d)
        assert not d.models(p)
        assert d.models(Box(p))


def test_fresh_deficiency_ilm():
    D, ts = theories([parse("p |> q")])
    g = next(t for t in ts if t.models(Rhd(p, q)))
    d = next(t for t in ts if t.models(p) and not t.models(q))
    cands = _deficiency_candidates(g, d, Rhd(p, q))
    assert cands
    for t in cands:
        assert t.models(q)
        assert crit_succ(g, BOT, t)
        assert box_incl(d, t)


def test_fresh_deficiency_preserves_boxes():
    D = adequate_closure([parse("p |> q"), parse("[]r")])
    g = next(solve_theories(D, ILM, [(parse("p |> q"), True)]))
    d = next(solve_theories(D, ILM, [(p, True), (parse("[]r"), True)]))
    cands = _deficiency_candidates(g, d, Rhd(p, q))
    for t in cands:
        assert t.models(parse("[]r"))
    assert cands


def test_fresh_deficiency_inconsistent_empty():
    # q-criticality forbids a q witness
    D, ts = theories([parse("p |> q")])
    g = next(t for t in ts if t.models(Rhd(p, q)))
    d = next(t for t in ts if t.models(p) and not t.models(q))
    assert _deficiency_candidates(g, d, Rhd(p, q), label=q) == []


def test_relation_algebra():
    D, ts = theories([Box(p), Box(q)])
    for g in ts:
        assert box_incl(g, g)
    for a, b in itertools.product(ts, ts):
        for c in ts:
            if box_incl(a, b) and box_incl(b, c):
                assert box_incl(a, c)
            if succ(a, b) and succ(b, c):
                assert succ(a, c)


def test_common_predecessor():
    D = adequate_closure([p, Box(p), Box(Neg(p))])
    d0 = next(solve_theories(D, ILM, [(p, True)]))
    d1 = next(solve_theories(D, ILM, [(p, False)]))
    gs = list(common_predecessor(d0, d1))
    assert gs
    for g in gs:
        assert succ(g, d0) and succ(g, d1)
        assert not g.models(Box(p))
        assert not g.models(Box(Neg(p)))


def test_common_predecessor_same_theory():
    D, ts = theories([p])
    d = ts[0]
    gs = list(common_predecessor(d, d))
    assert gs
    for g in gs:
        assert succ(g, d)


def test_common_predecessor_no_boxes_everything():
    D, ts = theories([p])
    gs = list(common_predecessor(ts[0], ts[1]))
    assert len(gs) == len(ts)


# --- the bitset index against a linear reference filter ----------------------


def _seeded_adequate(seed, lo, hi):
    """A seeded adequate set with between lo and hi modal atoms."""
    rng = random.Random(seed)
    while True:
        seeds = []
        while True:
            seeds.append(random_formula(rng, 2, atoms=("p", "q", "r", "s")))
            D = adequate_closure(seeds)
            if len(D.modal_atoms) >= lo:
                break
        if len(D.modal_atoms) <= hi:
            return D


def _random_constraints(rng, D, least=0):
    """Constraints over D: members, their negations, Boolean combinations,
    now and then bot, and now and then a contradictory pair."""
    members = D.sorted_members
    out = []
    for _ in range(rng.randrange(least, least + 4)):
        a, b = rng.choice(members), rng.choice(members)
        f = rng.choice([a, Neg(a), And(a, b), Or(a, b), Implies(a, b)])
        out.append((BOT if rng.random() < 0.03 else f, rng.random() < 0.5))
    if out and rng.random() < 0.1:
        f, v = rng.choice(out)
        out.append((f, not v))
    return out


def _member_values(D, assignment):
    """The values of D's sorted members under the assignment: the theory
    order, computed without DTheory."""
    return tuple(reference_value(f, assignment) for f in D.sorted_members)


def _linear_reference(D, assignments, constraints):
    kept = [
        a for a in assignments if all(reference_value(f, a) == v for f, v in constraints)
    ]
    return sorted(kept, key=lambda a: _member_values(D, a))


def _assignment(t):
    """t's values on its modal atoms."""
    return {a: t.values[a] for a in t.adequate.modal_atoms}


def _key_assignment(D, key):
    """The values on D's modal atoms that a key's bits give, the first atom
    in the most significant bit."""
    n = len(D.modal_atoms)
    return {a: bool(key >> n - 1 - i & 1) for i, a in enumerate(D.modal_atoms)}


# The index tests set the truth-table cap themselves (the `cap` fixture) and
# size their sets from it: at most _CAP modal atoms get a table, more go to
# `_solve`. So they check both paths at a cost that does not follow the
# module's cap.
_CAP = 10


@pytest.fixture
def cap(monkeypatch):
    monkeypatch.setattr(theory, "_CACHE_ATOMS", _CAP)
    return _CAP


def _check_against_reference(D, rng, queries, least):
    materialised = len(D.modal_atoms) <= theory._CACHE_ATOMS
    assert (theory._theory_index(D, ILM) is not None) == materialised
    for logic in (IL, ILM):
        assignments = [_key_assignment(D, k) for k in theory._solve(D, logic, ())]
        for _ in range(queries):
            cs = _random_constraints(rng, D, least)
            want = _linear_reference(D, assignments, cs)
            got = [_assignment(t) for t in solve_theories(D, logic, cs)]
            assert got == want, (logic, cs)
            # narrowing a shared base gives the same answer as one query
            cut = rng.randrange(len(cs) + 1)
            q = TheoryQuery(D, logic, cs[:cut]).where(cs[cut:])
            index, mask = q.answers()
            assert [_assignment(t) for t in index.walk(mask)] == want
            assert q.is_empty() == (not want)


@pytest.mark.parametrize("seed", range(4))
def test_index_matches_linear_filter(seed, cap):
    D = _seeded_adequate(seed, 9, cap)
    _check_against_reference(D, random.Random(1000 + seed), 25, 0)


@pytest.mark.parametrize(
    "text", ["(p |> q) & (q |> r) -> p |> r", "p |> q -> (p & []r) |> (q & []r)"]
)
def test_index_matches_linear_filter_under_axioms(text):
    # J2 and M instances inside D make the IL and ILM theory lists differ
    D = adequate_closure([parse(text)])
    _check_against_reference(D, random.Random(text), 25, 0)


@pytest.mark.parametrize("seed", range(2))
def test_unmaterialised_matches_linear_filter(seed, cap):
    D = _seeded_adequate(seed, cap + 1, cap + 2)
    _check_against_reference(D, random.Random(2000 + seed), 8, 3)


def _table_and_above(cap, seed, logic, rng):
    """A table index and the index of a non-empty query above the cap."""
    small = _seeded_adequate(seed, 9, cap)
    big = _seeded_adequate(seed, cap + 1, cap + 1)
    queries = (TheoryQuery(big, logic, _random_constraints(rng, big, 3)) for _ in range(50))
    above = next(q for q in queries if not q.is_empty())
    return theory._theory_index(small, logic), above.answers()[0]


@pytest.mark.parametrize("seed", range(4))
def test_index_bits_match_evaluation(seed, cap):
    # an index reads row j's key off keys[j]: on the truth table row j is
    # key j, above the cap a row holds one `_solve` answer. Keys ascend,
    # every member's mask holds at a valid row exactly when the recursive
    # reference makes the member true in its theory, and the row sits in
    # the level of its count of false rhd and box atoms
    rng = random.Random(4000 + seed)
    for logic in (IL, ILM):
        for index in _table_and_above(cap, seed, logic, rng):
            keys, D = list(index.keys), index.adequate
            assert all(a < b for a, b in zip(keys, keys[1:]))
            rows = [j for j in range(len(keys)) if index.valid >> j & 1]
            ts = list(index.walk(index.valid))
            assert ts and len(ts) == len(rows)
            for j, t in zip(rows, ts):
                assert keys[j] == t.key()
                for f in D.sorted_members:
                    assert (index.mask(f) >> j & 1) == reference_value(f, t.values)
                level = search_preference(t)[0]
                assert [k for k, m in enumerate(index.levels) if m >> j & 1] == [level]


@pytest.mark.parametrize("seed", range(3))
def test_a_cube_mask_is_the_rows_agreeing_with_its_reads(seed, cap):
    # a nogood cube is a LoggedTheory's reads; as one mask over an index
    # (`narrow` from `full`) it holds exactly the valid rows whose theory
    # gives every read formula the value the log has, on a table and
    # above the cap
    rng = random.Random(5000 + seed)
    for logic in (IL, ILM):
        for index in _table_and_above(cap, seed, logic, rng):
            rows = list(index.rows(index.valid))
            for _ in range(4):
                t = LoggedTheory(index.theory(rng.choice(rows)))
                for f, _ in _random_constraints(rng, index.adequate, 2):
                    t.models(f)
                cube = index.narrow(index.full, t.reads.items())
                for j in rows:
                    u = index.theory(j)
                    assert (cube >> j & 1) == all(u.models(f) == v for f, v in t.reads.items())


def test_rows_are_a_masks_set_bits_ascending():
    # a mask is walked 64 rows at a time: rows on both sides of a block
    # boundary, across empty blocks and in the last, partial block
    rng = random.Random(9)
    masks = [0, 1, 1 << 63, 1 << 64, (1 << 64) - 1, (1 << 200) | (1 << 63) | 5]
    masks += [rng.getrandbits(rng.randrange(1, 600)) for _ in range(50)]
    for m in masks:
        assert list(theory._TheoryIndex.rows(m)) == [j for j in range(m.bit_length()) if m >> j & 1]


def test_an_empty_answer_above_the_cap(cap):
    # no `_solve` answer: an index with no row, so every mask is 0 and
    # every walk is empty
    D = _seeded_adequate(0, cap + 1, cap + 1)
    a = D.modal_atoms[0]
    for cs in ([(BOT, True)], [(a, True), (a, False)]):
        q = TheoryQuery(D, ILM, cs)
        index, mask = q.answers()
        assert (list(index.keys), mask, index.full) == ([], 0, 0)
        assert not any(index.levels) and not any(index.mask(f) for f in D.sorted_members)
        assert list(index.walk(mask)) == list(index.preferred(mask)) == []
        preferred = solve_theories(D, ILM, cs, walk=theory._TheoryIndex.preferred)
        assert list(solve_theories(D, ILM, cs)) == list(preferred) == []


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("logic", [IL, ILM])
def test_theories_ascend_in_member_value_order(seed, logic, cap):
    # key order is the order of the values on D's sorted members, on both
    # sides of the truth-table cap
    for lo, hi in ((9, cap), (cap + 1, cap + 1)):
        D = _seeded_adequate(seed, lo, hi)
        values = [_member_values(D, t.values) for t in solve_theories(D, logic)]
        assert values
        assert all(a < b for a, b in zip(values, values[1:])), D.sorted_members


def test_index_builds_only_the_theories_walked(monkeypatch, cap):
    # on a table and above the cap (the same set under a lower cap), an
    # answer builds no theory, and a walk builds only the rows it reaches
    D = _seeded_adequate(0, cap, cap)
    built = []
    init = DTheory.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(DTheory, "__init__", counting)
    table = theory._theory_index(D, ILM)
    for cache_atoms in (cap, cap - 1):
        monkeypatch.setattr(theory, "_CACHE_ATOMS", cache_atoms)
        built.clear()
        q = TheoryQuery(D, ILM, [(D.modal_atoms[0], True), (D.modal_atoms[-1], False)])
        assert not q.is_empty() and not built
        index, mask = q.answers()
        assert (index is table) == (cache_atoms == cap) and not built
        ts = list(index.walk(mask))
        assert len(built) == len(ts)
        assert len(ts) < bin(table.valid).count("1")
        # a second walk reuses the theories the first one built
        assert list(index.walk(mask)) == ts and len(built) == len(ts)


@pytest.mark.parametrize("seed", range(3))
def test_preferred_is_the_answers_in_preference_order(seed, cap):
    # on both sides of the truth-table cap, for random, empty and
    # contradictory queries
    rng = random.Random(3000 + seed)
    preferred = theory._TheoryIndex.preferred
    for lo, hi, least in ((9, cap, 0), (cap + 1, cap + 1, 3)):
        D = _seeded_adequate(seed, lo, hi)
        for logic in (IL, ILM):
            queries = [_random_constraints(rng, D, least) for _ in range(8)]
            queries += [[(BOT, True)], [(D.modal_atoms[0], True), (D.modal_atoms[0], False)]]
            queries += [[]]
            for cs in queries:
                want = sorted(solve_theories(D, logic, cs), key=search_preference)
                assert list(solve_theories(D, logic, cs, walk=preferred)) == want, (logic, cs)


def test_preferred_builds_only_the_first_answers_level(monkeypatch, cap):
    # on a table and above the cap (the same set under a lower cap)
    D = _seeded_adequate(0, cap, cap)
    for cache_atoms in (cap, cap - 1):
        monkeypatch.setattr(theory, "_CACHE_ATOMS", cache_atoms)
        levels = {search_preference(t)[0] for t in solve_theories(D, ILM)}
        index, mask = TheoryQuery(D, ILM).answers()
        index._theories.clear()
        first = next(index.preferred(mask))
        level = search_preference(first)[0]
        assert level == min(levels) and len(levels) > 1
        # one theory of that level, and none of any other
        assert list(index._theories.values()) == [first]


def test_index_leaves_theory_caches_empty():
    D = adequate_closure([parse("(p |> q) & (q |> r) -> p |> r")])
    ts = list(solve_theories(D, ILM, [(parse("p |> q"), True), (parse("q |> r"), False)]))
    assert ts
    # each theory's value map holds only the modal atoms
    assert all(list(t.values) == list(D.modal_atoms) for t in ts)


def test_search_preference_counts_false_existentials():
    D, ts = theories([parse("p |> q"), Box(p)])
    t = ts[-1]
    pending = sum(
        1 for a in D.modal_atoms if isinstance(a, (Box, Rhd)) and not t.models(a)
    )
    assert search_preference(t) == (pending, t.key())


def test_candidate_memo_follows_frame_content():
    D = adequate_closure([parse("~(p |> q)"), parse("[]~r")])
    root = next(solve_theories(D, ILM, [(parse("p |> q"), False)]))
    F = seed_frame(D, ILM, root)
    item = F.worklist[0]
    answer = fresh_candidate_theories(F, item)
    cands = _walked(answer)
    assert cands
    assert fresh_candidate_theories(F, item) is answer
    assert fresh_candidate_theories(F.copy(), item) is answer
    # a new predecessor of the item's world adds an obligation that removes
    # the candidates carrying r: the copy must not get its parent's list
    r = Atom("r")
    assert any(t.models(r) for t in cands)
    g = F.copy()
    w = g.add_world(root, obligations=[Neg(r)])
    g.R.add((w, item.world))
    got = fresh_candidate_theories(g, item)
    assert got is not answer
    ts = _walked(got)
    assert ts and not any(t.models(r) for t in ts)
    # and the memoised answer is the one a cold computation gives
    D._sat_cache.pop(("__candidates__", ILM))
    assert _walked(fresh_candidate_theories(g, item)) == ts


def test_fresh_candidates_above_the_cap_are_a_view(monkeypatch):
    # without a truth table the answer is a mask over the index of one
    # `_solve` call's answers too, so its count is the mask's popcount
    monkeypatch.setattr(theory, "_CACHE_ATOMS", 0)
    D = adequate_closure([parse("~(p |> q)"), parse("[]~r")])
    root = next(solve_theories(D, ILM, [(parse("p |> q"), False)]))
    F = seed_frame(D, ILM, root)
    index, mask = fresh_candidate_theories(F, F.worklist[0])
    assert isinstance(index, theory._TheoryIndex)
    assert mask.bit_count() == len(list(index.preferred(mask))) > 0
    assert theory._theory_index(D, ILM) is None


@pytest.mark.parametrize("cache_atoms", [theory._CACHE_ATOMS, 0])
def test_nothing_read_off_an_adequate_set_follows_creation_order(monkeypatch, cache_atoms):
    # formulas hash by identity, so a set of them iterates in an order that
    # follows where its nodes were made; each set is built from fresh nodes
    monkeypatch.setattr(theory, "_CACHE_ATOMS", cache_atoms)
    texts = ["[]o_p -> o_q |> o_r", "~<>o_r & (o_p |> []o_q)", "(o_q |> o_p) <-> []~o_r"]

    def read(texts):
        D = adequate_closure([parse(t) for t in texts])
        return (
            [render(f) for f in D.sorted_members],
            [render(a) for a in D.modal_atoms],
            {logic: [t.key() for t in solve_theories(D, logic)] for logic in (IL, ILM)},
        )

    first = read(texts)
    gc.collect()
    assert (Atom, "o_p") not in syntax._NODES
    assert read(texts[::-1]) == first


def test_index_masks_at_any_depth():
    # the index's Boolean masks are computed from an explicit stack
    f = neg_chain(3000)
    D = adequate_closure([f])
    assert [t.values for t in solve_theories(D, IL, [(f, True)])] == [{Atom("p"): True}]
    assert [t.values for t in solve_theories(D, IL, [(Neg(f), True)])] == [{Atom("p"): False}]


def test_models_at_any_depth():
    t = DTheory(adequate_closure([neg_chain(3000)]), {p: True})
    assert t.models(neg_chain(3000)) and not t.models(neg_chain(3001))
    f = neg_chain(3000, Box(q))
    t = DTheory(adequate_closure([Implies(f, p)]), {p: False, q: True, Box(q): True})
    assert not t.models(Implies(f, p))


def test_members_is_one_mask_fold(monkeypatch):
    # each member used to start its own evaluation, so a theory over a deep
    # chain's adequate set took quadratic time to list its members
    chain = list(itertools.accumulate(range(3000), lambda f, _: Neg(f), initial=p))
    t = DTheory(adequate_closure([chain[-1]]), {p: True})
    calls = []
    fold = theory.boolean_masks
    monkeypatch.setattr(theory, "boolean_masks", lambda *a: calls.append(a) or fold(*a))
    assert t.members == set(chain[::2])
    assert len(calls) == 1
    # and every member's value is in the theory's map now
    assert not t.models(chain[2999]) and len(calls) == 1
