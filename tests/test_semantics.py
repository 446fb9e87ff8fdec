import itertools
import random

import pytest
from conftest import (
    generated_submodel,
    glue_above_world,
    glue_root,
    glue_selfprover,
    neg_chain,
    random_formula,
    random_unclosed_frame,
    reference_extensions,
    reference_validate,
    transitive_closure_pairs,
)

import ilkit.semantics as semantics
from ilkit.construction import LabeledFrame, close

from ilkit.semantics import (
    IL,
    ILM,
    BudgetExceededError,
    VeltmanFrame,
    VeltmanModel,
    _extensions,
    forces,
    frame_validates,
    model_from_dict,
    model_from_json,
    model_to_dot,
    model_to_json,
    validate,
)
from ilkit.syntax import BOT, AdequateSet, And, Atom, Box, Diamond, Implies, Neg, Rhd, Top, atoms, parse

p, q = Atom("p"), Atom("q")


def chain(n, val=None):
    worlds = [f"w{i}" for i in range(n)]
    R = [(worlds[i], worlds[j]) for i in range(n) for j in range(i + 1, n)]
    S = [(x, y, y) for (x, y) in R]
    S += [(x, y, z) for (x, y) in R for (x2, z) in R if x2 == y]
    return VeltmanModel.make(worlds, R, S, val or {})


def test_validate_single_world():
    f = VeltmanFrame.make(["a"])
    assert validate(f, IL).ok
    assert validate(f, ILM).ok


def test_validate_missing_transitivity():
    f = VeltmanFrame.make(["a", "b", "c"], [("a", "b"), ("b", "c")])
    rep = validate(f, IL)
    assert not rep.ok
    assert any(
        v.condition == "r_transitive" and v.witness == ("a", "b", "c")
        for v in rep.violations
    )


def test_validate_cycle():
    f = VeltmanFrame.make(["a", "b"], [("a", "b"), ("b", "a")])
    rep = validate(f, IL)
    assert any(v.condition == "converse_well_founded" for v in rep.violations)


def _violations_by_nested_loops(frame, ilm):
    """validate under IL / ILM written out as scans over all pairs of
    pairs, in their report order."""
    import itertools

    from ilkit.relation import find_cycle

    W, R, S = frame.worlds, sorted(frame.R), sorted(frame.S)
    out = [("r_domain", (x, y)) for x, y in R if x not in W or y not in W]
    cyc = find_cycle(W, R)
    if cyc:
        out.append(("converse_well_founded", cyc))
    RR = list(itertools.product(R, R))
    out += [("r_transitive", (x, y, z)) for (x, y), (y2, z) in RR if y == y2 and (x, z) not in R]
    out += [("s_over_successors", (x, y, z)) for x, y, z in S if (x, y) not in R or (x, z) not in R]
    out += [("s_reflexive", (x, y)) for x, y in R if (x, y, y) not in S]
    out += [("r_inside_s", (x, y, z)) for (x, y), (y2, z) in RR if y == y2 and (x, y, z) not in S]
    out += [
        ("s_transitive", (x, u, v, w))
        for (x, u, v), (x2, v2, w) in itertools.product(S, S)
        if x == x2 and v == v2 and (x, u, w) not in S
    ]
    if ilm:
        out += [
            ("ilm_condition", (x, y, z, u))
            for (x, y, z), (z2, u) in itertools.product(S, R)
            if z == z2 and (y, u) not in R
        ]
    return out


def test_validate_matches_nested_loop_definitions():
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        worlds = [f"w{i}" for i in range(rng.randrange(1, 6))]
        names = worlds + ["x"]  # an occasional pair outside the worlds
        R = {(a, b) for a in names for b in names if rng.random() < 0.2}
        S = {(a, b, c) for a in names for b in names for c in names if rng.random() < 0.05}
        frame = VeltmanFrame.make(worlds, R, S)
        for logic in (IL, ILM):
            got = [(v.condition, v.witness) for v in validate(frame, logic).violations]
            assert got == _violations_by_nested_loops(frame, logic == ILM)
            seen |= {c for c, _ in got}
    assert len(seen) == 8  # every condition was violated somewhere


def test_validate_ilm_identity_s_is_vacuous():
    # one root with two incomparable successors, S = identity only: a valid
    # IL frame on which the ILM condition never fires
    base = VeltmanFrame.make(
        ["a", "b", "c"], [("a", "b"), ("a", "c")], [("a", "b", "b"), ("a", "c", "c")]
    )
    assert validate(base, IL).ok
    assert validate(base, ILM).ok


def test_validate_ilm_violation():
    W = ["w", "l", "r", "u"]
    R = [("w", "l"), ("w", "r"), ("w", "u"), ("r", "u")]
    S = [(x, y, y) for (x, y) in R] + [("w", "r", "u"), ("w", "l", "r"), ("w", "l", "u")]
    f = VeltmanFrame.make(W, R, S)
    assert validate(f, IL).ok
    rep = validate(f, ILM)
    assert any(
        v.condition == "ilm_condition" and v.witness == ("w", "l", "r", "u")
        for v in rep.violations
    )


def test_forces_terminal_world():
    m = VeltmanModel.make(["a"])
    assert forces(m, "a", parse("[]bot"))
    assert forces(m, "a", parse("p |> bot"))


def test_forces_rhd():
    m = VeltmanModel.make(
        ["w", "u"], [("w", "u")], [("w", "u", "u")], {"u": {"p"}}
    )
    assert forces(m, "w", Rhd(p, p))
    assert not forces(m, "w", Rhd(p, q))
    assert forces(m, "w", Diamond(p))


def test_forces_unknown_world():
    m = VeltmanModel.make(["a"])
    with pytest.raises(KeyError):
        forces(m, "zz", p)


def test_generated_submodel_at_root():
    m = chain(3, {"w2": {"p"}})
    g = generated_submodel(m, "w0")
    assert g.frame == m.frame
    assert dict(g.val) == dict(m.val)


def test_generated_submodel_midchain():
    m = chain(3, {"w2": {"p"}})
    g = generated_submodel(m, "w1")
    assert g.frame.worlds == frozenset({"w1", "w2"})
    for w in ("w1", "w2"):
        assert forces(g, w, Diamond(p)) == forces(m, w, Diamond(p))


def test_generated_submodel_terminal():
    m = chain(3)
    g = generated_submodel(m, "w2")
    assert g.frame.worlds == frozenset({"w2"})
    assert forces(g, "w2", Box(parse("bot")))


def _random_model(rng, n_worlds=5, n_atoms=2):
    worlds = [f"w{i}" for i in range(n_worlds)]
    R = set()
    for i in range(n_worlds):
        for j in range(i + 1, n_worlds):
            if rng.random() < 0.45:
                R.add((worlds[i], worlds[j]))
    # transitive closure
    changed = True
    while changed:
        changed = False
        for (a, b) in list(R):
            for (b2, c) in list(R):
                if b == b2 and (a, c) not in R:
                    R.add((a, c))
                    changed = True
    S = {(x, y, y) for (x, y) in R}
    S |= {(x, y, z) for (x, y) in R for (y2, z) in R if y2 == y}
    # draw in sorted order: a set's order follows the hash seed
    pairs = sorted(R)
    for (x, y) in pairs:
        for (x2, z) in pairs:
            if x2 == x and (x, y, z) not in S and rng.random() < 0.2:
                S.add((x, y, z))
    # close S_x under transitivity
    changed = True
    while changed:
        changed = False
        for (x, u, v) in list(S):
            for (x2, v2, w) in list(S):
                if x == x2 and v == v2 and (x, u, w) not in S:
                    S.add((x, u, w))
                    changed = True
    names = [f"a{i}" for i in range(n_atoms)]
    val = {w: {a for a in names if rng.random() < 0.5} for w in worlds}
    return VeltmanModel.make(worlds, R, S, val)


def _random_formula(rng, names, depth):
    choice = rng.random()
    if depth == 0 or choice < 0.25:
        return Atom(rng.choice(names)) if rng.random() < 0.8 else parse("bot")
    a = _random_formula(rng, names, depth - 1)
    b = _random_formula(rng, names, depth - 1)
    pick = rng.randrange(4)
    if pick == 0:
        return parse(f"({a}) -> ({b})")
    if pick == 1:
        return Box(a)
    if pick == 2:
        return Rhd(a, b)
    return Neg(a)


def test_generated_submodel_lemma_random():
    rng = random.Random(20240817)
    for _ in range(40):
        m = _random_model(rng)
        assert validate(m.frame, IL).ok
        w = rng.choice(sorted(m.frame.worlds))
        g = generated_submodel(m, w)
        f = _random_formula(rng, ["a0", "a1"], 3)
        for x in sorted(g.frame.worlds):
            assert forces(g, x, f) == forces(m, x, f)


def test_glue_root_single():
    m = VeltmanModel.make(["a"], val={"a": set()})
    glued, root = glue_root([(m, "a")])
    assert forces(glued, root, Diamond(Neg(p)))
    assert validate(glued.frame, ILM).ok


def test_glue_root_two_diamonds():
    m0 = VeltmanModel.make(["a", "b"], [("a", "b")], [("a", "b", "b")], {"a": {"p"}, "b": {"q"}})
    m1 = VeltmanModel.make(["a", "c"], [("a", "c")], [("a", "c", "c")], {"a": {"q"}, "c": {"p"}})
    # m0,a forces <>~p (b lacks p); m1,a forces <>~q (c lacks q)
    assert forces(m0, "a", Diamond(Neg(p)))
    assert forces(m1, "a", Diamond(Neg(q)))
    glued, root = glue_root([(m0, "a"), (m1, "a")])
    assert forces(glued, root, And(Diamond(Neg(p)), Diamond(Neg(q))))
    assert validate(glued.frame, ILM).ok


def test_glue_root_empty():
    glued, root = glue_root([])
    assert glued.frame.worlds == frozenset({root})
    assert forces(glued, root, parse("[]bot"))
    assert validate(glued.frame, ILM).ok


def test_glue_above_world_refutes_rhd():
    m = VeltmanModel.make(["a"], val={"a": {"p"}})
    glued, root = glue_above_world(m, "a")
    assert forces(glued, root, Neg(Rhd(p, parse("bot"))))
    assert forces(glued, root, Diamond(Top()))
    assert validate(glued.frame, ILM).ok


def test_glue_above_world_general():
    # m forces A & ~B & []~B with A=p, B=q -> new root forces ~(A |> B)
    m = VeltmanModel.make(
        ["m", "u"], [("m", "u")], [("m", "u", "u")], {"m": {"p"}, "u": set()}
    )
    A, B = p, q
    assert forces(m, "m", parse("p & ~q & []~q"))
    glued, root = glue_above_world(m, "m")
    assert forces(glued, root, Neg(Rhd(A, B)))
    assert validate(glued.frame, ILM).ok


def test_glue_selfprover_shape():
    m = VeltmanModel.make(["l"], val={"l": {"p"}})
    n = VeltmanModel.make(["r"], val={"r": set()})
    glued, w = glue_selfprover(m, "l", n, "r")
    assert len(glued.frame.worlds) == 3
    assert forces(glued, w, Diamond(Top()))
    assert validate(glued.frame, ILM).ok


def test_glue_selfprover_breaks_box():
    # left: l forces []a & phi with phi = p (a literal); right: r forces
    # ~phi & []phi & []a. glued root w must force ~[](phi & []phi).
    a = Atom("a")
    left = VeltmanModel.make(
        ["l", "l1"], [("l", "l1")], [("l", "l1", "l1")], {"l": {"p"}, "l1": {"a", "p"}}
    )
    right = VeltmanModel.make(
        ["r", "r1"], [("r", "r1")], [("r", "r1", "r1")], {"r": set(), "r1": {"a", "p"}}
    )
    phi = p
    assert forces(left, "l", parse("[]a & p"))
    assert forces(right, "r", parse("~p & []p & []a"))
    glued, w = glue_selfprover(left, "l", right, "r")
    assert validate(glued.frame, ILM).ok
    assert forces(glued, w, Neg(Box(And(phi, Box(phi)))))


def test_frame_validates_single_point():
    f = VeltmanFrame.make(["a"])
    assert frame_validates(f, parse("[]bot"))


def test_frame_validates_l3():
    m = chain(3)
    assert frame_validates(m.frame, parse("[]([]p -> p) -> []p"))


def test_frame_validates_detects_ilm_failure():
    W = ["w", "l", "r", "u"]
    R = [("w", "l"), ("w", "r"), ("w", "u"), ("r", "u")]
    S = [(x, y, y) for (x, y) in R] + [("w", "r", "u"), ("w", "l", "r"), ("w", "l", "u")]
    f = VeltmanFrame.make(W, R, S)
    m_instance = parse("p |> q -> (p & []r) |> (q & []r)")
    assert validate(f, IL).ok
    assert not validate(f, ILM).ok
    assert not frame_validates(f, m_instance)


def test_frame_validates_budget():
    m = chain(6)
    big = parse("p1 & p2 & p3 & p4 & p5")
    with pytest.raises(BudgetExceededError):
        frame_validates(m.frame, big)


def test_frame_validates_budget_holds_from_64_cells():
    # 64 worlds times one atom: 2^64 valuations, never to be enumerated
    frame = VeltmanFrame.make([f"w{i}" for i in range(64)])
    with pytest.raises(BudgetExceededError):
        frame_validates(frame, parse("p -> p"))


def test_lemma_3_2_correspondence_small_frames():
    # frames with <= 3 worlds: ILM validity of the canonical instance of
    # Montagna's principle coincides with the frame condition
    m_instance = parse("p |> q -> (p & []r) |> (q & []r)")
    rng = random.Random(7)
    frames = _enumerate_il_frames_upto(3)
    assert len(frames) > 20
    for f in frames:
        assert validate(f, ILM).ok == frame_validates(f, m_instance)


def _enumerate_il_frames_upto(n_max):
    import itertools

    out = []
    for n in range(1, n_max + 1):
        worlds = [f"w{i}" for i in range(n)]
        pairs = [(a, b) for a in worlds for b in worlds if a != b]
        for bits in itertools.product([0, 1], repeat=len(pairs)):
            R = {p for p, b in zip(pairs, bits) if b}
            ok = all(
                (a, c) in R
                for (a, b) in R
                for (b2, c) in R
                if b2 == b and a != c
            )
            if not ok or _cyclic(worlds, R):
                continue
            base = {(x, y, y) for (x, y) in R} | {
                (x, y, z) for (x, y) in R for (y2, z) in R if y2 == y
            }
            opt = [
                (x, y, z)
                for (x, y) in R
                for (x2, z) in R
                if x2 == x and (x, y, z) not in base
            ]
            for obits in itertools.product([0, 1], repeat=len(opt)):
                S = set(base) | {t for t, b in zip(opt, obits) if b}
                closed = all(
                    (x, u, w) in S
                    for (x, u, v) in S
                    for (x2, v2, w) in S
                    if x2 == x and v2 == v
                )
                if closed:
                    out.append(VeltmanFrame.make(worlds, R, S))
    return out


def _cyclic(worlds, R):
    from ilkit.relation import find_cycle

    return find_cycle(worlds, R) is not None


def test_lemma_3_2_correspondence_sampled_4_world_frames():
    # 4-world frames are sampled rather than exhausted
    m_instance = parse("p |> q -> (p & []r) |> (q & []r)")
    rng = random.Random(12)
    checked = 0
    while checked < 40:
        worlds = [f"w{i}" for i in range(4)]
        R = set()
        for i in range(4):
            for j in range(i + 1, 4):
                if rng.random() < 0.5:
                    R.add((worlds[i], worlds[j]))
        changed = True
        while changed:
            changed = False
            for (a, b) in list(R):
                for (b2, c) in list(R):
                    if b == b2 and (a, c) not in R:
                        R.add((a, c))
                        changed = True
        base = {(x, y, y) for (x, y) in R} | {
            (x, y, z) for (x, y) in R for (y2, z) in R if y2 == y
        }
        S = set(base)
        for (x, y) in sorted(R):
            for (x2, z) in sorted(R):
                if x2 == x and rng.random() < 0.35:
                    S.add((x, y, z))
        changed = True
        while changed:
            changed = False
            for (x, u, v) in list(S):
                for (x2, v2, w) in list(S):
                    if x == x2 and v == v2 and (x, u, w) not in S:
                        S.add((x, u, w))
                        changed = True
        f = VeltmanFrame.make(worlds, R, S)
        if not validate(f, IL).ok:
            continue
        checked += 1
        assert validate(f, ILM).ok == frame_validates(f, m_instance)


def test_box_bot_exactly_at_maximal_worlds():
    m = chain(3)
    boxbot = parse("[]bot")
    maximal = {w for w in m.frame.worlds if not any(x == w for (x, y) in m.frame.R)}
    for w in m.frame.worlds:
        assert forces(m, w, boxbot) == (w in maximal)


def test_model_json_round_trip():
    m = chain(3, {"w1": {"p"}, "w2": {"p", "q"}})
    j = model_to_json(m)
    m2 = model_from_json(j)
    assert model_to_json(m2) == j


def test_model_dot():
    m = chain(2, {"w1": {"p"}})
    dot = model_to_dot(m)
    assert '"w0" -> "w1";' in dot
    assert "style=dashed" in dot
    assert "digraph" in dot


def test_model_dot_escapes_quotes_and_backslashes():
    # a model file may name a world or an atom with any string
    m = model_from_dict(
        {"worlds": ['a"x', "b\\", "c"], "R": [['a"x', "b\\"]], "S": [['a"x', "b\\", "b\\"]],
         "val": {'a"x': ['p"q', "r\\"]}}
    )
    assert model_to_dot(m).splitlines() == [
        "digraph veltman {",
        '  "a\\"x" [label="a\\"x\\n{p\\"q,r\\\\}"];',
        '  "b\\\\" [label="b\\\\\\n{}"];',
        '  "c" [label="c\\n{}"];',
        '  "a\\"x" -> "b\\\\";',
        '  "b\\\\" -> "b\\\\" [style=dashed, label="a\\"x"];',
        "}",
    ]


def test_forcing_at_any_depth():
    # extensions are computed from an explicit stack, so a library-built
    # formula nested far past the recursion limit is forced and validated
    m = VeltmanModel.make(["a", "b"], [("a", "b")], [("a", "b", "b")], {"a": {"p"}})
    even, odd = neg_chain(3000), neg_chain(3001)
    assert forces(m, "a", even) and not forces(m, "b", even)
    assert forces(m, "b", odd) and not forces(m, "a", odd)
    assert not frame_validates(m.frame, even)
    assert frame_validates(m.frame, Implies(even, Neg(odd)))


def test_model_keeps_its_own_valuation():
    # a model caches extensions, so it copies the valuation it is given:
    # editing the caller's dict after a query changes no answer
    val = {"a": frozenset({"p"}), "b": frozenset()}
    m = VeltmanModel(VeltmanFrame.make(["a", "b"], [("a", "b")], [("a", "b", "b")]), val)
    f = parse("p & []~p")
    assert forces(m, "a", f)
    val["a"], val["b"] = frozenset(), frozenset({"p"})
    assert forces(m, "a", f)
    assert not forces(m, "b", parse("p"))
    assert m.val == {"a": frozenset({"p"}), "b": frozenset()}


def _reference_forces(m, w, f):
    """Forcing by its definition, one world and one formula at a time."""
    if f == BOT:
        return False
    if isinstance(f, Atom):
        return f.name in m.val.get(w, ())
    if isinstance(f, Implies):
        return not _reference_forces(m, w, f.left) or _reference_forces(m, w, f.right)
    succ = [y for x, y in m.frame.R if x == w]
    if isinstance(f, Box):
        return all(_reference_forces(m, u, f.body) for u in succ)
    return all(
        any(_reference_forces(m, z, f.right) for x, y, z in m.frame.S if (x, y) == (w, u))
        for u in succ
        if _reference_forces(m, u, f.left)
    )


def _reference_validates(frame, f):
    names, worlds = sorted(atoms(f)), sorted(frame.worlds)
    cells = [(w, a) for w in worlds for a in names]
    for bits in itertools.product((False, True), repeat=len(cells)):
        val = {w: frozenset(a for (v, a), b in zip(cells, bits) if b and v == w) for w in worlds}
        m = VeltmanModel(frame, val)
        if not all(_reference_forces(m, w, f) for w in worlds):
            return False
    return True


def test_forcing_matches_a_reference_on_random_models():
    # R and S may name worlds outside `worlds`, and the valuation may give
    # such a name atoms: forcing reads them as the definition does
    rng = random.Random(16)
    names = ["a", "b", "c", "d", "x", "y"]
    for _ in range(1000):
        worlds = rng.sample(names[:4], rng.randint(1, 4))
        R = {(u, v) for u in names for v in names if rng.random() < 0.15}
        S = {(u, v, z) for u, v in R for z in names if rng.random() < 0.3}
        val = {w: frozenset(a for a in "pq" if rng.random() < 0.5) for w in rng.sample(names, 4)}
        frame = VeltmanFrame.make(worlds, R, S)
        m = VeltmanModel(frame, val)
        f = random_formula(rng, 3, atoms=("p", "q"))
        for w in worlds:
            assert forces(m, w, f) == _reference_forces(m, w, f), (m, w, f)
        if len(atoms(f)) * len(worlds) <= 6:
            assert frame_validates(frame, f) == _reference_validates(frame, f), (frame, f)


def _transitive_frame(rng, n, cyclic):
    """A seeded frame whose R is transitively closed: the closure of random
    forward edges, plus, when cyclic, a cycle through two or three worlds
    (so R has loops)."""
    worlds = [f"w{i}" for i in range(n)]
    R = {(worlds[i], worlds[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    if cyclic:
        ring = [worlds[i] for i in sorted(rng.sample(range(n), rng.randint(2, min(n, 3))))]
        R |= set(zip(ring, ring[1:] + ring[:1]))
    R = transitive_closure_pairs(R)
    S = {(x, y, y) for x, y in sorted(R) if rng.random() < 0.9}
    S |= {(x, y, z) for x, y in sorted(R) for x2, z in sorted(R) if x2 == x and rng.random() < 0.3}
    return VeltmanFrame.make(worlds, R, S)


def test_validate_matches_nested_loop_definitions_on_transitive_frames():
    # a transitive R is tested for a loop, not searched: the reports must
    # still be the oracle's, cycle witness included
    rng = random.Random(27)
    cycles = acyclic_with_violations = 0
    for i in range(200):
        frame = _transitive_frame(rng, rng.randrange(2, 6), cyclic=i % 2 == 1)
        assert not any(v.condition == "r_transitive" for v in validate(frame, IL).violations)
        for logic in (IL, ILM):
            got = [(v.condition, v.witness) for v in validate(frame, logic).violations]
            assert got == _violations_by_nested_loops(frame, logic == ILM), (frame, logic)
            conditions = {c for c, _ in got}
            cycles += "converse_well_founded" in conditions
            acyclic_with_violations += bool(conditions) and i % 2 == 0
    assert cycles == 200  # every cyclic frame is caught, under IL and ILM
    assert acyclic_with_violations >= 50


def test_validate_reports_a_two_cycle_without_loops():
    # a R b R a: no loop, so only the failed r_transitive shows the cycle
    frame = VeltmanFrame.make(["a", "b"], [("a", "b"), ("b", "a")], [("a", "b", "b"), ("b", "a", "a")])
    for logic in (IL, ILM):
        got = [(v.condition, v.witness) for v in validate(frame, logic).violations]
        assert got == _violations_by_nested_loops(frame, logic == ILM)
        assert got[:3] == [
            ("converse_well_founded", ("a", "b", "a")),
            ("r_transitive", ("a", "b", "a")),
            ("r_transitive", ("b", "a", "b")),
        ]


def test_forces_unknown_world_after_the_extension_is_cached():
    m = VeltmanModel.make(["a"], [("a", "zz")], [("a", "zz", "zz")], {"a": {"p"}})
    assert forces(m, "a", p)
    assert p in m.extensions([])
    with pytest.raises(KeyError):
        forces(m, "zz", p)  # zz is named by R but is not a world


def test_forces_reads_the_same_answer_cached_or_not():
    rng = random.Random(61)
    hits = 0
    for _ in range(40):
        m = _random_model(rng)
        fs = [_random_formula(rng, ["a0", "a1"], 3) for _ in range(6)]
        m.extensions(fs[:3])  # half the formulas, and their subformulas, cached up front
        for f in fs:
            for w in sorted(m.frame.worlds):
                hits += f in m.extensions([])
                want = forces(VeltmanModel(m.frame, m.val), w, f)
                assert forces(m, w, f) == want, (m, w, f)
    assert hits >= 800


@pytest.mark.parametrize("logic", [IL, ILM])
def test_validate_on_rows_matches_the_set_reference(logic):
    # unclosed frames with names outside worlds, loops, R-cycles, S triples
    # outside R and up to 24 worlds, and every fourth one closed: the same
    # report, witness for witness
    rng = random.Random(370 + (logic == ILM))
    seen, wide = set(), 0
    for i in range(160):
        frame = random_unclosed_frame(rng, rng.randint(1, 24))
        if i % 4 == 0:
            g = close(LabeledFrame(AdequateSet(()), logic, sorted(frame.worlds), frame.R, frame.S))
            frame = VeltmanFrame.make(frame.worlds, g.R, g.S)
        got = validate(frame, logic)
        assert got == reference_validate(frame, logic), frame
        seen.update(v.condition for v in got.violations)
        wide += len(frame.index) > 16
    conditions = {"r_domain", "converse_well_founded", "r_transitive", "s_over_successors", "s_reflexive"}
    conditions |= {"r_inside_s", "s_transitive"} | ({"ilm_condition"} if logic == ILM else set())
    assert seen == conditions and wide >= 40, (seen, wide)


def test_extensions_on_rows_match_the_set_reference():
    # every subformula's extension on one lane and on several, on the
    # frames above: the valuation may give names outside worlds atoms
    rng = random.Random(372)
    wide = 0
    for _ in range(160):
        frame = random_unclosed_frame(rng, rng.randint(1, 24))
        names = list(frame.index)
        val = {w: frozenset(a for a in "pqr" if rng.random() < 0.5) for w in names if rng.random() < 0.9}
        fs = [random_formula(rng, 3) for _ in range(4)]
        assert _extensions(frame, fs, 1, val, {}) == reference_extensions(frame, fs, 1, val, {}), frame
        lanes = rng.randint(2, 5)
        masks = {Atom(a): rng.getrandbits(lanes * len(names)) for a in "pqr"}
        got = _extensions(frame, fs, lanes, {}, dict(masks))
        assert got == reference_extensions(frame, fs, lanes, {}, dict(masks)), frame
        wide += len(names) > 16
    assert wide >= 40


def test_validate_and_forcing_on_rows_wider_than_a_word():
    # 65-80 worlds, so the inline walks over S[x][y] and R[w] & A cross a
    # 64-bit word; every other frame is the IL closure of a sparse acyclic
    # part, which holds s_transitive and fails ilm_condition
    rng = random.Random(374)
    for i in range(6):
        frame = random_unclosed_frame(rng, rng.randint(65, 80))
        if i % 2:
            ix = frame.index
            R = {(a, b) for a, b in sorted(frame.R) if ix[a] < ix[b] and rng.random() < 0.15}
            S = {t for t in sorted(frame.S) if rng.random() < 0.15}
            g = close(LabeledFrame(AdequateSet(()), IL, sorted(frame.worlds), R, S))
            frame = VeltmanFrame.make(frame.worlds, g.R, g.S)
        for logic in (IL, ILM):
            assert validate(frame, logic) == reference_validate(frame, logic), frame
        names = list(frame.index)
        assert len(names) > 64
        val = {w: frozenset(a for a in "pqr" if rng.random() < 0.5) for w in names}
        fs = [random_formula(rng, 3) for _ in range(6)]
        assert _extensions(frame, fs, 1, val, {}) == reference_extensions(frame, fs, 1, val, {}), frame


def test_frame_validates_on_rows_matches_the_set_reference(monkeypatch):
    # a lane per valuation: the same answers with the reference evaluator
    rng = random.Random(373)
    cases = []
    while len(cases) < 150:
        frame = random_unclosed_frame(rng, rng.randint(1, 5))
        f = random_formula(rng, 3, atoms=("p", "q"))
        if 1 < len(atoms(f)) * len(frame.worlds) <= 12:
            cases.append((frame, f))
    got = [frame_validates(frame, f) for frame, f in cases]
    monkeypatch.setattr(semantics, "_extensions", reference_extensions)
    assert got == [frame_validates(frame, f) for frame, f in cases]
    assert 20 <= sum(got) <= 130
