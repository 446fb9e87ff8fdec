import copy
import random

import pytest

import ilkit.construction as construction
from ilkit import theory
from conftest import (
    check_mcone_invariance,
    close_trace,
    depth,
    find_imperfections,
    labels_of,
    m_cone,
    open_items,
    random_formula,
    random_unclosed_frame,
    reference_cones,
    reference_fresh_candidates,
    reference_relations,
    search_preference,
    transitive_closure_pairs,
)
from ilkit.construction import (
    Deficiency,
    LabeledFrame,
    Problem,
    _cones,
    close,
    close_frame,
    critical_cone,
    eliminate,
    generalized_cone,
    quasi_frame_violations,
    refresh_worklist,
    seed_frame,
    verify_truth_lemma,
)
from ilkit.decide import Budget, _State, satisfiable
from ilkit.relation import bits, find_cycle, image
from ilkit.semantics import GL, IL, ILM, LOGICS, VeltmanFrame, VeltmanModel, forces, validate
from ilkit.syntax import (
    BOT,
    AdequateSet,
    And,
    Atom,
    Box,
    Diamond,
    Implies,
    Neg,
    Or,
    Rhd,
    adequate_closure,
    parse,
    single_neg,
)
from ilkit.theory import LoggedTheory, box_incl, crit_succ, solve_theories

p, q = Atom("p"), Atom("q")


def small_D():
    return adequate_closure([parse("p |> q"), Box(p)])


def frame_with(D, logic, worlds, R, S, theories, labels=None):
    f = LabeledFrame(D, logic, worlds, R, S, {w: theories[w] for w in worlds})
    f.edge_label = dict(labels or {})
    return f


def pick(D, logic=ILM, **wants):
    cs = [(f, True) for f in wants.get("incl", [])] + [(f, False) for f in wants.get("excl", [])]
    return next(solve_theories(D, logic, cs))


def test_cones_empty_without_labels():
    D = small_D()
    t = pick(D)
    f = frame_with(D, ILM, ["a", "b"], {("a", "b")}, {("a", "b", "b")}, {"a": t, "b": t})
    assert critical_cone(f, "a", q) == set()
    assert generalized_cone(f, "a", q) == set()
    assert m_cone(f, "a", q) == set()


def test_critical_cone_follows_edges():
    D = small_D()
    g = pick(D, incl=[Neg(Rhd(p, q))])
    t = pick(D, incl=[p, Neg(q)])
    f = frame_with(
        D,
        ILM,
        ["a", "b", "c"],
        {("a", "b"), ("a", "c"), ("b", "c")},
        {("a", "b", "b"), ("a", "c", "c"), ("a", "b", "c")},
        {"a": g, "b": t, "c": t},
        labels={("a", "b"): q},
    )
    assert critical_cone(f, "a", q) == {"b", "c"}
    assert generalized_cone(f, "a", q) >= {"b", "c"}
    assert m_cone(f, "a", q) >= {"b", "c"}


def test_cone_sandwich():
    D = small_D()
    g = pick(D, incl=[Neg(Rhd(p, q))])
    t = pick(D, incl=[p, Neg(q)])
    f = frame_with(
        D,
        ILM,
        ["a", "b", "c"],
        {("a", "b"), ("a", "c")},
        {("a", "b", "b"), ("a", "c", "c"), ("a", "b", "c")},
        {"a": g, "b": t, "c": t},
        labels={("a", "b"): q},
    )
    c = critical_cone(f, "a", q)
    m = m_cone(f, "a", q)
    gc = generalized_cone(f, "a", q)
    assert c <= m <= gc


def test_find_imperfections_chain():
    D = small_D()
    t0 = pick(D, excl=[Box(p)])
    t1 = pick(D, incl=[Box(p), p])
    f = frame_with(
        D, IL, ["a", "b", "c"], {("a", "b"), ("b", "c")}, set(), {"a": t0, "b": t0, "c": t1}
    )
    imps = find_imperfections(f, IL)
    kinds = {(i.condition, i.witness) for i in imps}
    assert ("r_transitive", ("a", "b", "c")) in kinds
    assert ("s_reflexive", ("a", "b")) in kinds
    assert ("s_reflexive", ("b", "c")) in kinds
    assert ("r_inside_s", ("a", "b", "c")) in kinds
    assert not any(i.condition == "ilm_condition" for i in imps)


def test_ilm_condition_imperfection_only_under_ilm():
    D = small_D()
    t = pick(D, excl=[Box(p)])
    f = frame_with(
        D,
        ILM,
        ["a", "b", "c", "d"],
        {("a", "b"), ("a", "c"), ("c", "d"), ("a", "d")},
        {("a", "b", "c")},
        {"a": t, "b": t, "c": t, "d": t},
    )
    il_kinds = {i.condition for i in find_imperfections(f, IL)}
    ilm = find_imperfections(f, ILM)
    assert "ilm_condition" not in il_kinds
    assert any(i.condition == "ilm_condition" and i.witness == ("a", "b", "c", "d") for i in ilm)


def test_find_imperfections_exact_lists():
    # b S_a c S_a d without b S_a d (s_transitive), and a R d without d S_a d
    f = VeltmanFrame.make(
        "abcd",
        {("a", "b"), ("a", "c"), ("a", "d")},
        {("a", "b", "b"), ("a", "c", "c"), ("a", "b", "c"), ("a", "c", "d")},
    )
    assert [(i.condition, i.witness) for i in find_imperfections(f, IL)] == [
        ("s_reflexive", ("a", "d")),
        ("s_transitive", ("a", "b", "c", "d")),
    ]
    # an ILM labeled frame with b S_a c R d (ilm_condition) and the R-cycle
    # c R d R c
    g = LabeledFrame(
        adequate_closure([]),
        ILM,
        list("abcd"),
        {("a", "b"), ("a", "c"), ("c", "d"), ("d", "c")},
        {("a", "b", "b"), ("a", "c", "c"), ("a", "b", "c")},
    )
    want = [
        ("r_transitive", ("a", "c", "d")),
        ("r_transitive", ("c", "d", "c")),
        ("r_transitive", ("d", "c", "d")),
        ("s_reflexive", ("c", "d")),
        ("s_reflexive", ("d", "c")),
        ("r_inside_s", ("a", "c", "d")),
        ("r_inside_s", ("c", "d", "c")),
        ("r_inside_s", ("d", "c", "d")),
        ("ilm_condition", ("a", "b", "c", "d")),
    ]
    assert [(i.condition, i.witness) for i in find_imperfections(g)] == want
    assert [(i.condition, i.witness) for i in find_imperfections(g, IL)] == want[:-1]


def test_close_chain():
    D = small_D()
    t0 = pick(D, excl=[Box(p)])
    t1 = pick(D, incl=[Box(p), p])
    f = frame_with(
        D, IL, ["a", "b", "c"], {("a", "b"), ("b", "c")}, set(), {"a": t0, "b": t0, "c": t1}
    )
    g = close(f)
    assert ("a", "c") in g.R
    assert {("a", "b", "b"), ("a", "c", "c"), ("b", "c", "c"), ("a", "b", "c")} <= g.S
    assert find_imperfections(g, IL) == []
    assert g.worlds == f.worlds
    assert g.nu == f.nu
    # already-closed frame is a fixpoint
    assert close(g).R == g.R and close(g).S == g.S


def test_close_ilm_condition():
    f = VeltmanFrame.make(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("c", "d"), ("a", "d")],
        [("a", "b", "c")],
    )
    g = close_frame(f, ILM)
    assert ("b", "d") in g.R


@pytest.mark.parametrize("logic", [IL, ILM])
def test_close_trace_matches_close(logic):
    rng = random.Random(3)
    D = small_D()
    t = pick(D, excl=[Box(p)])
    with_s = 0
    for _ in range(40):
        worlds = [f"v{i}" for i in range(rng.randrange(2, 6))]
        R = set()
        for i in range(len(worlds)):
            for j in range(i + 1, len(worlds)):
                if rng.random() < 0.6:
                    R.add((worlds[i], worlds[j]))
        # S triples over R-successors in either order; under ILM some of
        # them close an R-cycle, which both closures must reach alike
        # sorted: a set of string pairs iterates in a hash-seeded order
        pairs = sorted(R)
        S = {(x, y, z) for (x, y) in pairs for (x2, z) in pairs if x2 == x and rng.random() < 0.3}
        with_s += bool(S)
        f = frame_with(D, logic, worlds, R, S, {w: t for w in worlds})
        for w in worlds:
            if rng.random() < 0.3:
                f.obligations[w] = frozenset({p})
        stepped = f
        for _, stepped in close_trace(f, logic):
            pass
        batched = close(f)
        assert stepped.R == batched.R and stepped.S == batched.S
        assert stepped.obligations == batched.obligations
    assert with_s >= 20


@pytest.mark.parametrize("logic", [IL, ILM])
def test_row_closure_matches_close_trace_on_unclosed_frames(logic):
    # close's row kernel against one fact at a time (close_trace), on
    # frames with names outside worlds, loops, R-cycles and S triples
    # outside R, more than 16 worlds among them; and settled against a
    # closed frame on part of the facts (since), to a copy of which `link`
    # adds the rest: since holds every fact that names a node outside the
    # worlds or that link cannot add (a triple y S_x z without x R z), so
    # its rows number all of the frame's names. The step's rows end as the
    # whole frame's, and no cone is built
    rng = random.Random(38 + (logic == ILM))
    seen = {"outside": 0, "loop": 0, "s outside R": 0, "wide": 0, "linked": 0}
    frames = [random_unclosed_frame(rng, rng.randint(1, 6)) for _ in range(60)]
    for fr in frames + [_wide_frame(random.Random(38))]:
        f = LabeledFrame(AdequateSet(()), logic, sorted(fr.worlds), fr.R, fr.S)
        stepped = f
        for _, stepped in close_trace(f, logic):
            pass
        whole = close(f)
        assert (whole.R, whole.S) == (stepped.R, stepped.S), fr
        linkable = lambda fact: fr.worlds.issuperset(fact) and (fact[0], fact[-1]) in fr.R
        later = [fact for fact in sorted(fr.R) + sorted(fr.S) if linkable(fact) and rng.random() < 0.5]
        part = LabeledFrame(AdequateSet(()), logic, sorted(fr.worlds), fr.R - set(later), fr.S - set(later))
        parent = close(part)
        assert parent._rows[0] == f._rows[0], fr
        child = parent.copy()
        for fact in later:
            child.link(fact[0], fact[-1], y=fact[1] if len(fact) == 3 else None)
        step = close(child, since=parent)
        assert (step.R, step.S) == (whole.R, whole.S), fr
        assert step._rows == whole._rows, fr
        n, R, S = step._rows
        assert (R, S) == construction.to_rows(dict(zip(n, range(len(n)))), step.R, step.S)
        assert step._cones is whole._cones is None
        seen["outside"] += len(fr.index) > len(fr.worlds)
        seen["loop"] += any(x == y for x, y in whole.R)
        seen["s outside R"] += any((x, y) not in fr.R or (x, z) not in fr.R for x, y, z in fr.S)
        seen["wide"] += len(fr.worlds) > 16
        seen["linked"] += bool(later)
        if len(fr.index) == len(fr.worlds) and not any(x == y for x, y in whole.R):
            # close_frame hands the kernel's rows on as the frame's cache
            out = close_frame(fr, logic)
            fresh = VeltmanFrame.make(*out)
            assert (out.index, out.rows) == (fresh.index, fresh.rows), fr
    assert seen.pop("wide") == 1 and min(seen.values()) >= 10, seen


def test_to_frame_hands_on_rows_only_in_sorted_order():
    # a plain frame numbers its names in sorted order, so the closed rows
    # of a frame whose worlds are not in sorted order stay behind
    for worlds in (["a", "b", "c"], ["c", "a", "b"]):
        f = LabeledFrame(AdequateSet(()), IL, worlds, {("c", "a"), ("a", "b")}, ())
        frame = close(f).to_frame()
        fresh = VeltmanFrame.make(*frame)
        assert (frame.index, frame.rows) == (fresh.index, fresh.rows), worlds
        assert validate(frame, IL) == validate(fresh, IL)


def _wide_frame(rng):
    """17 worlds with forward R edges and S triples forward over each
    world's successors, one name outside the worlds and a triple outside
    R: about 400 triples once closed, so close_trace takes well under 1 s."""
    worlds = [f"w{i:02d}" for i in range(17)]
    R = {(a, b) for i, a in enumerate(worlds) for b in worlds[i + 1 :] if rng.random() < 0.3}
    succ = image(R)
    S = {(x, y, z) for x in sorted(succ) for y in sorted(succ[x]) for z in sorted(succ[x]) if y < z and rng.random() < 0.3}
    return VeltmanFrame.make(worlds, R | {("w16", "x0")}, S | {("w00", "w16", "x0"), ("x0", "w03", "w01")})


def test_close_builds_the_index_only_when_asked():
    # with since or without, close leaves no cone table; under ILM
    # it pushes an obligation along S, reading the closed rows
    D = small_D()
    t = pick(D)
    f = frame_with(D, ILM, ["a", "b", "c"], {("a", "b"), ("a", "c")}, {("a", "b", "c")}, dict.fromkeys("abc", t))
    g = close(f)
    assert g._cones is None
    h = g.copy()
    h.link("a", "b", y="c")  # a R b is in g already
    stepped = close(h, since=g)
    assert stepped._cones is None
    f.obligations["b"] = frozenset({p})
    g = close(f)
    assert g._cones is None and g.obligations["c"] == frozenset({p})


def test_close_trace_mcone_invariance():
    D = small_D()
    g = pick(D, incl=[Neg(Rhd(p, q))])
    t = pick(D, incl=[p, Neg(q)])
    f = frame_with(
        D,
        ILM,
        ["a", "b", "c"],
        {("a", "b"), ("b", "c")},
        set(),
        {"a": g, "b": t, "c": t},
        labels={("a", "b"): q},
    )
    prev = f
    for imp, step in close_trace(f, ILM):
        assert check_mcone_invariance(prev, step)
        prev = step


def test_mcone_invariance_negative_control():
    D = small_D()
    g = pick(D, incl=[Neg(Rhd(p, q))])
    t = pick(D, incl=[p, Neg(q)])
    f = frame_with(
        D,
        ILM,
        ["a", "b", "c"],
        {("a", "b")},
        {("a", "b", "b")},
        {"a": g, "b": t, "c": t},
        labels={("a", "b"): q},
    )
    broken = f.copy()
    broken.link("b", "c")  # hand-injected edge extends the cone
    assert not check_mcone_invariance(f, broken)


def test_depth():
    D = small_D()
    t = pick(D)
    e = frame_with(D, ILM, ["a"], set(), set(), {"a": t})
    assert depth(e) == 0
    f2 = frame_with(D, ILM, ["a", "b"], {("a", "b")}, set(), {"a": t, "b": t})
    assert depth(f2) == 1
    f3 = frame_with(
        D, ILM, ["a", "b", "c"], {("a", "b"), ("b", "c"), ("a", "c")}, set(), {"a": t, "b": t, "c": t}
    )
    assert depth(f3) == 2
    # the longest chain is found without recursion, as find_cycle's cycles are
    ws = [f"w{i}" for i in range(2000)]
    chain = frame_with(D, ILM, ws, zip(ws, ws[1:]), set(), dict.fromkeys(ws, t))
    assert depth(chain) == 1999
    cycle = frame_with(D, ILM, ["a", "b"], {("a", "b"), ("b", "a")}, set(), {"a": t, "b": t})
    with pytest.raises(ValueError, match="R has a cycle"):
        depth(cycle)


def test_find_problems_single_world():
    D = adequate_closure([parse("p |> q")])
    g = next(solve_theories(D, ILM, [(Rhd(p, q), False)]))
    f = frame_with(D, ILM, ["a"], set(), set(), {"a": g})
    probs = open_items(f)
    assert probs == [Problem("a", Neg(Rhd(p, q)))]


def test_find_box_problem():
    D = adequate_closure([Box(p)])
    g = next(solve_theories(D, ILM, [(Box(p), False)]))
    f = frame_with(D, ILM, ["a"], set(), set(), {"a": g})
    assert open_items(f) == [Problem("a", Neg(Box(p)))]


def test_find_deficiencies():
    D = adequate_closure([parse("p |> q")])
    g = next(solve_theories(D, ILM, [(Rhd(p, q), True)]))
    t = next(solve_theories(D, ILM, [(p, True), (q, False)]))
    f = frame_with(
        D, ILM, ["a", "b"], {("a", "b")}, {("a", "b", "b")}, {"a": g, "b": t}
    )
    defs = [i for i in open_items(f) if isinstance(i, Deficiency)]
    assert defs == [Deficiency("a", "b", Rhd(p, q))]
    # a q-carrying S-exit witnesses it
    z = next(solve_theories(D, ILM, [(q, True)]))
    f2 = frame_with(
        D,
        ILM,
        ["a", "b", "c"],
        {("a", "b"), ("a", "c")},
        {("a", "b", "b"), ("a", "c", "c"), ("a", "b", "c")},
        {"a": g, "b": t, "c": z},
    )
    assert [i for i in open_items(f2) if isinstance(i, Deficiency)] == []


def test_eliminate_problem_one_point():
    D = adequate_closure([Neg(Rhd(p, BOT))])
    g = next(solve_theories(D, ILM, [(Rhd(p, BOT), False)]))
    f = seed_frame(D, ILM, g)
    outs = list(eliminate(f, Problem("w0", Neg(Rhd(p, BOT))), _State(Budget())))
    assert outs
    two = outs[0]
    assert len(two.worlds) == 2
    w1 = two.worlds[1]
    assert two.nu[w1].models(p)
    assert quasi_frame_violations(two) == []


def test_eliminate_deficiency_adds_s_edge():
    D = adequate_closure([parse("p |> q"), parse("p |> bot")])
    g = next(solve_theories(D, ILM, [(Rhd(p, q), True), (Rhd(p, BOT), False)]))
    f = seed_frame(D, ILM, g)
    # eliminate the problem first to get a p-successor
    outs = list(eliminate(f, f.worklist[0], _State(Budget())))
    assert outs
    f2 = outs[0]
    defs = [i for i in f2.worklist if isinstance(i, Deficiency)]
    assert defs
    d = defs[0]
    outs2 = list(eliminate(f2, d, _State(Budget())))
    assert outs2
    f3 = outs2[0]
    zs = [z for (x, y, z) in f3.S if x == d.x and y == d.y and f3.nu[z].models(q)]
    assert zs
    assert quasi_frame_violations(f3) == []
    assert all(box_incl(f3.nu[d.y], f3.nu[z]) for z in zs)


def test_eliminate_problem_empty_stream():
    D = adequate_closure([parse("[]~p"), parse("p |> q")])
    g = next(solve_theories(D, ILM, [(parse("[]~p"), True), (Rhd(p, q), False)]))
    f = seed_frame(D, ILM, g)
    probs = [i for i in f.worklist if isinstance(i, Problem) and i.formula == Neg(Rhd(p, q))]
    assert probs
    assert list(eliminate(f, probs[0], _State(Budget()))) == []


@pytest.mark.parametrize("logic", [IL, ILM])
def test_eliminate_never_relabels_an_edge(logic):
    # w1 witnesses ~(p |> q) through its q-labeled edge and is r-critical
    # too; reusing it for ~(p |> r) would relabel the edge and reopen
    # ~(p |> q), so every child links a fresh world instead
    r = Atom("r")
    D = adequate_closure([parse("p |> q"), parse("p |> r")])
    g = pick(D, logic, incl=[Neg(Rhd(p, q)), Neg(Rhd(p, r))])
    f = seed_frame(D, logic, g)
    f2 = next(c for c in eliminate(f, f.worklist[0], _State(Budget())) if crit_succ(g, r, c.nu["w1"]))
    assert f2.edge_label == {("w0", "w1"): q}
    assert f2.worklist == [Problem("w0", Neg(Rhd(p, r)))]
    children = list(eliminate(f2, f2.worklist[0], _State(Budget())))
    assert children
    for c in children:
        assert c.edge_label[("w0", "w1")] == q
        assert Problem("w0", Neg(Rhd(p, q))) not in open_items(c)


def test_verify_truth_lemma_single_world():
    D = adequate_closure([p])
    g = next(solve_theories(D, ILM, [(p, False)]))
    f = frame_with(D, ILM, ["a"], set(), set(), {"a": g})
    m = f.to_model()
    assert verify_truth_lemma(m, f.nu, D)
    flipped = VeltmanModel(m.frame, {"a": frozenset({"p"})})
    assert not verify_truth_lemma(flipped, f.nu, D)


def _random_quasi_ilm_frame(rng, D, n_worlds):
    """Random quasi-ILM-frame: theories read off a random model, S filtered
    by box nesting, some bot-labeled edges."""
    worlds = [f"v{i}" for i in range(n_worlds)]
    R = set()
    for i in range(n_worlds):
        for j in range(i + 1, n_worlds):
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
    val = {w: {n for n in ("p", "q") if rng.random() < 0.5} for w in worlds}
    model = VeltmanModel.make(worlds, R, set(), val)
    theories = {}
    for w in worlds:
        assign = {}
        for a in D.modal_atoms:
            assign[a] = forces(model, w, a)
        from ilkit.theory import DTheory

        theories[w] = DTheory(D, assign)
    S = set()
    for (x, y) in sorted(R):
        for (x2, z) in sorted(R):
            if x2 == x and rng.random() < 0.3:
                if box_incl(theories[y], theories[z]):
                    S.add((x, y, z))
    f = frame_with(D, ILM, worlds, R, S, theories)
    for (x, y) in sorted(R):
        if rng.random() < 0.3:
            f.edge_label[(x, y)] = BOT
    return f


def test_random_quasi_frames_close_clean():
    rng = random.Random(99)
    D = adequate_closure([parse("[]p -> []q")])
    count = 0
    for _ in range(40):
        f = _random_quasi_ilm_frame(rng, D, rng.randrange(2, 6))
        if quasi_frame_violations(f):
            continue
        count += 1
        prev = f
        for imp, step in close_trace(f, ILM):
            assert check_mcone_invariance(prev, step)
            prev = step
        assert find_imperfections(prev, ILM) == []
        assert prev.worlds == f.worlds
        assert prev.nu == f.nu
        assert prev.R >= f.R and prev.S >= f.S
    assert count >= 10


def test_generalized_cone_strictly_wider_via_foreign_s_step():
    # y in the critical cone of (a, q); an S_w step with w != a leads out of
    # the critical cone but stays inside the generalized cone
    D = small_D()
    g = pick(D, incl=[Neg(Rhd(p, q))])
    t = pick(D, incl=[p, Neg(q)])
    u = pick(D, excl=[p])
    f = frame_with(
        D,
        ILM,
        ["a", "w", "y", "z"],
        {("a", "y"), ("w", "y"), ("w", "z"), ("a", "w")},
        {("w", "y", "z")},
        {"a": g, "w": u, "y": t, "z": u},
        labels={("a", "y"): q},
    )
    assert "y" in critical_cone(f, "a", q)
    assert "z" not in critical_cone(f, "a", q)
    assert "z" in generalized_cone(f, "a", q)
    assert critical_cone(f, "a", q) <= m_cone(f, "a", q) <= generalized_cone(f, "a", q)


def test_cone_inclusions_on_random_ilm_frames():
    # critical cone <= M-cone <= generalized cone, on quasi-frames and on
    # their closures
    rng = random.Random(23)
    D = small_D()
    checked = 0
    for _ in range(60):
        f = _random_quasi_ilm_frame(rng, D, rng.randrange(2, 7))
        for (x, y) in sorted(f.R):
            if rng.random() < 0.4:
                f.edge_label[(x, y)] = rng.choice((p, q, BOT))
        for g in (f, close(f)):
            for x in g.worlds:
                for lab in labels_of(g, x):
                    crit = critical_cone(g, x, lab)
                    assert crit <= m_cone(g, x, lab) <= generalized_cone(g, x, lab)
                    checked += bool(crit)
    assert checked >= 50


def test_close_frame_rejects_a_cyclic_r():
    two_cycle = VeltmanFrame.make(["a", "b"], [("a", "b"), ("b", "a")])
    for logic in (IL, ILM):
        with pytest.raises(ValueError, match="R has a cycle: a -> b -> a"):
            close_frame(two_cycle, logic)
    # an acyclic R whose ILM closure is cyclic: b S_a c and c R b give b R b
    f = VeltmanFrame.make(["a", "b", "c"], [("a", "b"), ("a", "c"), ("c", "b")], [("a", "b", "c")])
    with pytest.raises(ValueError, match="R has a cycle: b -> b"):
        close_frame(f, ILM)
    assert ("b", "b") not in close_frame(f, IL).R


def test_close_frame_rejects_worlds_outside_the_frame():
    edge = VeltmanFrame.make(["a"], [("a", "b")])
    triple = VeltmanFrame.make(["a", "b"], [("a", "b")], [("a", "b", "c")])
    for logic in (IL, ILM):
        with pytest.raises(ValueError, match=r"R edge \('a', 'b'\) names a world outside"):
            close_frame(edge, logic)
        with pytest.raises(ValueError, match=r"S triple \('a', 'b', 'c'\) names a world outside"):
            close_frame(triple, logic)


def test_close_frame_names_the_first_outside_world_in_sorted_order():
    R = [("b", "x"), ("a", "z"), ("a", "y"), ("a", "b")]
    with pytest.raises(ValueError, match=r"^R edge \('a', 'y'\) names a world outside worlds$"):
        close_frame(VeltmanFrame.make(["a", "b"], R), IL)
    S = [("a", "b", "y"), ("a", "b", "b"), ("a", "x", "b")]
    with pytest.raises(ValueError, match=r"^S triple \('a', 'b', 'y'\) names a world outside worlds$"):
        close_frame(VeltmanFrame.make(["a", "b"], [("a", "b")], S), ILM)


def test_close_frame_names_the_input_cycle_before_the_closed_one():
    # the closed R has loops at a, b and c, but the input's cycle is the witness
    f = VeltmanFrame.make(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    for logic in (IL, ILM):
        with pytest.raises(ValueError, match=r"^R has a cycle: a -> b -> c -> a$"):
            close_frame(f, logic)


def _close_frame_error(frame, logic):
    """close_frame's error message, by searching the input and the closed R
    for a cycle on every frame, or None when it closes."""
    for name, rel in (("R edge", frame.R), ("S triple", frame.S)):
        for e in sorted(rel):
            if not frame.worlds.issuperset(e):
                return f"{name} {e} names a world outside worlds"
    closed = close(LabeledFrame(AdequateSet(()), logic, sorted(frame.worlds), frame.R, frame.S))
    cycle = find_cycle(frame.worlds, frame.R) or find_cycle(frame.worlds, closed.R)
    return "R has a cycle: " + " -> ".join(cycle) if cycle else None


def test_close_frame_errors_match_a_search_on_every_frame():
    rng = random.Random(73)
    seen = {"input cycle": 0, "closure cycle": 0, "outside": 0, "closed": 0}
    for _ in range(300):
        worlds = [f"w{i}" for i in range(rng.randrange(1, 5))]
        names = worlds + ["x"] * (rng.random() < 0.1)
        R = {(a, b) for a in names for b in names if a < b and rng.random() < 0.4}
        R |= {(a, b) for a in names for b in names if a > b and rng.random() < 0.1}
        S = {(a, b, c) for a, b in sorted(R) for a2, c in sorted(R) if a2 == a and rng.random() < 0.5}
        frame = VeltmanFrame.make(worlds, R, S)
        for logic in (IL, ILM):
            want = _close_frame_error(frame, logic)
            if want is None:
                assert validate(close_frame(frame, logic), logic).ok
                seen["closed"] += 1
                continue
            with pytest.raises(ValueError) as err:
                close_frame(frame, logic)
            assert str(err.value) == want
            if "outside" in want:
                seen["outside"] += 1
            else:
                seen["input cycle" if find_cycle(frame.worlds, frame.R) else "closure cycle"] += 1
    assert min(seen.values()) >= 10, seen


def _random_closable_frame(rng, n):
    """n worlds in a shuffled order of names, forward R edges (so acyclic)
    and sometimes a loop, forward S triples over each node's R-successors
    and a few anywhere (so S triples outside R, and ILM closures with
    cycles)."""
    worlds = rng.sample([f"w{i}" for i in range(n)], n)
    p = rng.choice((0.1, 0.25, 0.4))
    R = {(a, b) for i, a in enumerate(worlds) for b in worlds[i + 1 :] if rng.random() < p}
    if rng.random() < 0.15:
        a = rng.choice(worlds)
        R.add((a, a))
    succ, pos = image(R), {w: i for i, w in enumerate(worlds)}
    S = {(x, y, z) for x in sorted(succ) for y in sorted(succ[x]) for z in sorted(succ[x]) if pos[y] <= pos[z]}
    S = {t for t in sorted(S) if rng.random() < 0.2}
    S |= {tuple(rng.choice(worlds) for _ in range(3)) for _ in range(rng.choice((0, 0, 1, 2)))}
    return VeltmanFrame.make(worlds, R, S)


@pytest.mark.parametrize("logic", [GL, IL, ILM])
def test_close_frame_equals_the_labeled_path(logic):
    # the rows close_frame closes are a copy: the input frame's cached rows
    # are left as they were, and the frame returned is the labeled path's,
    # its index and rows too
    rng = random.Random(390 + LOGICS.index(logic))
    seen = {"closed": 0, "cycle": 0, "s outside R": 0, "wide": 0}
    for _ in range(150):
        frame = _random_closable_frame(rng, rng.randint(1, 24))
        before = [list(frame.rows[0]), [list(Sx) for Sx in frame.rows[1]]]
        ref = close(LabeledFrame(AdequateSet(()), logic, sorted(frame.worlds), frame.R, frame.S)).to_frame()
        if any(x == y for x, y in ref.R):
            with pytest.raises(ValueError, match="^R has a cycle: "):
                close_frame(frame, logic)
            seen["cycle"] += 1
        else:
            out = close_frame(frame, logic)
            assert out == ref and type(out.R) is type(out.S) is frozenset, frame
            assert "rows" in out.__dict__ and (out.index, out.rows) == (ref.index, ref.rows), frame
            seen["closed"] += 1
            seen["wide"] += len(frame.worlds) > 16
        assert [frame.rows[0], frame.rows[1]] == before, frame
        seen["s outside R"] += any((x, y) not in frame.R or (x, z) not in frame.R for x, y, z in frame.S)
    assert min(seen.values()) >= 20, seen


def test_close_frame_closes_the_rows_once_without_close(monkeypatch):
    # one kernel run per frame, and no labeled frame's `close`
    calls = []
    real = construction.close_rows
    monkeypatch.setattr(construction, "close_rows", lambda *a: calls.append("close_rows") or real(*a))
    monkeypatch.setattr(construction, "close", lambda *a: calls.append("close"))
    rng = random.Random(393)
    for i in range(40):
        frame = _random_closable_frame(rng, rng.randint(1, 8))
        try:
            close_frame(frame, (IL, ILM)[i % 2])
        except ValueError:
            pass
        assert calls == ["close_rows"], frame
        calls.clear()


def test_truth_lemma_reads_the_worlds_in_sorted_order():
    # the lemma fails at m1 (on q) and at x6 (on p): each label logs the
    # reads of a walk in sorted order that stops at the first mismatch,
    # whatever order the frame's frozenset of worlds iterates in
    r = Atom("r")
    D = adequate_closure([Implies(p, Implies(q, r))])
    t = next(solve_theories(D, IL, [(p, False), (q, False), (r, False)]))
    worlds = ["k0", "b3", "m1", "z9", "a2", "c7", "q4", "e5", "x6", "g8"]
    val = {w: frozenset() for w in worlds} | {"m1": frozenset({"q"}), "x6": frozenset({"p"})}
    model = VeltmanModel(VeltmanFrame.make(worlds), val)
    nu = {w: LoggedTheory(t) for w in worlds}
    assert not verify_truth_lemma(model, nu, D)
    want = {w: LoggedTheory(t) for w in worlds}
    got = model.extensions(D.modal_atoms)
    for w in sorted(worlds):
        i = model.frame.index[w]
        if not all((got[a] >> i & 1) == want[w].models(a) for a in D.modal_atoms):
            break
    assert {w: list(nu[w].reads.items()) for w in worlds} == {w: list(want[w].reads.items()) for w in worlds}
    assert [w for w in sorted(worlds) if nu[w].reads] == ["a2", "b3", "c7", "e5", "g8", "k0", "m1"]


def test_m_cone_equals_critical_cone_on_full_ilm_frames():
    # once a labeled frame satisfies the full ILM frame conditions the
    # M-cone collapses onto the critical cone
    import random as _random

    rng = _random.Random(17)
    D = adequate_closure([parse("[]p -> []q")])
    checked = 0
    while checked < 25:
        f = _random_quasi_ilm_frame(rng, D, rng.randrange(2, 6))
        if quasi_frame_violations(f):
            continue
        g = close(f)
        if not validate(g.to_frame(), ILM).ok:
            continue
        checked += 1
        for x in g.worlds:
            for lab in labels_of(g, x):
                assert m_cone(g, x, lab) == critical_cone(g, x, lab)
    assert checked == 25


def test_m_cone_is_critical_cone_on_settled_ilm_frames(monkeypatch):
    # the search reads only the critical cone under ILM too: on every
    # frame a seeded ILM search settles, each labeled M-cone is the
    # critical cone (IL frames are not closed under ilm_condition, so the
    # argument covers ILM frames only)
    real = construction._finish
    seen = {"cones": 0, "s_paths": 0}

    def checked(F, since=None):
        done = real(F, since)
        if done is not None:
            for x in done.worlds:
                for lab in labels_of(done, x):
                    crit = critical_cone(done, x, lab)
                    assert m_cone(done, x, lab) == crit
                    seen["cones"] += 1
                    # an S step out of the cone, where the M-cone's extra
                    # step starts
                    seen["s_paths"] += any(b in crit and b != c for _, b, c in done.S)
        return done

    monkeypatch.setattr(construction, "_finish", checked)
    rng = random.Random(4)
    budget = Budget(max_worlds=8, max_steps=150, max_backtracks=200)
    for _ in range(30):
        a, b = random_formula(rng), random_formula(rng)
        rhs = Implies(Diamond(a), Diamond(b)) if rng.random() < 0.5 else Implies(a, Or(b, Diamond(b)))
        for f in (And(Rhd(a, b), Neg(rhs)), Neg(Rhd(a, b))):
            satisfiable(ILM, f, budget, observer=lambda *event: None)
    assert seen["cones"] >= 500 and seen["s_paths"] >= 200, seen


def test_m_cone_differs_on_an_unclosed_ilm_frame():
    # y is in the q-cone of a, y S_b z and z R u, but not yet y R u: the
    # M-cone takes the S-path then the R step to u, the critical cone does
    # not. Closing adds y R u (ilm_condition), and the cones agree again.
    D = small_D()
    g = pick(D, incl=[Neg(Rhd(p, q))])
    t = pick(D, incl=[p, Neg(q)])
    f = frame_with(
        D,
        ILM,
        ["a", "b", "y", "z", "u"],
        {("a", "y"), ("b", "y"), ("b", "z"), ("z", "u")},
        {("b", "y", "z")},
        {w: t for w in "byzu"} | {"a": g},
        labels={("a", "y"): q},
    )
    assert critical_cone(f, "a", q) == {"y"}
    assert m_cone(f, "a", q) == {"y", "u"}
    closed = close(f)
    assert m_cone(closed, "a", q) == critical_cone(closed, "a", q) == {"y", "u"}


def test_cone_overlap_alone_rejects_an_il_frame():
    # x labels its edges to y and z with p and q; y S_w z joins the two
    # generalized cones at z, while each critical cone holds one world
    # that meets its criticality. The overlap is the only violation.
    D = adequate_closure([Box(p), Box(q)])
    root = pick(D, IL, excl=[Box(p), Box(q)])
    ty = pick(D, IL, incl=[Neg(p), Box(q)])
    tz = pick(D, IL, incl=[Neg(q), Box(p)])
    f = frame_with(
        D,
        IL,
        ["w", "x", "y", "z"],
        {("x", "y"), ("x", "z"), ("w", "y"), ("w", "z")},
        {("w", "y", "z")},
        {"w": root, "x": root, "y": ty, "z": tz},
        labels={("x", "y"): p, ("x", "z"): q},
    )
    g = close(f)
    assert critical_cone(g, "x", p) == {"y"} and critical_cone(g, "x", q) == {"z"}
    assert quasi_frame_violations(g) == ["generalized cones overlap at x: p / q"]


def test_an_edited_copy_of_a_closed_frame_reads_a_fresh_index():
    # close leaves its index on the frame it returns, so a caller edits a
    # copy; the copy's queries see the edit. Here y R z puts z in both
    # labeled cones of x.
    D = adequate_closure([Box(p), Box(q)])
    root = pick(D, IL, excl=[Box(p), Box(q)])
    ty = pick(D, IL, incl=[Neg(p), Box(q)])
    tz = pick(D, IL, incl=[Neg(q), Box(p)])
    f = frame_with(
        D,
        IL,
        ["x", "y", "z"],
        {("x", "y"), ("x", "z")},
        (),
        {"x": root, "y": ty, "z": tz},
        labels={("x", "y"): p, ("x", "z"): q},
    )
    g = close(f)
    assert critical_cone(g, "x", p) == {"y"} and quasi_frame_violations(g) == []
    assert g._cones  # the check filled g's cone table and left it on g
    h = g.copy()
    h.link("y", "z")
    fresh = frame_with(D, IL, h.worlds, h.R, h.S, h.nu, h.edge_label)
    assert critical_cone(h, "x", p) == critical_cone(fresh, "x", p) == {"y", "z"}
    got = quasi_frame_violations(h)
    assert got == quasi_frame_violations(fresh)
    assert "generalized cones overlap at x: p / q" in got


def test_an_edited_copy_leaves_its_parent_as_it_was():
    # the rows are a frame's only store of R and S, so a copy takes its own
    # rows, each S row too: a world, a labeled edge with a triple and an
    # obligation added to the copy leave the parent's rows, relations and
    # cone table as they were. The relations are read-only views
    D = small_D()
    t = pick(D)
    f = frame_with(D, ILM, ["a", "b", "c"], {("a", "b"), ("a", "c")}, {("a", "b", "c")}, dict.fromkeys("abc", t), {("a", "b"): q})
    parent = close(f)
    assert critical_cone(parent, "a", q) == {"b", "c"} and _cones(parent)
    rows, R, S, cones = copy.deepcopy(parent._rows), parent.R, parent.S, copy.deepcopy(parent._cones)
    table = parent._cones
    child = parent.copy()
    assert vars(child).keys() == vars(f).keys()  # copy lists every field __init__ sets
    w = child.add_world(t)
    child.link("b", w, p, y="c")
    child.link("a", "b", y="c")  # a R b is there already; c S_a b is new
    child.obligations["a"] = frozenset({p})
    assert (child.R - R, child.S - S) == ({("b", w)}, {("b", "c", w), ("a", "c", "b")})
    assert child.edge_label[("b", w)] == p and ("b", w) not in parent.edge_label
    assert parent._rows == rows and (parent.R, parent.S) == (R, S)
    assert parent._cones is table and table == cones
    assert parent.worlds == ["a", "b", "c"] and parent.obligations["a"] == frozenset()
    with pytest.raises(AttributeError):
        parent.R = set()
    with pytest.raises(AttributeError):
        parent.R.add(("c", "a"))
    with pytest.raises(AttributeError):
        parent.S.add(("a", "c", "b"))
    assert parent._rows == rows


def test_cone_functions_read_the_frame_as_it_is_now():
    # critical_cone and generalized_cone leave no cone table on the frame
    # they are given, so a caller that edits it in place between two calls
    # reads the edit, on a closed frame too, whose rows the edits change in
    # place
    D = adequate_closure([Box(p)])
    t = pick(D, IL)
    f = frame_with(D, IL, ["x", "y", "z", "u"], {("x", "y"), ("x", "z"), ("x", "u")}, (), dict.fromkeys("xyzu", t), {("x", "y"): p})
    assert critical_cone(f, "x", p) == generalized_cone(f, "x", p) == {"y"}
    assert f._cones is None
    g = close(f)
    rows = g._rows
    assert critical_cone(g, "x", p) == {"y"}
    g.link("y", "z")
    assert critical_cone(g, "x", p) == generalized_cone(g, "x", p) == {"y", "z"}
    g.link("u", "u", y="z")  # z S_u u (and u R u): a step of another index than x
    assert critical_cone(g, "x", p) == {"y", "z"} and generalized_cone(g, "x", p) == {"y", "z", "u"}
    assert g._rows is rows and g._cones is None


def _search_frames(logic, rng, count):
    """The settled frames of seeded searches, each with the rows close
    left on it."""
    frames = []
    budget = Budget(max_worlds=6, max_steps=60, max_backtracks=60)
    for _ in range(200):
        a, b = random_formula(rng), random_formula(rng)
        f = rng.choice((Neg(Rhd(a, b)), And(Rhd(a, b), Neg(Rhd(b, Diamond(a))))))
        satisfiable(logic, f, budget, lambda ev, item, got: ev in ("root", "eliminated") and frames.append(got))
        if len(frames) >= count:
            return frames[:count]
    raise AssertionError(f"{len(frames)} settled frames")


@pytest.mark.parametrize("logic", [IL, ILM])
def test_row_queries_match_the_set_reference(logic):
    # what construction reads off a frame's rows (successors, predecessors
    # through effective_obligations, S exits of one index and of any,
    # labels, cones, criticality labels, open items) against set-based
    # maps and reach, on unclosed frames with R loops, names outside the
    # worlds, S triples outside R and random labels, and on the settled
    # frames of searches. A frame whose rows name a node outside its
    # worlds numbers a world it adds after that node, and its copy, given
    # a world and a link to it, must still read the same as the sets.
    # A name no frame holds gets an empty cone, the label bot and only its
    # own obligations
    from ilkit.construction import _is_open, criticality_label

    rng, edits = random.Random(17 + (logic == ILM)), random.Random(40)
    D = small_D()
    t = pick(D)
    theories = list(solve_theories(D, logic))
    unclosed = []
    for _ in range(80):
        fr = random_unclosed_frame(rng, rng.randint(1, 6))
        edges = sorted(fr.R)
        labels = {e: rng.choice((p, q, Neg(p))) for e in rng.sample(edges, min(len(edges), rng.randint(0, 4)))}
        unclosed.append(frame_with(D, logic, sorted(fr.worlds), fr.R, fr.S, dict.fromkeys(fr.worlds, t), labels))
    seen = {"outside": 0, "s outside R": 0, "labeled": 0, "labeled search frame": 0, "crit < gen": 0}
    seen |= {"edited": 0, "open": 0, "witnessed": 0}

    def check(F):
        ref = reference_relations(F)
        n, R, S = F._rows
        assert set(n) == set(F.worlds).union(*F.R, *F.S)
        for a in n:
            i = n.index(a)
            assert _worlds(F, R[i], *S[i]) == (ref.succ.get(a, set()), *(ref.s_at.get((a, y), set()) for y in n))
            s_any = 0
            for Sx in S:
                s_any |= Sx[i]
            assert _worlds(F, s_any) == (ref.s_any.get(a, set()),)
            own = F.obligations.get(a, frozenset())
            assert F.effective_obligations(a) == own.union(*(F.obligations.get(b, ()) for b in ref.pred.get(a, ())))
        for x in {x for x, _ in F.edge_label}:
            assert list(_cones(F)[x]) == labels_of(F, x)
            for lab in labels_of(F, x):
                gen, crit = reference_cones(F, x, lab)
                assert _worlds(F, *_cones(F)[x][lab]) == (gen, crit)
                assert (generalized_cone(F, x, lab), critical_cone(F, x, lab)) == (gen, crit)
                seen["crit < gen"] += crit < gen
            for y in n:
                want = next((lab for lab in labels_of(F, x) if y in reference_cones(F, x, lab)[1]), BOT)
                assert criticality_label(F, x, y) == want
        items = [Problem(w, Neg(a)) for w in F.worlds for a in F.adequate.existential_atoms]
        items += [Deficiency(x, y, rho) for x, y in sorted(F.R) if x in F.nu and y in F.nu for rho in F.adequate.rhd_atoms]
        for item in items:
            got = _is_open(F, item)
            assert got == _reference_open(F, item), item
            seen["open" if got else "witnessed"] += 1

    searched = _search_frames(logic, rng, 60)
    for F in unclosed + searched:
        for w in F.worlds:
            F.obligations[w] = F.obligations[w] | {Atom(f"o_{w}")}
        F.obligations["nowhere"] = frozenset({Atom("o_nowhere")})
        n = F._rows[0]
        assert n[: len(F.worlds)] == F.worlds and n[len(F.worlds) :] == sorted(set(n) - set(F.worlds))
        check(F)
        if len(n) > len(F.worlds):
            G = F.copy()
            w = G.add_world(edits.choice(theories))
            G.link(edits.choice(F.worlds), w, edits.choice((None, p, q)), edits.choice(n))
            assert G._rows[0] == [*n, w]
            check(G)
            seen["edited"] += 1
        seen["outside"] += len(n) > len(F.worlds)
        seen["s outside R"] += any((x, y) not in F.R or (x, z) not in F.R for x, y, z in F.S)
        seen["labeled"] += bool(F.edge_label)
        seen["labeled search frame"] += bool(F.edge_label) and F in searched
        assert critical_cone(F, "nowhere", p) == generalized_cone(F, "nowhere", p) == set()
        assert "nowhere" not in _cones(F)
        assert criticality_label(F, "nowhere", F.worlds[0]) == criticality_label(F, F.worlds[0], "nowhere") == BOT
        assert F.effective_obligations("nowhere") == {Atom("o_nowhere")}
    assert min(seen.values()) >= 10, seen


def _reference_open(F, item):
    """`_is_open` on the set-based maps: no world among the item's possible
    witnesses (the S_x exits of a deficiency, the B-critical cone of
    ~(A |> B), the successors of ~[]E) has what a witness needs."""
    rel = reference_relations(F)
    if isinstance(item, Deficiency):
        near, want = rel.s_at.get((item.x, item.y), ()), item.formula.right
    elif isinstance(item.formula.left, Rhd):
        near, want = reference_cones(F, item.world, item.formula.left.right)[1], item.formula.left.left
    else:
        near, want = rel.succ.get(item.world, ()), Neg(item.formula.left.body)
    return not any(F.nu[z].models(want) for z in near if z in F.worlds)


def test_mcone_invariance_across_ilm_condition_step():
    D = small_D()
    g = pick(D, incl=[Neg(Rhd(p, q))])
    t = pick(D, incl=[p, Neg(q)])
    f = frame_with(
        D,
        ILM,
        ["a", "b", "c", "d"],
        {("a", "b"), ("a", "c"), ("c", "d"), ("a", "d")},
        {("a", "b", "c")},
        {"a": g, "b": t, "c": t, "d": t},
        labels={("a", "b"): q},
    )
    saw_ilm_condition = False
    prev = f
    for imp, step in close_trace(f, ILM):
        if imp.condition == "ilm_condition":
            saw_ilm_condition = True
        assert check_mcone_invariance(prev, step), imp
        prev = step
    assert saw_ilm_condition


def test_criticality_label_recovery():
    from ilkit.construction import criticality_label

    D = small_D()
    g = pick(D, incl=[Neg(Rhd(p, q))])
    t = pick(D, incl=[p, Neg(q)])
    f = frame_with(
        D,
        ILM,
        ["a", "b", "c"],
        {("a", "b"), ("a", "c")},
        {("a", "b", "b"), ("a", "c", "c")},
        {"a": g, "b": t, "c": t},
        labels={("a", "b"): q},
    )
    assert criticality_label(f, "a", "b") == q
    assert criticality_label(f, "a", "c") == BOT


def _worlds(F, *masks):
    """Each mask over F's rows as the names it holds."""
    n = F._rows[0]
    return tuple({n[i] for i in bits(m)} for m in masks)


def _labeled(F):
    """The (x, label) pairs of F's labeled edges."""
    return {(x, lab) for (x, _), lab in F.edge_label.items()}


def _table(F):
    """The (x, label) pairs F's cone table holds."""
    return {(x, lab) for x, at in (F._cones or {}).items() for lab in at}


@pytest.mark.parametrize("logic", [IL, ILM])
def test_step_settling_matches_whole_frame(monkeypatch, logic):
    # every search step settles its child against the parent; settling the
    # same child from scratch must close it to the same R, S and
    # obligations, reject it exactly when the step path does, leave the
    # same cone table and give the same worklist in the same order
    real = construction._finish
    seen = {"steps": 0, "rejected": 0}

    def checked(F, since=None):
        assert since is not None, "a search step must pass its parent"
        step, whole = close(F, since=since), close(F)
        assert (step.R, step.S, step.obligations) == (whole.R, whole.S, whole.obligations)
        # the step's rows start from since's and end as the whole frame's
        assert since._rows is not None and step._rows == whole._rows
        left = step._rows
        # the parent's table holds every labeled cone, which the checks
        # read as the old cones; the step's own table is not built yet
        assert _table(since) == _labeled(since)
        assert step._cones is None
        if logic == ILM:
            # close pushes obligations along S, so no check of them is needed
            for g in (step, whole):
                assert all(g.obligations[y] <= g.obligations[z] for _, y, z in g.S)
        bad = bool(quasi_frame_violations(step, since=since))
        assert bad == bool(quasi_frame_violations(whole))
        # entry by entry, the step's table is the one settled from scratch
        # (their rows are equal, so the masks are too) and the set-based one
        assert step._cones == whole._cones
        assert _table(whole) == _labeled(whole)
        for x, at in whole._cones.items():
            assert list(at) == labels_of(whole, x)
            for lab, cones in at.items():
                assert _worlds(whole, *cones) == (generalized_cone(whole, x, lab), critical_cone(whole, x, lab))
                assert _worlds(whole, *cones) == reference_cones(whole, x, lab)
        if not bad:
            refresh_worklist(step, since=since)
            refresh_worklist(whole)
            assert step.worklist == whole.worklist
        assert step._rows is left, "the checks must read the rows close kept"
        # the plain frame's rows, handed on or built, are a fresh frame's
        frame = step.to_frame()
        fresh = VeltmanFrame.make(*frame)
        assert (frame.index, frame.rows) == (fresh.index, fresh.rows)
        seen["steps"] += 1
        seen["rejected"] += bad
        return real(F, since)

    monkeypatch.setattr(construction, "_finish", checked)
    rng = random.Random(4)
    budget = Budget(max_worlds=8, max_steps=150, max_backtracks=200)
    # 60 query pairs: the search skips the candidates its nogoods cover, so
    # 30 pairs no longer reach the step floor under ILM
    for _ in range(60):
        # the refutation queries of admissible rules iii and iv, and a
        # false rhd: searches with deficiencies, labels and backtracking
        a, b = random_formula(rng), random_formula(rng)
        rhs = Implies(Diamond(a), Diamond(b)) if rng.random() < 0.5 else Implies(a, Or(b, Diamond(b)))
        for f in (And(Rhd(a, b), Neg(rhs)), Neg(Rhd(a, b))):
            # an observer bypasses the query cache, so every query searches
            satisfiable(logic, f, budget, observer=lambda *event: None)
    assert seen["steps"] >= 500
    assert seen["rejected"] >= 10, seen


@pytest.mark.parametrize("logic", [IL, ILM])
def test_fresh_candidates_meet_their_item(monkeypatch, logic):
    # every candidate list a search asks for: each theory is a B-critical
    # successor of x's theory that meets x's successor constraints and the
    # item (A for ~(A |> B), ~E and []E for ~[]E, D for a deficiency of
    # C |> D, with y's boxes under ILM), and the list is in
    # search_preference order
    import ilkit.decide as decide

    real = construction.fresh_candidate_theories
    seen = {"rhd": 0, "box": 0, "deficiency": 0}

    def checked(F, item):
        got = real(F, item)
        if isinstance(item, Problem):
            x, body = item.world, item.formula.left
            if isinstance(body, Rhd):
                kind, B, meets = "rhd", body.right, [(body.left, True)]
            else:
                kind, B, meets = "box", BOT, [(body.body, False), (body, True)]
        else:
            x, kind = item.x, "deficiency"
            B = construction.criticality_label(F, item.x, item.y)
            meets = [(item.formula.right, True)]
        meets += construction._successor_constraints(F, x)
        index, mask = got
        ts = list(index.preferred(mask))
        for t in ts:
            assert crit_succ(F.nu[x], B, t)
            assert all(t.models(f) == v for f, v in meets)
            if kind == "deficiency" and F.logic == ILM:
                assert box_incl(F.nu[item.y], t)
        assert ts == sorted(ts, key=search_preference)
        seen[kind] += bool(ts)
        return got

    monkeypatch.setattr(construction, "fresh_candidate_theories", checked)
    monkeypatch.setattr(decide, "fresh_candidate_theories", checked)
    rng = random.Random(6)
    budget = Budget(max_worlds=8, max_steps=100, max_backtracks=100)
    for _ in range(30):
        a, b = random_formula(rng), random_formula(rng)
        rhs = Implies(Diamond(a), Diamond(b)) if rng.random() < 0.5 else Implies(a, Or(b, Diamond(b)))
        for f in (And(Rhd(a, b), Neg(rhs)), Neg(Rhd(a, b)), And(Rhd(a, b), Neg(Box(b)))):
            satisfiable(logic, f, budget, observer=lambda *event: None)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("cache_atoms", [theory._CACHE_ATOMS, 0])
@pytest.mark.parametrize("logic", [IL, ILM])
def test_fresh_candidates_match_the_per_candidate_reference(monkeypatch, logic, cache_atoms):
    # every candidate list a search asks for, from the truth table and
    # from the per-query search: the lookaheads answered once per box
    # class and the walk in preference order give the list the
    # per-candidate reference gives
    import ilkit.decide as decide

    monkeypatch.setattr(theory, "_CACHE_ATOMS", cache_atoms)
    real = construction.fresh_candidate_theories
    seen = {"lists": 0, "deficiency": 0}

    def checked(F, item):
        got = real(F, item)
        ref = reference_fresh_candidates(F, item)
        index, mask = got
        assert list(index.preferred(mask)) == ref
        assert mask.bit_count() == len(ref)
        seen["lists"] += bool(ref)
        seen["deficiency"] += isinstance(item, Deficiency)
        return got

    monkeypatch.setattr(construction, "fresh_candidate_theories", checked)
    monkeypatch.setattr(decide, "fresh_candidate_theories", checked)
    # under ILM a p world with []bot (so []~q) and one with <>q get
    # different answers for the deficiency of p |> r & <>q: the exit
    # carries the world's boxes
    for text in ("(p |> r & <>q) & <>p", "(p |> r & <>q) & <>(p & ~r)"):
        satisfiable(logic, parse(text), observer=lambda *event: None)
    rng = random.Random(7)
    budget = Budget(max_worlds=8, max_steps=100, max_backtracks=100)
    for _ in range(30):
        a, b = random_formula(rng), random_formula(rng)
        rhs = Implies(Diamond(a), Diamond(b)) if rng.random() < 0.5 else Implies(a, Or(b, Diamond(b)))
        for f in (And(Rhd(a, b), Neg(rhs)), Neg(Rhd(a, b)), And(Rhd(a, b), Neg(Box(b)))):
            satisfiable(logic, f, budget, observer=lambda *event: None)
    assert seen["lists"] >= 50 and seen["deficiency"] >= 20, seen


@pytest.mark.parametrize("logic", [IL, ILM])
def test_each_lookahead_is_asked_once_per_class(monkeypatch, logic):
    # within one fresh-candidate call, the box lookahead is asked at most
    # once per box class, and the deficiency lookahead at most once per
    # rhd and, under ILM, box class (under IL it is given no boxes)
    import ilkit.decide as decide

    real = construction.fresh_candidate_theories
    real_box, real_exit = construction._box_lookahead, construction._deficiency_lookahead
    asked = None  # the lookahead keys of the call running
    seen = {"box": 0, "deficiency": 0}

    def checked(F, item):
        nonlocal asked
        asked = {"box": [], "deficiency": []}
        got = real(F, item)
        for kind, keys in asked.items():
            assert len(keys) == len(set(keys)), (kind, keys)
            seen[kind] += len(keys)
        asked = None
        return got

    def box(F, boxes, base):
        asked["box"].append(boxes)
        return real_box(F, boxes, base)

    def exit_ok(rho, boxes, base):
        assert logic == ILM or boxes == ()
        asked["deficiency"].append((rho, boxes))
        return real_exit(rho, boxes, base)

    monkeypatch.setattr(construction, "fresh_candidate_theories", checked)
    monkeypatch.setattr(decide, "fresh_candidate_theories", checked)
    monkeypatch.setattr(construction, "_box_lookahead", box)
    monkeypatch.setattr(construction, "_deficiency_lookahead", exit_ok)
    # the queries of test_fresh_candidates_match_the_per_candidate_reference
    for text in ("(p |> r & <>q) & <>p", "(p |> r & <>q) & <>(p & ~r)"):
        satisfiable(logic, parse(text), observer=lambda *event: None)
    rng = random.Random(7)
    budget = Budget(max_worlds=8, max_steps=100, max_backtracks=100)
    for _ in range(30):
        a, b = random_formula(rng), random_formula(rng)
        rhs = Implies(Diamond(a), Diamond(b)) if rng.random() < 0.5 else Implies(a, Or(b, Diamond(b)))
        for f in (And(Rhd(a, b), Neg(rhs)), Neg(Rhd(a, b)), And(Rhd(a, b), Neg(Box(b)))):
            satisfiable(logic, f, budget, observer=lambda *event: None)
    assert seen["box"] >= 250 and seen["deficiency"] >= 100, seen


@pytest.mark.parametrize("logic", [IL, ILM])
def test_most_constrained_scan_builds_no_candidate(monkeypatch, logic):
    # on a truth table the scan counts each item's candidates without
    # building one, and iterating the chosen item's answer builds exactly
    # its theories, in search_preference order
    from ilkit.decide import _most_constrained

    frames = []
    for text in ("(p |> r & <>q) & <>p", "~(p |> q) & <>(q & []~p)"):
        f = parse(text)
        satisfiable(logic, f, observer=lambda ev, item, F: frames.append(F))
        assert len(adequate_closure([f]).modal_atoms) <= theory._CACHE_ATOMS
    built = []
    real_init = theory.DTheory.__init__

    def init(self, adequate, assignment):
        real_init(self, adequate, assignment)
        built.append(self)

    monkeypatch.setattr(theory.DTheory, "__init__", init)
    scanned = 0
    for F in frames:
        if not isinstance(F, LabeledFrame) or not F.worklist:
            continue
        F.adequate._sat_cache.clear()
        item = _most_constrained(F)
        assert built == []
        if item is not None:
            index, mask = construction.fresh_candidate_theories(F, item)
            got = list(index.preferred(mask))
            assert built == got == sorted(got, key=search_preference)
            built.clear()
            scanned += 1
    assert scanned >= 4, scanned


@pytest.mark.parametrize("logic", [IL, ILM])
def test_eliminate_children_meet_their_item(monkeypatch, logic):
    # every link an elimination in a search tries, and so every child it
    # yields: x is linked to a world w that does not reach x, reused
    # worlds come first, in frame order, and w is a witness of the item:
    # for ~(A |> B) a new B label on the edge x R w to a B-critical A
    # world, for ~[]E a ~E successor, for a deficiency of C |> D along
    # x R y a critical y S_x w with D at w and, under ILM, y's boxes; a
    # fresh w keeps ~A (~D, nothing for ~[]E) at every later world
    import ilkit.decide as decide

    real_eliminate, real_finish = construction.eliminate, construction._finish
    tried = []  # (frame, settled frame or None) per settling of a link
    seen = {(kind, how): 0 for kind in ("rhd", "box", "deficiency") for how in ("reused", "fresh")}

    def finish(F, since=None):
        done = real_finish(F, since)
        tried.append((F, done))
        return done

    def check_link(F, item, g):
        """The world g links to x for item, and whether it is fresh."""
        if isinstance(item, Problem):
            x, body = item.world, item.formula.left
            kind = "rhd" if isinstance(body, Rhd) else "box"
        else:
            x, kind = item.x, "deficiency"
        fresh = len(g.worlds) > len(F.worlds)
        if fresh:
            (w,) = set(g.worlds) - set(F.worlds)
        else:
            new = (g.R - F.R) | (g.S - F.S) | (set(g.edge_label) - set(F.edge_label))
            (w,) = {fact[-1] for fact in new}
            # R is transitive in a settled frame
            assert w != x and (w, x) not in F.R
        gx, t = g.nu[x], g.nu[w]
        assert (x, w) in g.R
        if kind == "rhd":
            A, B = body.left, body.right
            assert (x, w) not in F.edge_label and g.edge_label[(x, w)] == B
            assert t.models(A) and crit_succ(gx, B, t)
        elif kind == "box":
            A = None
            assert t.models(Neg(body.body)) and crit_succ(gx, BOT, t)
        else:
            A, B = item.formula.right, construction.criticality_label(F, x, item.y)
            assert (x, item.y, w) in g.S and t.models(A) and crit_succ(gx, B, t)
            if logic == ILM:
                assert box_incl(g.nu[item.y], t)
        if fresh:
            assert g.obligations[w] == frozenset([single_neg(A)] if A is not None else [])
        return kind, w, fresh

    def checked(F, item, state):
        order = F.order()
        last, fresh_seen = -1, False
        children = real_eliminate(F, item, state)
        while True:
            tried.clear()
            child = next(children, None)
            for g, done in tried:
                kind, w, fresh = check_link(F, item, g)
                if not fresh:
                    assert not fresh_seen, "a reused world after a fresh one"
                    assert order[w] > last, "reused worlds out of frame order"
                    last = order[w]
                fresh_seen = fresh
                if done is not None:
                    assert done is child
                    seen[kind, "fresh" if fresh else "reused"] += 1
            if child is None:
                return
            assert tried and tried[-1][1] is child
            yield child

    monkeypatch.setattr(construction, "_finish", finish)
    monkeypatch.setattr(decide, "eliminate", checked)
    rng = random.Random(6)
    budget = Budget(max_worlds=8, max_steps=100, max_backtracks=100)
    for _ in range(100):
        # besides the queries above, ones with worlds to reuse: an A world
        # and a B world for an A |> B deficiency, and a second ~(A |> B)
        a, b = random_formula(rng), random_formula(rng)
        rhs = Implies(Diamond(a), Diamond(b)) if rng.random() < 0.5 else Implies(a, Or(b, Diamond(b)))
        for f in (
            And(Rhd(a, b), Neg(rhs)),
            Neg(Rhd(a, b)),
            And(Rhd(a, b), Diamond(And(a, Diamond(b)))),
            And(Rhd(a, b), And(Diamond(b), Diamond(a))),
            And(Neg(Rhd(a, b)), Diamond(Neg(Rhd(a, b)))),
        ):
            satisfiable(logic, f, budget, observer=lambda *event: None)
    assert min(seen.values()) >= 15, seen


def test_step_check_covers_old_edges_whose_obligations_grew():
    # the child links w (obligation p) below x, so x and y inherit p; x's
    # only extra box is q, y's are p and q: the old edge x R y loses its
    # box growth, though no new edge violates anything
    D = adequate_closure([Box(p), Box(q)])
    tw = pick(D, IL, excl=[Box(p), Box(q)])
    tx = pick(D, IL, incl=[p, Box(q)], excl=[Box(p)])
    ty = pick(D, IL, incl=[p, q, Box(p), Box(q)])
    parent = frame_with(D, IL, ["w", "x", "y"], {("x", "y")}, {("x", "y", "y")}, {"w": tw, "x": tx, "y": ty})
    parent.obligations["w"] = frozenset([p])
    assert close(parent).R == parent.R and quasi_frame_violations(parent) == []
    child = parent.copy()
    child.link("w", "x")
    whole = quasi_frame_violations(close(child))
    assert whole == ["no box growth on edge ('x', 'y')"]
    assert quasi_frame_violations(close(child, since=parent), since=parent) == whole


def test_step_check_covers_a_label_put_on_an_old_edge():
    # x R u is in the parent without a label, and x's p-cone is {y}. The
    # child only labels x R u with p, as eliminate does when it reuses u:
    # no edge or triple is new, yet the p-cone gains u, where p holds, and
    # the step's own cone table, filled by the check, must hold u
    D = adequate_closure([Box(p), Box(q)])
    root = pick(D, IL, excl=[Box(p), Box(q)])
    ty = pick(D, IL, incl=[Neg(p), Box(q)])
    tu = pick(D, IL, incl=[p, Box(q)])
    f = frame_with(D, IL, ["x", "y", "u"], {("x", "y"), ("x", "u")}, (), {"x": root, "y": ty, "u": tu}, {("x", "y"): p})
    parent = close(f)
    assert quasi_frame_violations(parent) == []
    assert _worlds(parent, *parent._cones["x"][p]) == ({"y"}, {"y"})
    child = parent.copy()
    child.edge_label[("x", "u")] = p
    step = close(child, since=parent)
    assert (step.R, step.S) == (parent.R, parent.S)
    whole = quasi_frame_violations(close(child))
    assert whole == ["criticality p fails at u (cone of x)"]
    assert step._cones is None  # the step's table starts empty
    assert quasi_frame_violations(step, since=parent) == whole
    assert _worlds(step, *step._cones["x"][p]) == ({"y", "u"}, {"y", "u"})


def test_rs_composition_cycle_in_a_closed_ilm_frame():
    # b S_w a with a R b: closing adds b R b and a S_w b, and a R b S_w a
    # is a cycle of R;S. The frame is rejected for the cycle of R that the
    # closure's ilm_condition rule makes of it.
    D = adequate_closure([Box(p)])
    t = pick(D, ILM, incl=[Box(p)])
    R = {("w", "a"), ("w", "b"), ("a", "b")}
    f = frame_with(D, ILM, ["w", "a", "b"], R, {("w", "b", "a")}, {"w": t, "a": t, "b": t})
    g = close(f)
    assert close(g).R == g.R
    assert "R has a cycle" in quasi_frame_violations(g)


def test_rs_composition_cycles_come_with_an_r_cycle():
    # on closed ILM frames every cycle of R;S+ is already reported as a
    # cycle of R, which is why no separate composition check runs
    D = adequate_closure([parse("p |> q"), Box(p)])
    theories = list(solve_theories(D, ILM))
    rng = random.Random(23)
    cyclic = 0
    for _ in range(400):
        worlds = [f"u{i}" for i in range(rng.randint(2, 5))]
        # R only forward, so any cycle of R comes from closing, through S
        R = {(a, b) for i, a in enumerate(worlds) for b in worlds[i + 1 :] if rng.random() < 0.4}
        S = {(x, y, z) for x, y in R for z in worlds if rng.random() < 0.2}
        nu = {w: rng.choice(theories) for w in worlds}
        g = close(frame_with(D, ILM, worlds, R, S, nu))
        s_plus = transitive_closure_pairs({(y, z) for _, y, z in g.S})
        comp = {(a, c) for a, b in g.R for b2, c in s_plus if b == b2}
        if any(a == c for a, c in transitive_closure_pairs(comp)):
            cyclic += 1
            assert "R has a cycle" in quasi_frame_violations(g)
    assert cyclic >= 100, cyclic


@pytest.mark.parametrize("logic", [IL, ILM])
def test_seed_frames_have_no_violations(logic):
    # one world, no edge, triple or label: nothing for any check to read,
    # so satisfiable searches from its seeds unchecked
    rng = random.Random(41)
    for _ in range(6):
        f = random_formula(rng)
        D = adequate_closure([f])
        for t in solve_theories(D, logic, [(f, True)]):
            assert quasi_frame_violations(seed_frame(D, logic, t)) == []
