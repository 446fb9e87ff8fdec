import random

import pytest
from conftest import gls_provable, neg_chain, random_formula

from ilkit.decide import (
    Budget,
    Derivable,
    Proof,
    ProofLine,
    Refuted,
    Sat,
    Unknown,
    Unsat,
    axiom_instance,
    check_proof,
    complete_frame,
    countermodel,
    derivable,
    is_tautology,
    parse_proof,
    render_proof,
    satisfiable,
)
from ilkit.construction import LabeledFrame, verify_truth_lemma
from ilkit.semantics import GL, IL, ILM, forces, validate
from ilkit.syntax import (
    And,
    Atom,
    Box,
    Diamond,
    Implies,
    Neg,
    Or,
    Rhd,
    Top,
    adequate_closure,
    parse,
)
from ilkit.theory import solve_theories

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_satisfiable_atom():
    res = satisfiable(ILM, p)
    assert isinstance(res, Sat)
    assert forces(res.model, res.world, p)
    assert validate(res.model.frame, ILM).ok


def test_satisfiable_contradiction():
    assert isinstance(satisfiable(GL, And(p, Neg(p))), Unsat)


def test_satisfiable_negated_loeb():
    assert isinstance(satisfiable(GL, Neg(parse("[]([]p -> p) -> []p"))), Unsat)


def test_derivable_montagna():
    assert isinstance(derivable(ILM, parse("p |> q -> (p & []r) |> (q & []r)")), Derivable)


def test_derivable_l3_gl():
    assert isinstance(derivable(GL, parse("[]([]p -> p) -> []p")), Derivable)


def test_derivable_25_atom_gl_theorem(monkeypatch):
    # [] distributes over a 12-fold conjunction: 25 modal atoms, far above
    # the truth-table cap, so every answer is a mask over the index of one
    # `_solve` call's answers, its keys a list where a table's are a range
    from ilkit import theory

    ps = [f"p{i}" for i in range(12)]
    f = parse(" & ".join(f"[]{a}" for a in ps) + " -> [](" + " & ".join(ps) + ")")
    assert len(adequate_closure([f]).modal_atoms) == 25
    keys = []
    init = theory._TheoryIndex.__init__

    def counting(self, D, *args, **kwargs):
        init(self, D, *args, **kwargs)
        keys.append(self.keys)

    monkeypatch.setattr(theory._TheoryIndex, "__init__", counting)
    # an observer bypasses the query cache, so the search runs
    assert satisfiable(GL, Neg(f), observer=lambda *event: None) == Unsat()
    assert keys and all(isinstance(k, list) for k in keys)
    assert len(keys[0]) == 4096, "the roots"
    assert derivable(GL, f) == Derivable()


def test_refuting_a_wide_conjunction_builds_only_the_roots_it_tries(monkeypatch):
    # ~(p0 & ... & p13) has 2^14 - 1 roots, one per `_solve` answer above
    # the truth-table cap; the first one tried has a model, so the search
    # builds a handful of theories, not one per root
    from ilkit import decide, theory

    monkeypatch.setattr(theory, "_CACHE_ATOMS", 13)
    monkeypatch.setattr(decide, "_sat_cache", {})
    built = []
    init = theory.DTheory.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(theory.DTheory, "__init__", counting)
    v = derivable(ILM, parse(" & ".join(f"p{i}" for i in range(14))))
    assert isinstance(v, Refuted)
    assert 0 < len(built) <= 4, len(built)


def test_refuted_with_chain_certificate():
    v = derivable(GL, parse("p -> []p"))
    assert isinstance(v, Refuted)
    assert forces(v.model, v.world, Neg(parse("p -> []p")))
    assert validate(v.model.frame, IL).ok
    assert len(v.model.frame.worlds) == 2


def test_gl_rejects_rhd():
    with pytest.raises(ValueError):
        derivable(GL, Rhd(p, q))


def test_countermodel():
    m, w = countermodel(GL, parse("p -> []p"))
    assert forces(m, w, p) and not forces(m, w, Box(p))
    m2, w2 = countermodel(ILM, Rhd(p, q))
    assert forces(m2, w2, Neg(Rhd(p, q)))
    with pytest.raises(ValueError):
        countermodel(ILM, parse("top |> top"))


def test_axiom_soundness_sample():
    cases = [
        ("L1", (p, q)),
        ("L2", (p,)),
        ("L3", (Or(p, q),)),
        ("J1", (p, q)),
        ("J2", (p, q, r)),
        ("J3", (p, q, r)),
        ("J4", (Box(p), q)),
        ("J5", (And(p, q),)),
        ("M", (p, q, r)),
    ]
    for name, args in cases:
        inst = axiom_instance(name, *args)
        assert isinstance(derivable(ILM, inst), Derivable), name


def test_il_vs_ilm():
    m_inst = parse("p |> q -> (p & []r) |> (q & []r)")
    assert isinstance(derivable(ILM, m_inst), Derivable)
    v = derivable(IL, m_inst)
    # Montagna's principle is not an IL theorem; IL either refutes it on an
    # IL frame or (with a certificate) never claims derivability
    assert not isinstance(v, Derivable)
    if isinstance(v, Refuted):
        assert validate(v.model.frame, IL).ok
        assert forces(v.model, v.world, Neg(m_inst))


def test_determinism():
    f = parse("<>p & <>~p")
    a = satisfiable(GL, f)
    b = satisfiable(GL, f)
    from ilkit.semantics import model_to_json

    assert isinstance(a, Sat) and isinstance(b, Sat)
    assert model_to_json(a.model) == model_to_json(b.model)
    assert a.world == b.world


def test_conservativity_gl_ilm():
    for s in ["[]p -> [][]p", "p -> []p", "<>top -> ~[]bot", "[](p -> q) -> ([]p -> []q)"]:
        f = parse(s)
        assert derivable(GL, f).kind == derivable(ILM, f).kind


def test_decided_gl_verdicts_agree_with_gls():
    # an independent GL prover: every decided verdict of the search, on
    # seeded rhd-free formulas and on instances of L1-L3, is GLS's. Nothing
    # is asserted about decidedness, so the budget is small.
    rng = random.Random(21)
    fs = [random_formula(rng, 4, allow_rhd=False) for _ in range(300)]
    for _ in range(10):
        a, b = (random_formula(rng, 2, allow_rhd=False) for _ in range(2))
        fs += [axiom_instance("L1", a, b), axiom_instance("L2", a), axiom_instance("L3", a)]
    seen = {"derivable": 0, "refuted": 0, "unknown": 0}
    for f in fs:
        v = derivable(GL, f, Budget(max_steps=500))
        seen[v.kind] += 1
        if v.kind != "unknown":
            assert gls_provable(frozenset(), frozenset([f])) == (v.kind == "derivable"), f
    assert seen["derivable"] >= 30 and seen["refuted"] >= 30, seen


# --- tautology and schema matching -----------------------------------------


def test_is_tautology():
    assert is_tautology(parse("p -> p"))
    assert is_tautology(parse("[]p -> []p"))
    assert is_tautology(parse("p | ~p"))
    assert not is_tautology(p)
    assert not is_tautology(parse("[]p -> p"))
    assert is_tautology(parse("p & q -> q"))


def test_deep_formula_decided_and_certified():
    # forcing, the truth lemma and the theory index all evaluate from explicit
    # stacks, so a library-built 3,000-deep chain is decided and certified
    f = neg_chain(3000)
    res = satisfiable(GL, f)
    assert isinstance(res, Sat) and res.model.val[res.world] == frozenset({"p"})
    assert is_tautology(Implies(f, p))
    assert isinstance(satisfiable(GL, And(f, Neg(p))), Unsat)


def test_schema_match_positive():
    from ilkit.decide import _match_schema

    assert _match_schema("L1", axiom_instance("L1", Box(p), Rhd(p, q)))
    assert _match_schema("L2", axiom_instance("L2", Neg(p)))
    assert _match_schema("L3", axiom_instance("L3", And(p, q)))
    assert _match_schema("J1", axiom_instance("J1", p, Diamond(q)))
    assert _match_schema("J2", axiom_instance("J2", p, q, r))
    assert _match_schema("J3", axiom_instance("J3", p, q, r))
    assert _match_schema("J4", axiom_instance("J4", p, q))
    assert _match_schema("J5", axiom_instance("J5", Box(p)))
    assert _match_schema("M", axiom_instance("M", p, q, r))


def test_schema_match_negative():
    from ilkit.decide import _match_schema

    assert not _match_schema("L2", Implies(Box(p), Box(Box(q))))
    assert not _match_schema("L3", parse("[]([]p -> q) -> []p"))
    assert not _match_schema("M", axiom_instance("J2", p, q, r))


def test_axiom_instance_rejects_bad_calls():
    with pytest.raises(ValueError):
        axiom_instance("K", p, q)
    for name, args in (("L1", (p,)), ("L2", (p, q)), ("J2", (p, q)), ("M", (p, q, r, p))):
        with pytest.raises(ValueError):
            axiom_instance(name, *args)


# --- proof checking ---------------------------------------------------------


def test_check_proof_trivial():
    assert check_proof(Proof((ProofLine(Top(), "Taut"),)), GL)
    assert check_proof(Proof((ProofLine(axiom_instance("J1", p, q), "J1"),)), IL)
    assert not check_proof(Proof((ProofLine(p, "Taut"),)), GL)


def test_check_proof_gates_axioms_by_logic():
    j1 = Proof((ProofLine(axiom_instance("J1", p, q), "J1"),))
    m = Proof((ProofLine(axiom_instance("M", p, q, r), "M"),))
    assert not check_proof(j1, GL)
    assert check_proof(j1, IL)
    assert not check_proof(m, IL)
    assert check_proof(m, ILM)


def test_check_proof_mp_nec():
    pr = Proof(
        (
            ProofLine(parse("p -> p"), "Taut"),
            ProofLine(parse("[](p -> p)"), "Nec", (1,)),
            ProofLine(parse("[](p -> p) -> bot | [](p -> p)"), "Taut"),
            ProofLine(parse("bot | [](p -> p)"), "MP", (3, 2)),
        )
    )
    assert check_proof(pr, GL)


def test_check_proof_bad_premise_index():
    pr = Proof((ProofLine(parse("[]p"), "Nec", (5,)),))
    with pytest.raises(ValueError):
        check_proof(pr, GL)


def _box_persistence_proof():
    """[]E & [](~D | ~[]E) -> []~D with E=p, D=q, built from Taut, Nec, L1,
    L2 and MP glue."""
    E, D = p, q
    X = Or(Neg(D), Neg(Box(E)))  # ~q | ~[]p
    inner = Implies(E, Implies(X, Implies(Box(E), Neg(D))))
    goal = Implies(And(Box(E), Box(X)), Box(Neg(D)))
    l1a = axiom_instance("L1", E, Implies(X, Implies(Box(E), Neg(D))))
    l1b = axiom_instance("L1", X, Implies(Box(E), Neg(D)))
    l1c = axiom_instance("L1", Box(E), Neg(D))
    l2 = axiom_instance("L2", E)
    a4 = Implies(Box(E), Box(Implies(X, Implies(Box(E), Neg(D)))))
    glue = Implies(a4, Implies(l1b, Implies(l1c, Implies(l2, goal))))
    lines = [
        ProofLine(inner, "Taut"),
        ProofLine(Box(inner), "Nec", (1,)),
        ProofLine(l1a, "L1"),
        ProofLine(a4, "MP", (3, 2)),
        ProofLine(l1b, "L1"),
        ProofLine(l1c, "L1"),
        ProofLine(l2, "L2"),
        ProofLine(glue, "Taut"),
        ProofLine(glue.right, "MP", (8, 4)),
        ProofLine(glue.right.right, "MP", (9, 5)),
        ProofLine(glue.right.right.right, "MP", (10, 6)),
        ProofLine(goal, "MP", (11, 7)),
    ]
    return Proof(tuple(lines))


def test_box_persistence_pattern():
    pr = _box_persistence_proof()
    assert check_proof(pr, GL)
    assert isinstance(derivable(GL, pr.conclusion), Derivable)


def test_proof_file_round_trip():
    pr = _box_persistence_proof()
    text = render_proof(pr)
    back = parse_proof(text)
    assert back == pr
    assert check_proof(back, GL)


def test_parse_proof_rejects_garbage():
    with pytest.raises(ValueError):
        parse_proof("1. p -> p Taut")
    with pytest.raises(ValueError):
        parse_proof("2. p -> p ; Taut")


def test_refuted_certificates_verify_truth_lemma():
    from ilkit.syntax import adequate_closure
    from ilkit.theory import DTheory

    f = parse("p |> q")
    v = derivable(ILM, f)
    assert isinstance(v, Refuted)
    # rebuild labels from the model itself and re-check the truth lemma
    D = adequate_closure([Neg(f)])
    nu = {}
    for w in v.model.frame.worlds:
        assign = {a: forces(v.model, w, a) for a in D.modal_atoms}
        nu[w] = DTheory(D, assign)
    assert verify_truth_lemma(v.model, nu, D)


def test_world_reuse_under_tight_budget():
    # four distinct witnesses are needed; with five worlds allowed the
    # engine must reuse worlds as both problem and deficiency targets
    from ilkit.decide import Budget, Sat, satisfiable

    f = parse("~(p |> q) & <>p & <>q & <>(p & q)")
    res = satisfiable(ILM, f, Budget(max_worlds=5, max_steps=2500, max_backtracks=8000))
    assert isinstance(res, Sat)
    assert len(res.model.frame.worlds) <= 5
    assert forces(res.model, res.world, f)
    assert validate(res.model.frame, ILM).ok


@pytest.mark.parametrize(
    "logic, text, budget, report",
    [
        # the rhd lookahead derives this within 40 steps; 30 cut it first
        (IL, "[]((q |> p) |> []bot)", Budget(max_steps=30), ("max_steps", 30, 30)),
        # the backtrack cut fires one step below the root, and the frame
        # above it counts one more backtrack; candidates the search's
        # nogoods cover cost neither a step nor a backtrack
        (
            ILM,
            "~~[]q | (s & s |> (p |> bot))",
            Budget(max_backtracks=40),
            ("max_backtracks", 41, 41),
        ),
        # a countermodel needs three worlds, and two leave room for only
        # one successor of the root
        (GL, "~(<>p & <>~p & <><>q)", Budget(max_worlds=2), ("max_worlds", 8, 8)),
        # the step cut fires two steps below the root: 58 backtracks, then
        # one from each of the two frames above it as the cut unwinds
        (
            IL,
            "[](((r |> (r |> p)) |> ([]q -> r & p) -> ~<>p) | <>(r |> (r |> p)))",
            Budget(max_steps=60),
            ("max_steps", 60, 60),
        ),
    ],
)
def test_budget_cut_reports(logic, text, budget, report):
    limit, steps, backtracks = report
    assert derivable(logic, parse(text), budget) == Unknown(
        (
            ("limit", limit),
            ("steps", steps),
            ("backtracks", backtracks),
            ("max_worlds", budget.max_worlds),
            ("max_steps", budget.max_steps),
            ("max_backtracks", budget.max_backtracks),
        )
    )


def test_queries_leave_the_recursion_limit_alone():
    # no query touches the interpreter's limit, so what the parser accepts
    # does not depend on what ran before it
    import sys

    from ilkit.classify import sigma1_countermodel
    from ilkit.decide import Budget
    from ilkit.syntax import ParseError

    too_deep = "~" * 3000 + "p"
    limit = sys.getrecursionlimit()
    # a budget no other test uses, so the query is searched, not cached
    assert isinstance(derivable(ILM, parse("[]p -> p"), Budget(max_steps=2411)), Refuted)
    assert sys.getrecursionlimit() == limit
    with pytest.raises(ParseError):
        parse(too_deep)
    sigma1_countermodel(parse("p & []q"))
    assert sys.getrecursionlimit() == limit
    with pytest.raises(ParseError):
        parse(too_deep)


def test_queries_leave_no_cyclic_theories():
    # a theory points at its adequate set, whose caches hold the theories:
    # a query must break that cycle when it returns, or every query's
    # theories wait for the cyclic collector
    import gc

    from ilkit.classify import sigma1_countermodel
    from ilkit.syntax import AdequateSet
    from ilkit.theory import DTheory

    queries = [
        (ILM, "(p |> q) & (q |> r) & ~(p |> r)"),
        (IL, "~(p |> q) & <>p & [](q -> r)"),
        (ILM, "(p |> q) -> ((p & []r) |> (q & []r))"),
        (GL, "[]([]p -> p) -> []p"),
        (IL, "(p |> q) & ~(<>p -> <>q)"),
    ]
    gc.collect()
    old = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for logic, text in queries:
            # an observer bypasses the query cache, so every query searches
            satisfiable(logic, parse(text), observer=lambda *event: None)
        for text in ("p & []q", "<>p", "[]p -> q"):
            sigma1_countermodel(parse(text))
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage if isinstance(o, (DTheory, AdequateSet))]
    finally:
        gc.set_debug(old)
        gc.garbage.clear()
    assert leaked == []


@pytest.mark.parametrize("logic, text", [(ILM, "p"), (GL, "[]p -> p")])
def test_failed_certificate_is_an_error(monkeypatch, logic, text):
    # a model the search finds but the forcing check rejects is a fault of
    # the engine: it must not read as Unsat, and so as Derivable, nor be
    # cached
    import ilkit.decide as decide
    from ilkit.decide import CertificationError

    monkeypatch.setattr(decide, "forces", lambda *args: False)
    monkeypatch.setattr(decide, "_sat_cache", {})
    with pytest.raises(CertificationError) as err:
        derivable(logic, parse(text))
    assert not isinstance(err.value, ValueError)
    assert decide._sat_cache == {}


def _certificate(res):
    from ilkit.semantics import model_to_dict

    return (model_to_dict(res.model), res.world) if isinstance(res, Sat) else res


def test_differential_against_recorded():
    # tests/differential.json holds the verdicts of ~300 seeded queries,
    # each under the default and a cut-prone budget, recorded before the
    # search learned nogoods (tests/differential.py). Every refutation
    # keeps its certificate byte for byte and every Derivable stays; an
    # Unknown may only become decided, and a new Derivable must have no
    # countermodel of at most three worlds.
    import json
    import os
    import sys

    sys.path.insert(0, os.path.dirname(__file__))
    from conftest import small_countermodel, small_frames
    from differential import record

    with open(os.path.join(os.path.dirname(__file__), "differential.json")) as fh:
        rows = json.load(fh)["rows"]
    assert len(rows) == 600
    newly = 0
    for row in rows:
        got = record(row["logic"], row["query"], Budget(*row["budget"]))
        if row["verdict"] != "unknown":
            assert got == row
        elif got["verdict"] != "unknown":
            newly += 1
            if got["verdict"] == "derivable":
                f = parse(row["query"])
                assert small_countermodel(f, small_frames(row["logic"], 3)) is None, row
    # the nogoods decide 11 of these and the rhd lookahead 15 more; a change
    # that decides more moves the count
    assert newly == 26


@pytest.mark.parametrize("logic", [IL, ILM])
def test_memo_hits_need_no_replay(monkeypatch, logic):
    # a memo hit reads no theory, so no log records what the memoised
    # function read. Every log starts with the rhd and box values those
    # memos read, so with both memos emptied before every call the search
    # must take the same steps, skip the same roots and candidates and
    # return the same model
    import ilkit.construction as construction
    import ilkit.decide as decide
    import ilkit.theory as theory

    queries = _seeded_queries()
    with_memos = [_search_events(logic, f) for f in queries]

    real_fresh, real_crit = construction.fresh_candidate_theories, theory.crit_obligations

    def fresh(F, item):
        F.adequate._sat_cache.pop(("__candidates__", F.logic), None)
        return real_fresh(F, item)

    def crit(g, c):
        g.adequate._sat_cache.pop("__crit_obligations__", None)
        return real_crit(g, c)

    for mod, name, fn in (
        (construction, "fresh_candidate_theories", fresh),
        (decide, "fresh_candidate_theories", fresh),
        (construction, "crit_obligations", crit),
        (theory, "crit_obligations", crit),
    ):
        monkeypatch.setattr(mod, name, fn)
    without = [_search_events(logic, f) for f in queries]
    assert without == with_memos
    assert sum(ev.startswith("skipped") for _, events in with_memos for ev, _, _ in events) >= 20


@pytest.mark.parametrize("logic", [IL, ILM])
def test_step_local_checks_leave_the_search_unchanged(monkeypatch, logic):
    # each step settles its child against the parent, reading the parent's
    # relations and cone table; settling every child from scratch must take
    # the same steps, make the same skips (so keep the same logs) and
    # return the same model
    import ilkit.construction as construction

    queries = _seeded_queries()
    step_local = [_search_events(logic, f) for f in queries]
    real = construction._finish
    monkeypatch.setattr(construction, "_finish", lambda F, since=None: real(F))
    assert [_search_events(logic, f) for f in queries] == step_local
    kinds = {ev for _, events in step_local for ev, _, _ in events}
    assert kinds == {"root", "eliminated", "skipped", "skipped_root", "pruned"}, kinds


def test_nogoods_build_no_theory_for_a_row_passed_over(monkeypatch):
    # the IL J2 chain of test_nogoods_decide_the_il_j2_chain, searched
    # without an observer: the nogood walk builds a row's theory only to
    # try it or to ask the rhd lookahead about it, never for a row a cube
    # or a dropped class passed over. An observer is shown every such row,
    # so with one the walk builds more. Both hold on tables and above the
    # truth-table cap, where every row is one `_solve` answer's key
    import ilkit.construction as construction
    import ilkit.decide as decide
    import ilkit.theory as theory

    f = Neg(parse("(p |> q) & (q |> r) & (r |> s) & (s |> t) -> p |> t"))
    built, needed = [], []
    real_init, real_lookahead, real_logged = (
        theory.DTheory.__init__,
        construction._rhd_lookahead,
        construction.LoggedTheory,
    )

    def build(t, *args):
        built.append(t)
        real_init(t, *args)

    def lookahead(F, item):
        keep = real_lookahead(F, item)
        return lambda t: needed.append(t) or keep(t)

    def logged(t):
        needed.append(t)
        return real_logged(t)

    monkeypatch.setattr(theory.DTheory, "__init__", build)
    monkeypatch.setattr(construction, "_rhd_lookahead", lookahead)
    monkeypatch.setattr(construction, "LoggedTheory", logged)
    for cache_atoms in (theory._CACHE_ATOMS, 0):
        monkeypatch.setattr(theory, "_CACHE_ATOMS", cache_atoms)
        monkeypatch.setattr(decide, "_sat_cache", {})
        built.clear()
        needed.clear()
        assert satisfiable(IL, f) == Unsat()
        assert built and {id(t) for t in built} <= {id(t) for t in needed}
        quiet = len(built)
        built.clear()
        events = []
        assert satisfiable(IL, f, observer=lambda ev, item, t: events.append(ev)) == Unsat()
        assert events.count("skipped_root") and events.count("pruned")
        assert len(built) > quiet


def _per_row_nogoods(index, mask, state, item=None, keep=None):
    """The nogood walk one row at a time, as a reference: every theory of
    the mask's rows is built in preference order, asked keep, and tested
    against each kept cube one read at a time."""
    from ilkit.theory import LoggedTheory

    skipped = "skipped_root" if item is None else "skipped"
    cubes = []
    for t in index.preferred(mask):
        if keep is not None and not keep(t):
            if state.observer is not None:
                state.observer("pruned", item, t)
        elif any(all(t.models(f) == v for f, v in cube) for cube in cubes):
            if state.observer is not None:
                state.observer(skipped, item, t)
        else:
            t, cuts = LoggedTheory(t), state.cuts
            yield t
            if state.cuts == cuts:
                cubes.append(tuple(t.reads.items()))


@pytest.mark.parametrize("logic", [IL, ILM])
def test_mask_nogoods_match_the_per_row_reference(monkeypatch, logic):
    # cubes and rejected lookahead classes dropped as row masks skip,
    # prune and try exactly the rows a per-row walk does: the same
    # seeded searches give the same events and answers
    import ilkit.construction as construction
    import ilkit.decide as decide

    queries = _seeded_queries() + [Neg(parse("[]((q |> p) |> []bot)"))]
    masks = [_search_events(logic, f) for f in queries]
    monkeypatch.setattr(construction, "nogoods", _per_row_nogoods)
    monkeypatch.setattr(decide, "nogoods", _per_row_nogoods)
    assert [_search_events(logic, f) for f in queries] == masks
    kinds = {ev for _, events in masks for ev, _, _ in events}
    assert {"skipped", "skipped_root", "pruned"} <= kinds


@pytest.mark.parametrize("logic", [IL, ILM])
def test_every_row_passed_over_is_covered(monkeypatch, logic):
    # each row a nogood walk reports as skipped agrees with every read of
    # a theory the same walk tried before, and each row it reports as
    # pruned is one the walk's lookahead rejects: a class or cube mask
    # that took out more rows would show a skip no cube covers
    import ilkit.construction as construction
    import ilkit.decide as decide

    real = construction.nogoods
    seen = {"skipped": 0, "pruned": 0}

    def checked(index, mask, state, item=None, keep=None):
        tried = []

        def observer(ev, it, t):
            if ev == "pruned":
                assert not keep(t)
            else:
                assert any(all(t.models(f) == v for f, v in u.reads.items()) for u in tried), (ev, t)
            seen["pruned" if ev == "pruned" else "skipped"] += 1
            state.observer(ev, it, t)

        class Watched:
            cuts = property(lambda self: state.cuts)

        watched = Watched()
        watched.observer = observer
        for t in real(index, mask, watched, item, keep):
            tried.append(t)
            yield t

    monkeypatch.setattr(construction, "nogoods", checked)
    monkeypatch.setattr(decide, "nogoods", checked)
    # and the refutation of the first query of test_budget_cut_reports
    for f in _seeded_queries() + [Neg(parse("[]((q |> p) |> []bot)"))]:
        _search_events(logic, f)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("logic", [GL, IL, ILM])
def test_an_observer_leaves_verdicts_and_certificates_unchanged(monkeypatch, logic):
    # with an observer the nogood walk builds and reports every row it
    # passes over, without one it only tests the row's bit: the same
    # seeded searches reach the same verdict and certificate either way
    import json

    import ilkit.decide as decide
    from ilkit.semantics import model_to_dict

    def certificate(res):
        if isinstance(res, Sat):
            return json.dumps({"model": model_to_dict(res.model), "world": res.world}, sort_keys=True)
        return repr(res)

    monkeypatch.setattr(decide, "_sat_cache", {})
    rng = random.Random(41)
    if logic == GL:
        queries = [Neg(random_formula(rng, 3, allow_rhd=False)) for _ in range(40)]
    else:
        queries = _seeded_queries()
    budget = Budget(max_worlds=8, max_steps=150, max_backtracks=200)
    passed = 0
    for f in queries:
        events = []
        seen = satisfiable(logic, f, budget, observer=lambda ev, item, t: events.append(ev))
        assert certificate(satisfiable(logic, f, budget)) == certificate(seen), f
        passed += sum(ev.startswith("skipped") or ev == "pruned" for ev in events)
    assert passed >= (1 if logic == GL else 100), passed


def _keep_all(F, item):
    return lambda t: True


@pytest.mark.parametrize("logic", [IL, ILM])
def test_rhd_lookahead_drops_only_subtrees_without_a_model(monkeypatch, logic):
    # each candidate the rhd lookahead drops, linked and settled as a search
    # without the lookahead would settle it, fails an invariant, has an item
    # without candidates, or has no model below it
    import ilkit.construction as construction
    from ilkit.decide import _most_constrained
    from ilkit.syntax import single_neg

    dropped = []
    real = construction._rhd_lookahead

    def recorded(F, item):
        keep = real(F, item)

        def kept(t):
            if not keep(t):
                dropped.append((F, item, t))
                return False
            return True

        return kept

    monkeypatch.setattr(construction, "_rhd_lookahead", recorded)
    for f in _seeded_queries():
        _search_events(logic, f)
    assert len(dropped) >= 1000
    monkeypatch.setattr(construction, "_rhd_lookahead", _keep_all)
    for F, item, t in dropped:
        x, _, _, _, avoids, label, y, _ = construction._witness(F, item)
        g = F.copy()
        w = g.add_world(t, [single_neg(a) for a in avoids])
        g.R.add((x, w))
        if label is not None:
            g.edge_label[(x, w)] = label
        if y is not None:
            g.S.add((x, y, w))
        child = construction._finish(g, F)
        if child is None or (child.worklist and _most_constrained(child) is None):
            continue
        model, st = complete_frame(child, Budget(max_steps=5000, max_backtracks=20000))
        assert model is None and not st.cut, (item, t)


@pytest.mark.parametrize("logic", [IL, ILM])
def test_rhd_lookahead_keeps_every_answer(monkeypatch, logic):
    # keeping every candidate, the same searches reach the same answers
    # and models: the lookahead only drops subtrees that fail
    import ilkit.construction as construction

    queries = _seeded_queries()
    with_lookahead = [_search_events(logic, f)[0] for f in queries]
    monkeypatch.setattr(construction, "_rhd_lookahead", _keep_all)
    assert [_search_events(logic, f)[0] for f in queries] == with_lookahead


def test_rhd_lookahead_refutes_the_ilm_j2_chain(monkeypatch):
    # the ILM J2 chain with []u: the default budget now finds the model a
    # search without the lookahead finds only with 20,000 steps
    import ilkit.construction as construction

    f = Neg(parse("(p |> q) & (q |> r) & (r |> s) & (s |> t) -> p |> t & []u"))
    events = []
    got = satisfiable(ILM, f, observer=lambda ev, item, t: events.append(ev))
    assert isinstance(got, Sat) and events.count("pruned") >= 1
    monkeypatch.setattr(construction, "_rhd_lookahead", _keep_all)
    assert isinstance(satisfiable(ILM, f, observer=lambda *event: None), Unknown)
    slow = satisfiable(ILM, f, Budget(max_steps=20000), observer=lambda *event: None)
    assert _certificate(slow) == _certificate(got)


def _seeded_queries():
    import random

    from conftest import random_formula

    rng = random.Random(23)
    queries = []
    for _ in range(25):
        a, b = random_formula(rng), random_formula(rng)
        queries += [And(Rhd(a, b), Neg(Implies(Diamond(a), Diamond(b)))), Neg(Rhd(a, b))]
    return queries


def _search_events(logic, f):
    """The answer of a seeded search of f and every observer event, with
    each frame as its worlds, R, S and theory keys and each theory as its
    key."""
    events = []

    def seen(ev, item, got):
        if ev.startswith("skipped") or ev == "pruned":
            got = got.key()
        else:
            got = (tuple(got.worlds), sorted(got.R), sorted(got.S), [got.nu[w].key() for w in got.worlds])
        events.append((ev, item, got))

    return _certificate(satisfiable(logic, f, Budget(max_worlds=8, max_steps=150, max_backtracks=200), seen)), events


def test_sat_cache_evicts_the_oldest_answer(monkeypatch):
    import ilkit.decide as decide

    monkeypatch.setattr(decide, "_sat_cache", {})
    monkeypatch.setattr(decide, "_SAT_CACHE_SIZE", 2)
    queries = [parse(t) for t in ("p", "p & ~p", "[]p", "<>p")]
    answers = [satisfiable(GL, f) for f in queries]
    assert [type(a) for a in answers] == [Sat, Unsat, Sat, Sat]
    assert list(decide._sat_cache) == [(GL, f, Budget()) for f in queries[2:]]
    # an evicted query is decided again, the same way
    assert satisfiable(GL, queries[1]) == Unsat()
    assert list(decide._sat_cache) == [(GL, f, Budget()) for f in (queries[3], queries[1])]


def _one_world_frame(text):
    """A labeled frame of one world w0 whose theory holds the formula, the
    first such theory, and that theory."""
    f = parse(text)
    D = adequate_closure([f])
    t = next(iter(solve_theories(D, ILM, [(f, True)])))
    return LabeledFrame(D, ILM, ["w0"], nu={"w0": t}), t


def test_complete_frame_with_a_violated_invariant_runs_no_search():
    F, t = _one_world_frame("~[]p & ~(p |> q)")
    # an edge between two worlds with the same theory: no box growth
    G = LabeledFrame(F.adequate, ILM, ["a", "b"], {("a", "b")}, {("a", "b", "b")}, {"a": t, "b": t})
    model, st = complete_frame(G)
    assert model is None
    assert (st.cut, st.steps, st.backtracks) == (None, 0, 0)


def test_complete_frame_gives_a_certified_model():
    F, t = _one_world_frame("~[]p & ~(p |> q)")
    model, st = complete_frame(F)
    assert st.cut is None and len(model.frame.worlds) > 1
    assert validate(model.frame, ILM).ok
    # the truth lemma at the prepared world, for every formula of D
    assert all(forces(model, "w0", a) == t.models(a) for a in F.adequate.members)
    # the frame given is settled on a copy and left as it was
    assert F.worlds == ["w0"] and F.worklist == []


def test_complete_frame_cut_by_a_one_step_budget():
    F, _ = _one_world_frame("~[]p & ~(p |> q)")
    model, st = complete_frame(F, Budget(max_steps=1))
    assert model is None
    assert st.cut == "max_steps"
