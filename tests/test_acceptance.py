"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All checks are exact (zero tolerance); corpora are seeded and fixed.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from conftest import (
    all_gl_formulas,
    check_mcone_invariance,
    close_trace,
    enumerate_il_frames,
    find_imperfections,
    random_formula,
    random_transitive_dag,
    small_countermodel,
    small_frames,
)
from ilkit.classify import (
    almost_loeb,
    check_rule,
    classify_delta1,
    classify_sigma1,
    dagger_check,
    is_tsg,
    sigma1_countermodel,
)
from ilkit.construction import depth, quasi_frame_violations, verify_truth_lemma
from ilkit.decide import (
    Derivable,
    Refuted,
    Unknown,
    Unsat,
    _ARITY,
    SCHEMATA,
    axiom_instance,
    derivable,
    satisfiable,
)
from ilkit.semantics import (
    GL,
    IL,
    ILM,
    VeltmanModel,
    forces,
    frame_validates,
    validate,
)
from ilkit.syntax import (
    And,
    Atom,
    BOT,
    Box,
    Diamond,
    Iff,
    Implies,
    Neg,
    Or,
    Rhd,
    Top,
    adequate_closure,
    parse,
    render,
)
from ilkit.theory import DTheory, box_incl

p, q, r = Atom("p"), Atom("q"), Atom("r")


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_axiom_soundness():
    rng = random.Random(11)
    t0 = time.time()
    n = 0
    for schema in SCHEMATA:
        for _ in range(25):
            args = [random_formula(rng, 2) for _ in range(_ARITY[schema])]
            inst = axiom_instance(schema, *args)
            v = derivable(ILM, inst)
            assert isinstance(v, Derivable), (schema, render(inst), v.kind)
            n += 1
    dt = time.time() - t0
    assert n == 225
    assert dt < 300
    _report("1 axiom soundness", f"225/225 derivable in {dt:.1f}s")


def test_criterion_2_certificate_integrity():
    rng = random.Random(23)
    found = 0
    tried = 0
    while found < 200 and tried < 4000:
        tried += 1
        logic = (GL, IL, ILM)[tried % 3]
        f = random_formula(rng, 2, allow_rhd=(logic != GL))
        v = derivable(logic, f)
        if not isinstance(v, Refuted):
            continue
        found += 1
        # independent re-checks of the certificate
        assert validate(v.model.frame, ILM if logic == GL else logic).ok
        assert forces(v.model, v.world, Neg(f))
        D = adequate_closure([Neg(f)])
        nu = {
            w: DTheory(D, {a: forces(v.model, w, a) for a in D.modal_atoms})
            for w in v.model.frame.worlds
        }
        assert verify_truth_lemma(v.model, nu, D)
    assert found == 200, f"only {found} refutable queries in {tried} draws"
    _report("2 certificate integrity", f"200/200 certificates re-verified ({tried} draws)")


def test_criterion_3_frame_correspondence():
    m_instance = parse("p |> q -> (p & []r) |> (q & []r)")
    frames = enumerate_il_frames(3)
    mismatches = 0
    for f in frames:
        lhs = validate(f, ILM).ok
        rhs = frame_validates(f, m_instance)
        if lhs != rhs:
            mismatches += 1
    assert mismatches == 0
    _report("3 frame correspondence", f"{len(frames)} IL frames, 0 exceptions")


def _rule_corpus(rng):
    """30 instance tuples per rule: hand seeds first, then random fill."""
    hand = {
        "i": [(Top(),), (p,), (Implies(p, p),), (Box(p),)],
        "ii": [(p, q), (Implies(p, p), q), (BOT, Top())],
        "iii": [(Diamond(q), q), (p, q), (q, q)],
        "iv": [(p, q), (Diamond(p), p), (p, p)],
        "v": [([p], p, q), ([p, q], p, q), ([Diamond(p)], Diamond(p), p)],
        "vi": [(Top(),), (p,), (Box(BOT),)],
        "vii": [(Top(),), (p,), (Diamond(p),)],
    }
    out = []
    for rule in ("i", "ii", "iii", "iv", "v", "vi", "vii"):
        tuples = list(hand[rule])
        while len(tuples) < 30:
            if rule in ("i", "vi", "vii"):
                tuples.append((random_formula(rng, 2),))
            elif rule == "v":
                # side formulas must be consistent: build satisfiable ones
                ai = Or(random_formula(rng, 1), Neg(BOT))
                tuples.append(([ai], random_formula(rng, 2), random_formula(rng, 2)))
            else:
                tuples.append((random_formula(rng, 2), random_formula(rng, 2)))
        out.append((rule, tuples))
    return out


def test_criterion_4_admissible_rules():
    rng = random.Random(31)
    decided = 0
    unknown = 0
    disagreements = 0
    total = 0
    for rule, tuples in _rule_corpus(rng):
        for inst in tuples:
            rep = check_rule(rule, inst)
            total += 1
            if rep.agree is None:
                unknown += 1
            else:
                decided += 1
                if rep.agree is False:
                    disagreements += 1
                    print("DISAGREE", rule, rep.to_dict())
    assert total == 210
    assert disagreements == 0
    assert unknown / total < 0.10, f"unknown rate {unknown}/{total}"
    _report(
        "4 admissible rules",
        f"{decided}/{total} decided, 100% agreement, unknown rate {unknown}/{total}",
    )


def test_criterion_5_delta1():
    rng = random.Random(41)
    corpus = [random_formula(rng, 2) for _ in range(100)]
    cross_checked = 0
    for f in corpus:
        rep = classify_delta1(f)
        assert rep.answer != "unknown", render(f)
        # Top/Bottom exactly when the engine proves f <-> top / f <-> bot
        t_iff = derivable(ILM, Iff(f, Top()))
        b_iff = derivable(ILM, Iff(f, BOT))
        if isinstance(t_iff, Derivable) or isinstance(b_iff, Derivable):
            assert rep.answer in ("top", "bottom"), render(f)
        if rep.answer == "top":
            assert isinstance(t_iff, Derivable), render(f)
        if rep.answer == "bottom":
            assert isinstance(b_iff, Derivable), render(f)
        if rep.answer == "no":
            assert isinstance(rep.top_verdict, Refuted)
            assert isinstance(rep.bottom_verdict, Refuted)
        assert rep.cross_agrees is True, render(f)
        cross_checked += 1
    assert cross_checked == 100
    _report("5 delta1 classification", "100 formulas, cross-check agreement 100%")


def test_criterion_6_sigma1_fixed_points():
    yes = ["[]p", "[]p | []q", "[]bot", "bot", "top"]
    no = ["p", "<>p", "p & []p"]
    for s in yes:
        rep = classify_sigma1(parse(s))
        assert rep.answer == "yes", s
    for s in no:
        f = parse(s)
        rep = classify_sigma1(f)
        assert rep.answer == "no", s
        cm = sigma1_countermodel(f)
        assert validate(cm.model.frame, ILM).ok
        assert not forces(cm.model, cm.world, cm.query)
        # l and r really are an f / not-f pair joined by S at the root
        assert forces(cm.model, "l", f) and not forces(cm.model, "r", f)
        assert ("m0", "l", "r") in cm.model.frame.S
    _report("6 sigma1 fixed points", f"{len(yes)} yes + {len(no)} no with seeded countermodels")


def _tsg_corpus(rng):
    corpus = [
        parse("[][]p -> []p"),
        parse("p & []p"),
        parse("[]p"),
        Top(),
        BOT,
        p,
        parse("<>p"),
        parse("[]p | []q"),
        parse("[]bot"),
        parse("p -> []p"),
    ]
    while len(corpus) < 50:
        corpus.append(random_formula(rng, 2, allow_rhd=False))
    return corpus


def test_criterion_7_tsg_suite():
    rep = is_tsg(parse("[][]p -> []p"))
    assert rep.answer == "yes" and render(rep.witness) == "[]p"
    assert isinstance(derivable(ILM, Iff(And(parse("[][]p -> []p"), Box(parse("[][]p -> []p"))), parse("[]p"))), Derivable)
    assert is_tsg(parse("p & []p")).answer == "no"
    assert is_tsg(parse("[]p")).answer == "yes"

    rng = random.Random(53)
    corpus = _tsg_corpus(rng)
    loeb_unknown = 0
    dagger_unknown = 0
    for f in corpus:
        rep = almost_loeb(f)
        vb = derivable(ILM, Implies(Box(BOT), f))
        vn = derivable(ILM, Neg(f))
        if rep.witness == "unknown":
            loeb_unknown += 1
        elif rep.witness is None:
            assert isinstance(vb, Refuted) and isinstance(vn, Refuted), render(f)
        elif rep.witness == "bottom":
            assert isinstance(vn, Derivable), render(f)
            assert isinstance(rep.certificate, Derivable), render(f)
        else:
            assert rep.witness == "boxbot"
            assert isinstance(vb, Derivable), render(f)
            assert isinstance(rep.certificate, Derivable), render(f)
        dag = dagger_check(f)
        if dag.biconditional_ok is None:
            dagger_unknown += 1
        else:
            assert dag.biconditional_ok is True, render(f)
    assert loeb_unknown == 0
    assert dagger_unknown == 0
    _report("7 tsg suite", f"50-formula corpus, three-way and dagger checks clean")


def _random_quasi_ilm_frame(rng, D, n_worlds):
    from ilkit.construction import LabeledFrame

    worlds = [f"v{i}" for i in range(n_worlds)]
    R = random_transitive_dag(rng, worlds)
    val = {w: {n for n in ("p", "q") if rng.random() < 0.5} for w in worlds}
    model = VeltmanModel.make(worlds, R, set(), val)
    theories = {
        w: DTheory(D, {a: forces(model, w, a) for a in D.modal_atoms}) for w in worlds
    }
    f = LabeledFrame(D, ILM)
    f.worlds = list(worlds)
    f.nu = dict(theories)
    f.obligations = {w: frozenset() for w in worlds}
    f.R = set(R)
    for (x, y) in sorted(R):
        for (x2, z) in sorted(R):
            if x2 == x and rng.random() < 0.3 and box_incl(theories[y], theories[z]):
                f.S.add((x, y, z))
    for (x, y) in sorted(R):
        if rng.random() < 0.3:
            f.edge_label[(x, y)] = BOT
    return f


def test_criterion_8_construction_internals():
    rng = random.Random(61)
    D = adequate_closure([parse("[]p -> []q")])
    closed_count = 0
    attempts = 0
    while closed_count < 100 and attempts < 1000:
        attempts += 1
        f = _random_quasi_ilm_frame(rng, D, rng.randrange(2, 7))
        if quasi_frame_violations(f):
            continue
        closed_count += 1
        prev = f
        steps = 0
        for imp, step in close_trace(f, ILM):
            assert check_mcone_invariance(prev, step), imp
            prev = step
            steps += 1
        assert find_imperfections(prev, ILM) == []
        assert prev.worlds == f.worlds
        assert prev.nu == f.nu
        assert {k: v for k, v in prev.edge_label.items()} == f.edge_label
        assert prev.R >= f.R and prev.S >= f.S
    assert closed_count == 100, f"built {closed_count} quasi-frames in {attempts} draws"

    # 100 decision traces over queries that force real construction work:
    # box growth and the depth bound re-checked after every elimination
    rng2 = random.Random(67)
    traces = 0
    eliminations = 0
    while traces < 100:
        a = random_formula(rng2, 2)
        b = random_formula(rng2, 2)
        c = random_formula(rng2, 2)
        shape = traces % 4
        if shape == 0:
            f = And(Diamond(a), Diamond(b))
        elif shape == 1:
            f = Neg(Rhd(a, b))
        elif shape == 2:
            f = And(Neg(Rhd(a, b)), Diamond(c))
        else:
            f = And(Neg(Box(a)), Rhd(b, c))
        events = []

        def obs(ev, item, frame):
            if ev == "eliminated":
                events.append(frame)

        satisfiable(ILM, f, observer=obs)
        traces += 1
        for frame in events:
            eliminations += 1
            assert quasi_frame_violations(frame) == []
            bound = len(frame.adequate)
            assert depth(frame) <= bound
            for (x, y) in frame.R:
                if frame.exempt_root is not None and x == frame.exempt_root:
                    continue
                bx, by = frame.effective_boxes(x), frame.effective_boxes(y)
                assert bx <= by and bx != by, (x, y)
    assert eliminations >= 200, f"traces too shallow: {eliminations} eliminations"
    _report(
        "8 construction internals",
        f"100 quasi-frame closures stepped clean; {eliminations} eliminations across 100 traces",
    )


def test_criterion_9_brute_force_agreement():
    formulas = all_gl_formulas(7)
    frames = []
    for n in range(1, 4):
        worlds = [f"w{i}" for i in range(n)]
        pairs = [(a, b) for a in worlds for b in worlds if a != b]
        for bits in itertools.product([0, 1], repeat=len(pairs)):
            R = {pr for pr, b in zip(pairs, bits) if b}
            if any((b, a) in R for (a, b) in R):
                continue
            if not all((a, c) in R for (a, b) in R for (b2, c) in R if b2 == b):
                continue
            S = {(x, y, y) for (x, y) in R} | {
                (x, y, z) for (x, y) in R for (y2, z) in R if y2 == y
            }
            frames.append((worlds, R, S))

    def brute_valid(f):
        for worlds, R, S in frames:
            for bits in itertools.product([0, 1], repeat=len(worlds)):
                val = {w: ({"p"} if b else set()) for w, b in zip(worlds, bits)}
                m = VeltmanModel.make(worlds, R, S, val)
                for w in worlds:
                    if not forces(m, w, f):
                        return False
        return True

    disagreements = 0
    for f in formulas:
        v = derivable(GL, f)
        assert not isinstance(v, Unknown), render(f)
        if isinstance(v, Derivable) != brute_valid(f):
            disagreements += 1
            print("DISAGREE", render(f))
    assert disagreements == 0
    _report(
        "9 brute-force agreement",
        f"{len(formulas)} formulas vs {len(frames)} frames, 0 disagreements",
    )


@pytest.mark.parametrize("logic", [IL, ILM])
def test_derivable_has_no_countermodel_on_small_frames(logic):
    # the Derivable side has no certificate: an invariant check that
    # rejects too much turns a refutable query into a false Derivable.
    # Check each Derivable verdict against every frame of at most three
    # worlds (ILM: those satisfying the M condition) and every valuation.
    frames = small_frames(logic, 3)
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        a, b, c = (random_formula(rng, 1, atoms=("p", "q")) for _ in range(3))
        pick = lambda: rng.choice([a, b, c])
        k = rng.randrange(6)
        if k == 0:  # J2-shaped
            f = Implies(And(Rhd(a, b), Rhd(b, c)), Rhd(pick(), pick()))
        elif k == 1:  # M-shaped
            f = Implies(Rhd(a, b), Rhd(And(pick(), Box(c)), And(pick(), Box(c))))
        elif k == 2:  # J1-shaped
            f = Implies(And(Rhd(a, c), Box(Implies(b, a))), Rhd(rng.choice([a, b, Or(a, b)]), c))
        elif k == 3:  # J4-shaped
            f = Implies(And(Rhd(a, b), Diamond(c)), Diamond(pick()))
        elif k == 4:  # J3-shaped
            f = Implies(And(Rhd(a, b), Rhd(c, pick())), Rhd(Or(a, c), pick()))
        else:  # two successors
            f = Implies(And(Diamond(a), Diamond(b)), Or(Rhd(pick(), pick()), Diamond(And(a, b))))
        if not isinstance(derivable(logic, f), Derivable):
            continue
        checked += 1
        assert small_countermodel(f, frames) is None, render(f)
    print("derivable verdicts checked:", checked)
    assert checked >= 30


@pytest.mark.parametrize(
    "text",
    [
        "[][](p |> r) | []((bot -> q) |> (r -> r))",
        "q | (p |> p) |> ([]r |> bot)",
        "(bot |> ~q) |> ((r |> p) |> ~r)",
        "top |> (q & q |> (p |> r))",
    ],
)
def test_nogoods_decide_budget_cut_rules(text):
    # four instances of the rules corpus that a search without nogoods
    # leaves Unknown under the default budget: the skipped roots and
    # candidates no longer use up the steps
    f = parse(text)
    assert derivable(ILM, f) == Derivable()
    assert small_countermodel(f, small_frames(ILM, 3)) is None


def test_nogoods_decide_the_il_j2_chain():
    # J2 applied three times, to (p |> q) & (q |> r), then with r |> s,
    # then with s |> t, derives p |> t. Without nogoods the search tries
    # every fresh witness of each root and is cut; with them it skips
    # those that fail for the reason an earlier one failed.
    f = parse("(p |> q) & (q |> r) & (r |> s) & (s |> t) -> p |> t")
    events = []
    assert satisfiable(IL, Neg(f), observer=lambda ev, item, got: events.append(ev)) == Unsat()
    assert events.count("skipped_root") + events.count("skipped") >= 1
    assert derivable(IL, f) == Derivable()
    assert small_countermodel(f, small_frames(IL, 3)) is None


def test_criterion_10_determinism(tmp_path):
    def run(*argv, hash_seed=None):
        env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(
            [sys.executable, "-m", "ilkit.cli", *argv], capture_output=True, text=True, env=env
        )
        return proc.returncode, proc.stdout, proc.stderr

    cert1 = tmp_path / "c1.json"
    cert2 = tmp_path / "c2.json"
    frame = tmp_path / "frame.json"
    frame.write_text(
        json.dumps({"worlds": ["a", "b", "c"], "R": [["a", "b"], ["b", "c"]], "S": [], "val": {"c": ["p"]}})
    )
    commands = [
        ("prove", "--logic", "ilm", "p |> q -> (p & []r) |> (q & []r)", "--json"),
        ("prove", "--logic", "gl", "p -> []p", "--json"),
        ("sat", "--logic", "gl", "<>p & <>~p", "--json"),
        ("countermodel", "--logic", "ilm", "p |> q", "--json"),
        ("classify", "sigma1", "p & []p", "--json"),
        ("classify", "tsg", "[][]p -> []p", "--json"),
        ("classify", "dagger", "[][]p -> []p", "--json"),
        ("rules", "iii", "<>q", "q", "--json"),
        ("close", str(frame), "--logic", "ilm"),
        ("export-dot", str(frame)),
    ]
    for cmd in commands:
        a = run(*cmd)
        b = run(*cmd)
        assert a == b, cmd
    # the output must not depend on the interpreter's hash seed either
    for cmd in commands[0], commands[3], commands[5]:
        assert run(*cmd, hash_seed="1") == run(*cmd, hash_seed="2"), cmd
    run("prove", "--logic", "gl", "p -> []p", "--cert", str(cert1))
    run("prove", "--logic", "gl", "p -> []p", "--cert", str(cert2))
    assert cert1.read_bytes() == cert2.read_bytes()
    _report(
        "10 determinism",
        f"{len(commands)} commands byte-identical across runs, 3 across hash seeds",
    )
