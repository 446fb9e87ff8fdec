import itertools
import json
import random

import pytest

from conftest import glue_root, random_formula, reference_value
from ilkit.classify import (
    _covers,
    _prime_implicants,
    almost_loeb,
    canonical_modal_dnf,
    check_rule,
    check_tsg_decomposition,
    classify_delta1,
    classify_sigma1,
    dagger_check,
    is_self_prover,
    is_tsg,
    sigma1_countermodel,
)
from ilkit.decide import CertificationError, Derivable, Refuted, derivable
from ilkit.semantics import GL, ILM, forces, validate
from ilkit.syntax import And, Atom, BOT, Box, Diamond, Iff, Neg, Or, Top, parse, render

p, q, r = Atom("p"), Atom("q"), Atom("r")


# --- admissible rules --------------------------------------------------------


def test_rule_iii_derivable_side():
    rep = check_rule("iii", (Diamond(q), q))
    assert all(isinstance(v, Derivable) for v in rep.lhs + rep.rhs)
    assert rep.agree is True


def test_rule_iii_refuted_side():
    rep = check_rule("iii", (p, q))
    assert all(isinstance(v, Refuted) for v in rep.lhs + rep.rhs)
    assert rep.agree is True


def test_rule_vii_top():
    rep = check_rule("vii", (Top(),))
    assert rep.agree is True
    assert isinstance(rep.lhs[0], Derivable)


def test_rule_ii_disjunction():
    # []p | [](q -> q) is derivable and [](q -> q) is derivable: agree
    rep = check_rule("ii", (p, parse("q -> q")))
    assert rep.agree is True
    assert isinstance(rep.lhs[0], Derivable)
    assert [v.kind for v in rep.rhs] == ["refuted", "derivable"]


def test_rule_ii_glued_countermodels_refute_the_left_side():
    # the paper's argument for rule ii: a fresh root below a countermodel
    # of []A and one of []B refutes []A | []B. So whenever both right
    # sides are refuted, gluing their certificates refutes the left side
    # without rerunning the search, and the engine must not derive it.
    rng = random.Random(31)
    glued = 0
    for _ in range(100):
        a, b = random_formula(rng, 2), random_formula(rng, 2)
        rep = check_rule("ii", (a, b))
        if all(isinstance(v, Refuted) for v in rep.rhs):
            model, root = glue_root([(v.model, v.world) for v in rep.rhs])
            assert validate(model.frame, ILM).ok
            assert not forces(model, root, Or(Box(a), Box(b)))
            assert not isinstance(rep.lhs[0], Derivable)
            glued += 1
    assert glued >= 30


def test_rule_instance_of_wrong_size_is_rejected():
    with pytest.raises(ValueError):
        check_rule("ii", (p,))
    with pytest.raises(ValueError):
        check_rule("i", (p, q))
    with pytest.raises(ValueError):
        check_rule("v", ([], p, q))
    with pytest.raises(ValueError, match="rule v takes side formulas"):
        check_rule("v", (p, q))


def test_rule_v_side_condition():
    ok = check_rule("v", ([p], p, q))
    assert ok.agree is True
    bad = check_rule("v", ([BOT], p, q))
    assert bad.agree is None  # A_i inconsistent: not applicable


def test_rule_i_and_iv_and_vi_random_spots():
    for rule, inst in [
        ("i", (parse("p -> p"),)),
        ("i", (p,)),
        ("iv", (p, q)),
        ("iv", (Diamond(p), p)),
        ("vi", (Top(),)),
        ("vi", (p,)),
    ]:
        rep = check_rule(rule, inst)
        assert rep.agree is True, (rule, inst)


# --- delta1 -------------------------------------------------------------------


def test_delta1_top_bottom_no():
    assert classify_delta1(Top()).answer == "top"
    assert classify_delta1(BOT).answer == "bottom"
    rep = classify_delta1(p)
    assert rep.answer == "no"
    assert isinstance(rep.top_verdict, Refuted)
    assert isinstance(rep.bottom_verdict, Refuted)
    assert rep.cross_agrees is True


def test_delta1_equivalent_to_top():
    rep = classify_delta1(parse("[]([]p -> p) -> []p"))
    assert rep.answer == "top"
    assert rep.cross_agrees is True


# --- sigma1 -------------------------------------------------------------------


def test_sigma1_yes_cases():
    for s, witness_expected in [("[]p", "[]p"), ("[]p | []q", "[]p | []q"), ("[]bot", "[]bot"), ("bot", "bot")]:
        rep = classify_sigma1(parse(s))
        assert rep.answer == "yes", s
        assert rep.witness is not None and render(rep.witness) == witness_expected


def test_sigma1_top_has_box_witness():
    rep = classify_sigma1(Top())
    assert rep.answer == "yes"
    assert rep.witness is not None
    assert isinstance(derivable(ILM, parse(f"top <-> ({render(rep.witness)})")), Derivable)


def test_sigma1_yes_without_a_witness_inside_the_cap(monkeypatch):
    # with one candidate, bot, no witness of []p & []q is tried
    import ilkit.classify as classify

    monkeypatch.setattr(classify, "_WITNESS_CAP", 1)
    rep = classify_sigma1(parse("[]p & []q"))
    assert (rep.answer, rep.witness) == ("yes", None)
    assert rep.witness_note == "witness not found within bound"


def _sigma1_corpus():
    """The t.s.g. corpus formulas f with their f & []f and f & []~f."""
    from test_acceptance import _tsg_corpus

    return [g for f in _tsg_corpus(random.Random(53)) for g in (f, And(f, Box(f)), And(f, Box(Neg(f))))]


def test_sigma1_witness_filter_changes_no_report(monkeypatch):
    import ilkit.classify as classify
    import ilkit.decide as decide

    def reports():
        monkeypatch.setattr(decide, "_sat_cache", {})
        return [json.dumps(classify_sigma1(f).to_dict(), sort_keys=True) for f in _sigma1_corpus()]

    filtered = reports()
    monkeypatch.setattr(classify, "_refutes", lambda model, f, cand: False)
    assert reports() == filtered


def test_sigma1_witness_filter_skips_only_refutable_candidates(monkeypatch):
    import ilkit.classify as classify

    skipped = []
    refutes = classify._refutes

    def recording(model, f, cand):
        if refutes(model, f, cand):
            skipped.append(Iff(f, cand))
            return True
        return False

    monkeypatch.setattr(classify, "_refutes", recording)
    # Sigma_1 shapes that are not box disjunctions, so the witness loop runs
    rng = random.Random(29)
    for _ in range(6):
        a, b, c = (Box(random_formula(rng, 1)) for _ in range(3))
        classify_sigma1(And(Or(a, b), Box(Or(a, b))))
        classify_sigma1(Or(And(a, b), c))
    assert len(skipped) >= 500
    for g in dict.fromkeys(skipped):
        assert not isinstance(derivable(ILM, g), Derivable), render(g)


def test_sigma1_witness_filter_reads_every_world():
    from ilkit.classify import _refutes
    from ilkit.semantics import VeltmanModel

    # p and bot agree at the root and differ only at its successor
    model = VeltmanModel.make(["w0", "w1"], R=[("w0", "w1")], val={"w1": {"p"}})
    assert _refutes(model, p, BOT)
    assert _refutes(model, Box(p), p) and not _refutes(model, Box(Box(BOT)), Top())


@pytest.mark.parametrize("s", ["[]p & []q | []r", "([]p & []q) | ([]r & []s)"])
def test_sigma1_witness_loop_stops_asking_once_the_models_refute_the_rest(monkeypatch, s):
    import ilkit.classify as classify

    asked = []
    monkeypatch.setattr(classify, "derivable", lambda logic, g, budget: asked.append(g) or derivable(logic, g, budget))
    rep = classify_sigma1(parse(s))
    assert (rep.answer, rep.witness, rep.witness_note) == ("yes", None, "witness not found within bound")
    # the reduction query, then at most 10 of the up to 400 candidates
    assert len(asked) - 1 <= 10


_ROADMAP_SIGMA1 = ["[]p & []q | []r", "([]p & []q) | ([]r & []s)", "[](p & q) | []r & []s | <>t & []bot"]


def _witness_candidates_as_a_list(f, cap):
    """The witness shapes built as one list and cut at cap."""
    import itertools

    from ilkit.syntax import is_neg, subformulas

    subs = sorted(subformulas(f), key=lambda g: g.key())
    base = [Top(), BOT] + subs + [Neg(s) for s in subs if not is_neg(s)]
    pool = list(dict.fromkeys(base))
    cands = [BOT] + [Box(b) for b in pool]
    cands += [Box(And(a, b)) for a, b in itertools.combinations(pool, 2)]
    cands += [Or(Box(a), Box(b)) for a, b in itertools.combinations(pool, 2)]
    return cands[:cap]


def test_sigma1_witness_candidates_are_the_list_built_lazily(monkeypatch):
    import ilkit.classify as classify

    cap = classify._WITNESS_CAP
    for f in _sigma1_corpus() + [parse(s) for s in _ROADMAP_SIGMA1]:
        assert list(classify._witness_candidates(f)) == _witness_candidates_as_a_list(f, cap), render(f)
    big = parse(_ROADMAP_SIGMA1[2])
    assert len(_witness_candidates_as_a_list(big, None)) > cap
    assert len(list(classify._witness_candidates(big))) == cap
    monkeypatch.setattr(classify, "_WITNESS_CAP", 7)  # the cap is read at call time
    assert list(classify._witness_candidates(big)) == _witness_candidates_as_a_list(big, 7)


def test_sigma1_no_cases_with_countermodels():
    for s in ["p", "<>p", "p & []p"]:
        rep = classify_sigma1(parse(s))
        assert rep.answer == "no", s
        model, world = rep.countermodel
        assert validate(model.frame, ILM).ok
        assert forces(model, world, Neg(rep.reduction_query))


def test_sigma1_witness_is_box_disjunction():
    from ilkit.classify import _is_box_disjunction

    for s in ["[]p", "[]p | []q", "bot", "[]bot"]:
        rep = classify_sigma1(parse(s))
        assert _is_box_disjunction(rep.witness)


def test_sigma1_countermodel_seeded():
    for s in ["p", "p & []p"]:
        cm = sigma1_countermodel(parse(s))
        assert cm.world == "m0"
        assert validate(cm.model.frame, ILM).ok
        assert not forces(cm.model, "m0", cm.query)
        pa, qa = cm.fresh
        # the fresh atoms decorate exactly the two seed worlds
        only_p = [w for w in cm.model.frame.worlds if pa.name in cm.model.val[w]]
        only_q = [w for w in cm.model.frame.worlds if qa.name in cm.model.val[w]]
        assert only_p == ["l"] and only_q == ["r"]
        assert forces(cm.model, "l", parse(s))
        assert not forces(cm.model, "r", parse(s))


def test_sigma1_countermodel_checks_each_model_once(monkeypatch):
    # one truth-lemma check for the refuted reduction query and one for the
    # completed seed, both in the search; none repeated on the same model
    import ilkit.classify as classify
    import ilkit.decide as decide

    calls = []
    real = decide.verify_truth_lemma

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decide, "_sat_cache", {})
    for mod in (decide, classify):  # each module that may call it
        if hasattr(mod, "verify_truth_lemma"):
            monkeypatch.setattr(mod, "verify_truth_lemma", counted)
    sigma1_countermodel(parse("p & []q"))
    assert len(calls) == 2


def test_sigma1_countermodel_rejects_sigma_formula():
    with pytest.raises(ValueError):
        sigma1_countermodel(Box(p))


def test_sigma1_countermodel_that_fails_certification_raises(monkeypatch):
    # a completed model that is no ILM frame is an engine fault, never a
    # reason to try the next seed
    import ilkit.classify as classify
    from ilkit.semantics import ValidationReport, Violation

    broken = ValidationReport((Violation("r_transitive", ("m0", "l", "r")),))
    monkeypatch.setattr(classify, "validate", lambda frame, logic: broken)
    with pytest.raises(CertificationError, match="is no ilm frame"):
        sigma1_countermodel(parse("p & []p"))


# --- self provers ---------------------------------------------------------------


def test_self_provers():
    assert isinstance(is_self_prover(Box(p)), Derivable)
    assert isinstance(is_self_prover(And(p, Box(p))), Derivable)
    assert isinstance(is_self_prover(p), Refuted)
    assert isinstance(is_self_prover(parse("[]p"), logic=GL), Derivable)


def test_tsg_suite():
    rep = is_tsg(parse("[][]p -> []p"))
    assert rep.answer == "yes"
    assert render(rep.witness) == "[]p"
    assert is_tsg(And(p, Box(p))).answer == "no"
    rep2 = is_tsg(Box(p))
    assert rep2.answer == "yes"


def test_tsg_matches_sigma_of_selfprover():
    for s in ["p", "[]p", "p & []p", "[][]p -> []p", "<>p"]:
        f = parse(s)
        assert is_tsg(f).answer == classify_sigma1(And(f, Box(f))).answer


# --- decompositions ---------------------------------------------------------------


def test_dnf_already_shaped():
    d = canonical_modal_dnf(parse("[]p | (q & []r)"))
    assert [render(c) for c in d.boxes] == ["p"]
    assert len(d.conjuncts) == 1
    phi, a = d.conjuncts[0]
    assert [render(x) for x in phi] == ["q"]
    assert render(a) == "r"
    assert d.flags == ()


def test_dnf_merges_boxes():
    d = canonical_modal_dnf(parse("[]p & []q"))
    assert d.conjuncts == ()
    assert [render(c) for c in d.boxes] == ["p & q"]
    assert isinstance(derivable(GL, parse("[]p & []q <-> [](p & q)")), Derivable)


def test_dnf_bot_empty():
    d = canonical_modal_dnf(BOT)
    assert d.conjuncts == () and d.boxes == () and d.flags == ()
    assert d.formula() == BOT


def test_dnf_flags_empty_disjunct():
    d = canonical_modal_dnf(Top())
    assert any("empty disjunct" in fl for fl in d.flags)


def test_dnf_equivalence_certified():
    for s in ["[][]p -> []p", "[]p | (q & []r)", "p", "<>p | []q"]:
        f = parse(s)
        d = canonical_modal_dnf(f)
        assert isinstance(derivable(ILM, parse(f"({render(f)}) <-> ({render(d.formula())})")), Derivable), s


def test_dnf_cover_without_essential_primes():
    # f's 6 minterms and 6 prime implicants form a cycle: every minterm has
    # two primes, so none is essential and the greedy loop picks the cover.
    # formula() appends []top to each disjunct, so only the literal parts
    # are checked against f.
    f = parse("~(~p & q & r) & ~(p & ~q & ~r)")
    rows = [{a: bool(n >> i & 1) for i, a in enumerate((p, q, r))} for n in range(8)]
    minterms = {n for n, row in enumerate(rows) if reference_value(f, row)}
    primes = _prime_implicants(3, sorted(minterms))
    assert len(minterms) == len(primes) == 6
    assert all(sum(_covers(pr, m) for pr in primes) == 2 for m in minterms)
    d = canonical_modal_dnf(f)
    assert d.boxes == () and d.flags == ()
    covered = [
        {n for n, row in enumerate(rows) if all(reference_value(lit, row) for lit in phi)}
        for phi, _ in d.conjuncts
    ]
    assert set().union(*covered) == minterms
    for i, c in enumerate(covered):
        assert c - set().union(*covered[:i], *covered[i + 1 :]), d.conjuncts[i]


def _brute_force_primes(n, minterms):
    """Every cube over n atoms (each atom false, true or free: 3^n cubes)
    whose rows all lie in minterms, kept when freeing any one of its fixed
    atoms gives a cube that does not."""
    ms = set(minterms)
    cubes = {
        (sum(1 << i for i, d in enumerate(ds) if d == 1), sum(1 << i for i, d in enumerate(ds) if d is not None))
        for ds in itertools.product((0, 1, None), repeat=n)
    }
    implicants = {(v, mask) for v, mask in cubes if all(r in ms for r in range(1 << n) if r & mask == v)}
    return sorted(
        (v, mask)
        for v, mask in implicants
        if not any((v & ~(1 << i), mask & ~(1 << i)) in implicants for i in range(n) if mask >> i & 1)
    )


def test_prime_implicants_match_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 6)
        density = rng.random()
        minterms = [m for m in range(1 << n) if rng.random() < density]
        assert _prime_implicants(n, minterms) == _brute_force_primes(n, minterms), (n, minterms)


def test_package_attribute_lookup():
    # ilkit loads each classify name on first use (PEP 562). Any name it
    # does not define raises AttributeError, among them the construction
    # references that live in the tests
    import ilkit
    import ilkit.classify as classify

    for name in ilkit._CLASSIFY:
        assert getattr(ilkit, name) is getattr(classify, name), name
    for name in ("no_such_name", "find_imperfections", "m_cone", "check_mcone_invariance"):
        with pytest.raises(AttributeError, match=name):
            getattr(ilkit, name)


def test_check_tsg_decomposition_prominent():
    f = parse("[][]p -> []p")
    d = canonical_modal_dnf(f)
    rep = check_tsg_decomposition(f, d)
    assert rep.conditions_ok is True
    assert isinstance(rep.equivalent, Derivable)
    assert all(isinstance(v, Refuted) for v in rep.irredundant)
    assert rep.conclusion.kind == is_tsg(f).verdict.kind == "derivable"


def test_check_tsg_decomposition_box():
    f = Box(p)
    d = canonical_modal_dnf(f)
    rep = check_tsg_decomposition(f, d)
    assert rep.conditions_ok is True
    assert isinstance(rep.conclusion, Derivable)


def test_condition2_violation_flagged_not_asserted():
    from ilkit.classify import TsgDecomposition

    # hand-built decomposition violating condition 2: q & []p with []p -> f
    f = parse("[]p | (q & []p)")
    d = TsgDecomposition(((tuple([q]), p),), (p,), ())
    rep = check_tsg_decomposition(f, d)
    assert any(isinstance(v, Derivable) for v in rep.irredundant)
    assert rep.conditions_ok is False


# --- almost-Löb and the dagger bicondition -----------------------------------------


def test_almost_loeb():
    rep = almost_loeb(Top())
    assert rep.witness == "boxbot"
    assert isinstance(rep.certificate, Derivable)
    rep2 = almost_loeb(BOT)
    assert rep2.witness == "bottom"
    assert isinstance(rep2.certificate, Derivable)
    rep3 = almost_loeb(p)
    assert rep3.witness is None
    assert isinstance(rep3.boxbot_verdict, Refuted)
    assert isinstance(rep3.bottom_verdict, Refuted)


def test_dagger_top():
    rep = dagger_check(Top())
    assert rep.sigma_f.answer == "yes"
    assert rep.dagger_holds is True
    assert rep.biconditional_ok is True


def test_dagger_p():
    rep = dagger_check(p)
    assert rep.sigma_selfprover.answer == "no"
    assert rep.dagger_holds is True
    assert rep.biconditional_ok is True


def test_dagger_prominent_tsg_computed_not_hardcoded():
    rep = dagger_check(parse("[][]p -> []p"))
    assert rep.sigma_selfprover.answer == "yes"
    assert rep.sigma_antiprover.answer == "yes"
    assert rep.sigma_f.answer == "no"
    assert rep.dagger_holds is False
    assert rep.biconditional_ok is True


def test_sigma1_witness_invariant_random_corpus():
    # whenever the answer is yes and a witness was found, the witness is a
    # disjunction of boxes and certified equivalent
    import random

    from conftest import random_formula
    from ilkit.classify import _is_box_disjunction
    from ilkit.syntax import Iff

    rng = random.Random(97)
    yes_seen = 0
    for _ in range(40):
        f = random_formula(rng, 2, allow_rhd=False)
        rep = classify_sigma1(f)
        if rep.answer == "yes" and rep.witness is not None:
            yes_seen += 1
            assert _is_box_disjunction(rep.witness), render(rep.witness)
            assert isinstance(derivable(ILM, Iff(f, rep.witness)), Derivable)
    assert yes_seen >= 3
