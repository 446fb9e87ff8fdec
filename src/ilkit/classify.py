"""Sentence classification over the decision engine.

Admissible-rule checking, the two-point classification of essentially
Delta_1 sentences, the essentially Sigma_1 test via the fresh-variable
reduction (with best-effort witness extraction), self-provers, trivial
self-prover generators and their modal disjunctive decompositions, the
almost-Löb classification of f & []~f, and the two-sided check relating
Sigma-ness of f & []f, f & []~f and f.
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple

from .construction import LabeledFrame
from .decide import (
    Budget,
    DEFAULT_BUDGET,
    CertificationError,
    Derivable,
    Refuted,
    Unknown,
    Verdict,
    complete_frame,
    derivable,
)
from .semantics import ILM, VeltmanModel, forces, model_to_dict, validate
from .syntax import (
    And,
    Atom,
    BOT,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Neg,
    Or,
    Rhd,
    Top,
    adequate_closure,
    atoms,
    boolean_masks,
    conj,
    disj,
    eval3,
    fresh_atoms,
    is_neg,
    modal_atoms_of,
    parse,
    render,
    subformulas,
    substitute,
    TABLE_ATOMS,
    truth_table,
)
from .theory import _TheoryIndex, common_predecessor, solve_theories


_parsed = lru_cache(maxsize=None)(parse)


def _kleene(template: str, *values: bool | None) -> bool | None:
    """The three-valued (Kleene) value of template with its atoms a, b, c
    bound to values; None is unknown."""
    return eval3(_parsed(template), dict(zip(map(Atom, "abc"), values)))


# --- admissible rules ---------------------------------------------------------


# Each rule's left side and right sides as templates over its instance
# (a, b); under rule v, c stands for the conjunction of the <>A_i.
RULES = {
    name: (parse(lhs), tuple(map(parse, rhs)))
    for name, lhs, rhs in (
        ("i", "[]a", ("a",)),
        ("ii", "[]a | []b", ("[]a", "[]b")),
        ("iii", "a |> b", ("a -> b | <>b",)),
        ("iv", "a |> b", ("<>a -> <>b",)),
        ("v", "c -> a |> b", ("a |> b",)),
        ("vi", "a | <>a", ("[]bot -> a",)),
        ("vii", "top |> a", ("[]bot -> a",)),
    )
}


class RuleReport(NamedTuple):
    rule: str
    lhs: tuple[Verdict, ...]
    rhs: tuple[Verdict, ...]
    side: tuple[Verdict, ...]
    agree: bool | None

    def to_dict(self):
        return {
            "rule": self.rule,
            "lhs": [v.kind for v in self.lhs],
            "rhs": [v.kind for v in self.rhs],
            "side": [v.kind for v in self.side],
            "agree": self.agree,
        }


def check_rule(rule: str, instance, budget: Budget = DEFAULT_BUDGET) -> RuleReport:
    """Decide both sides of an admissibility equivalence on one instance.

    Instances: i/vi/vii take one formula A; ii/iii/iv take (A, B); v takes
    (list of A_i, A, B) and carries the side conditions that each A_i is
    consistent.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    lhs, rhs = RULES[rule]
    side: tuple[Verdict, ...] = ()
    if rule == "v":
        if len(instance) != 3 or not instance[0]:
            raise ValueError("rule v takes side formulas A_1 .. A_n (n >= 1), then A and B")
        ais, a, b = instance
        binding = {"a": a, "b": b, "c": conj([Diamond(ai) for ai in ais])}
        side = tuple(derivable(ILM, Neg(ai), budget) for ai in ais)
    else:
        names = sorted(atoms(lhs))
        if len(instance) != len(names):
            raise ValueError(f"rule {rule} takes {len(names)} formulas, got {len(instance)}")
        binding = dict(zip(names, instance))
    lhs_v = (derivable(ILM, substitute(lhs, binding), budget),)
    rhs_v = tuple(derivable(ILM, substitute(t, binding), budget) for t in rhs)
    agree: bool | None = None
    # a side formula A_i that is provably inconsistent (or undecided) makes
    # the rule inapplicable; the right sides are one OR (rule ii has two)
    if not any(v.holds is not False for v in side):
        r = False
        for v in rhs_v:
            r = _kleene("a | b", r, v.holds)
        agree = _kleene("a <-> b", lhs_v[0].holds, r)
    return RuleReport(rule, lhs_v, rhs_v, side, agree)


# --- essentially Delta_1 --------------------------------------------------------


class Delta1Report(NamedTuple):
    answer: str  # "top" | "bottom" | "no" | "unknown"
    top_verdict: Verdict
    bottom_verdict: Verdict
    cross_verdict: Verdict
    cross_agrees: bool | None

    def to_dict(self):
        return {
            "answer": self.answer,
            "top": self.top_verdict.kind,
            "bottom": self.bottom_verdict.kind,
            "cross": self.cross_verdict.kind,
            "cross_agrees": self.cross_agrees,
        }


def classify_delta1(f: Formula, budget: Budget = DEFAULT_BUDGET) -> Delta1Report:
    """Top iff f is derivable, Bottom iff ~f is, No if both are certified
    refutable. The disjunction-of-boxes route ([]f | []~f derivable) is
    computed as a cross-check."""
    t = derivable(ILM, f, budget)
    b = derivable(ILM, Neg(f), budget)
    cross = derivable(ILM, Or(Box(f), Box(Neg(f))), budget)
    if isinstance(t, Derivable):
        answer = "top"
    elif isinstance(b, Derivable):
        answer = "bottom"
    elif isinstance(t, Refuted) and isinstance(b, Refuted):
        answer = "no"
    else:
        answer = "unknown"
    ch = cross.holds
    agrees = None if (ch is None or answer == "unknown") else ch == (answer in ("top", "bottom"))
    return Delta1Report(answer, t, b, cross, agrees)


# --- essentially Sigma_1 ---------------------------------------------------------


class Sigma1Report(NamedTuple):
    answer: str  # "yes" | "no" | "unknown"
    reduction_query: Formula
    fresh: tuple[Formula, Formula]
    verdict: Verdict
    witness: Formula | None = None
    witness_note: str = ""
    countermodel: tuple[VeltmanModel, str] | None = None

    def to_dict(self):
        out = {
            "answer": self.answer,
            "reduction_query": render(self.reduction_query),
            "fresh": [render(self.fresh[0]), render(self.fresh[1])],
            "verdict": self.verdict.kind,
            "witness": render(self.witness) if self.witness is not None else None,
            "witness_note": self.witness_note,
        }
        if self.countermodel is not None:
            out["countermodel"] = model_to_dict(self.countermodel[0])
            out["countermodel_world"] = self.countermodel[1]
        return out


def sigma1_reduction_query(f: Formula) -> tuple[Formula, Formula, Formula]:
    p, q = fresh_atoms(f, 2)
    return Implies(Rhd(p, q), Rhd(And(p, f), And(q, f))), p, q


def _is_box_disjunction(f: Formula) -> bool:
    if f == BOT or isinstance(f, Box):
        return True
    if isinstance(f, Implies) and is_neg(f.left):  # expanded a | b
        return _is_box_disjunction(f.left.left) and _is_box_disjunction(f.right)
    return False


# how many witness shapes classify_sigma1 tries, each one derivability query
_WITNESS_CAP = 400


def _witness_candidates(f: Formula) -> Iterator[Formula]:
    subs = sorted(subformulas(f), key=Formula.key)
    base = [Top(), BOT] + subs + [Neg(s) for s in subs if not is_neg(s)]
    pool = list(dict.fromkeys(base))
    # built lazily: the witness loop mostly stops long before the cap
    cands = itertools.chain(
        [BOT],
        map(Box, pool),
        (Box(And(a, b)) for a, b in itertools.combinations(pool, 2)),
        (Or(Box(a), Box(b)) for a, b in itertools.combinations(pool, 2)),
    )
    return itertools.islice(cands, _WITNESS_CAP)


def _refutes(model: VeltmanModel, f: Formula, cand: Formula) -> bool:
    """Do f and cand differ at some world of the certified ILM model? ILM
    is sound for finite ILM frames, so then f <-> cand is not derivable."""
    ext = model.extensions([f, cand])
    return ext[f] != ext[cand]


def classify_sigma1(f: Formula, budget: Budget = DEFAULT_BUDGET) -> Sigma1Report:
    """yes iff the fresh-variable reduction query is derivable; on yes a
    disjunction-of-boxes equivalent is searched for (best effort, bounded);
    on no the engine's countermodel of the query is attached."""
    query, p, q = sigma1_reduction_query(f)
    v = derivable(ILM, query, budget)
    if isinstance(v, Refuted):
        return Sigma1Report("no", query, (p, q), v, countermodel=(v.model, v.world))
    if isinstance(v, Unknown):
        return Sigma1Report("unknown", query, (p, q), v)
    if _is_box_disjunction(f):
        return Sigma1Report("yes", query, (p, q), v, witness=f, witness_note="syntactic")
    # refuted candidates' countermodels, copied so no cached memo grows
    refuting: list[VeltmanModel] = []
    for cand in _witness_candidates(f):
        if any(_refutes(m, f, cand) for m in refuting):
            continue
        w = derivable(ILM, Iff(f, cand), budget)
        if isinstance(w, Derivable):
            return Sigma1Report("yes", query, (p, q), v, witness=cand, witness_note="certified")
        if isinstance(w, Refuted):
            refuting.append(VeltmanModel(w.model.frame, w.model.val))
    return Sigma1Report(
        "yes", query, (p, q), v, witness=None, witness_note="witness not found within bound"
    )


class Sigma1CountermodelError(RuntimeError):
    pass


class Sigma1Countermodel(NamedTuple):
    model: VeltmanModel
    world: str
    fresh: tuple[Formula, Formula]
    query: Formula


def sigma1_countermodel(
    f: Formula, budget: Budget = DEFAULT_BUDGET
) -> Sigma1Countermodel:
    """Build the seeded three-world countermodel for a non-Sigma_1 formula:
    a root below worlds l (with f) and r (with ~f and l's boxes), l S r at
    the root, completed by the construction with the root exempt from the
    box-growth invariant, then decorated with the two fresh atoms. A
    decorated model that is no ILM frame raises CertificationError."""
    D = adequate_closure([f])
    query, p, q = sigma1_reduction_query(f)
    pre = derivable(ILM, query, budget)
    if isinstance(pre, Derivable):
        raise ValueError("formula is essentially Sigma_1; no countermodel exists")

    try:
        for d0 in solve_theories(D, ILM, [(f, True)], walk=_TheoryIndex.preferred):
            d1_cs = [(f, False)] + [(b, True) for b in d0.boxes()]
            for d1 in solve_theories(D, ILM, d1_cs, walk=_TheoryIndex.preferred):
                for gamma in common_predecessor(d0, d1):
                    R, S = {("m0", "l"), ("m0", "r")}, {("m0", "l", "r")}
                    nu = {"m0": gamma, "l": d0, "r": d1}
                    frame = LabeledFrame(D, ILM, ["m0", "l", "r"], R, S, nu, exempt_root="m0")
                    base, st = complete_frame(frame, budget)
                    if base is None:
                        if st.cut:
                            raise Sigma1CountermodelError(
                                f"budget exhausted while completing the seed: {st.report()}"
                            )
                        continue
                    val = dict(base.val)
                    val["l"] = val["l"] | {p.name}
                    val["r"] = val["r"] | {q.name}
                    model = VeltmanModel(base.frame, val)
                    if not validate(model.frame, ILM).ok:
                        raise CertificationError(f"the countermodel completed for {render(f)} is no ilm frame")
                    if forces(model, "m0", query):
                        continue
                    return Sigma1Countermodel(model, "m0", (p, q), query)
        raise Sigma1CountermodelError(
            "no realizable theory pair (f in d0, boxes of d0 in d1, ~f in d1) "
            "completes to a certified model"
        )
    finally:
        # as in satisfiable: the caches hold D's theories, which point back
        # at D; the countermodel holds no theory
        D._sat_cache.clear()


# --- self provers and t.s.g.'s ---------------------------------------------------


def is_self_prover(f: Formula, budget: Budget = DEFAULT_BUDGET, logic: str = ILM) -> Verdict:
    """Does f imply its own provability?"""
    return derivable(logic, Implies(f, Box(f)), budget)


def is_tsg(f: Formula, budget: Budget = DEFAULT_BUDGET) -> Sigma1Report:
    """Is the generated self-prover f & []f essentially Sigma_1?"""
    return classify_sigma1(And(f, Box(f)), budget)


class TsgDecomposition(NamedTuple):
    """Modal disjunctive shape: disjuncts (phi_l, A_l) with phi_l a tuple of
    literals and diamond-style literals and A_l the merged box body, plus
    pure box disjuncts C_m."""

    conjuncts: tuple[tuple[tuple[Formula, ...], Formula], ...]
    boxes: tuple[Formula, ...]
    flags: tuple[str, ...]

    def formula(self) -> Formula:
        parts = [conj(list(phi) + [Box(a)]) for phi, a in self.conjuncts]
        parts += [Box(c) for c in self.boxes]
        return disj(parts)

    def box_part(self) -> Formula:
        return disj([Box(c) for c in self.boxes])


def _prime_implicants(n: int, m: int) -> list[tuple[int, int, int]]:
    """The prime implicants of the function of n atoms whose truth-table
    mask is m (atom i holds in row r when bit i of r is set), as (value,
    mask, rows): mask bits 1 where the atom is fixed, value bits 0 where it
    is free, and rows the mask of the rows the implicant covers. Blake's
    canonical form by cofactors on the last atom x: the primes of f are
    those of f0 & f1, with x free, and c & ~x or c & x for each prime c of
    f0 or f1 whose rows are not inside f0 & f1."""

    @lru_cache(maxsize=None)
    def primes(k: int, f: int) -> list[tuple[int, int, int]]:
        if not k:
            return [(0, 0, 1)] if f else []
        x = 1 << (k - 1)  # atom k-1's bit, and the number of rows where it is false
        f0, f1 = f & ((1 << x) - 1), f >> x
        both = f0 & f1
        return [
            *((v, mask, r | r << x) for v, mask, r in primes(k - 1, both)),
            *((v, mask | x, r) for v, mask, r in primes(k - 1, f0) if r & ~both),
            *((v | x, mask | x, r << x) for v, mask, r in primes(k - 1, f1) if r & ~both),
        ]

    return sorted(primes(n, m))


def _min_cover(primes, m: int) -> list[tuple[int, int, int]]:
    """The essential primes (the only prime covering some row of m), then
    greedily the prime covering most rows still left, ties to the smallest
    mask and then the smallest value: lazily, off a heap of (-count, mask,
    value) whose counts only fall, so a popped count still current is the
    greatest, and a stale one goes back brought up to date."""
    once = twice = 0
    for *_, rows in primes:
        twice |= once & rows
        once |= rows
    chosen = [p for p in primes if p[2] & ~twice]
    left = m
    for *_, rows in chosen:
        left &= ~rows
    heap = [(-(p[2] & left).bit_count(), p[1], p[0], p) for p in primes]
    heapq.heapify(heap)
    while left:
        count, mask, v, p = heapq.heappop(heap)
        now = (p[2] & left).bit_count()
        if now == -count:
            chosen.append(p)
            left &= ~p[2]
        elif now:
            heapq.heappush(heap, (-now, mask, v, p))
    return chosen


def canonical_modal_dnf(f: Formula) -> TsgDecomposition:
    """Reduced disjunctive normal form over the (at most TABLE_ATOMS = 18)
    modal atoms of f, with the positive boxes of each disjunct merged into
    one box. Disjuncts that cannot fit the required shape are flagged, not
    repaired."""
    modal = sorted(modal_atoms_of(f), key=Formula.key)
    n = len(modal)
    if n > TABLE_ATOMS:
        raise ValueError(f"too many modal atoms ({n})")
    # atom i holds in row r when bit i of r is set: truth_table's columns reversed
    m = boolean_masks([f], (1 << (1 << n)) - 1, dict(zip(modal, truth_table(n)[::-1])))[f]
    cover = _min_cover(_prime_implicants(n, m), m)
    conjuncts = []
    boxes = []
    flags: list[str] = []
    for v, mask, _ in sorted(cover):
        pos_boxes: list[Formula] = []
        lits: list[Formula] = []
        for i, a in enumerate(modal):
            if not (mask >> i) & 1:
                continue
            positive = bool((v >> i) & 1)
            if isinstance(a, Box) and positive:
                pos_boxes.append(a.body)
            else:
                lits.append(a if positive else Neg(a))
                if isinstance(a, Rhd):
                    flags.append(f"rhd literal in a disjunct: {render(a)}")
        if not lits and not pos_boxes:
            flags.append("empty disjunct (formula has a tautological case)")
            conjuncts.append(((), Top()))
        elif not lits:
            boxes.append(conj(pos_boxes))
        else:
            conjuncts.append((tuple(lits), conj(pos_boxes) if pos_boxes else Top()))
    return TsgDecomposition(tuple(conjuncts), tuple(boxes), tuple(dict.fromkeys(flags)))


class TsgReport(NamedTuple):
    equivalent: Verdict
    irredundant: tuple[Verdict, ...]
    shape_flags: tuple[str, ...]
    conclusion: Verdict

    @property
    def conditions_ok(self) -> bool | None:
        c1 = self.equivalent.holds
        c2: bool | None = True
        for v in self.irredundant:
            c2 = _kleene("a & ~b", c2, v.holds)
        return _kleene("a & b & c", c1, c2, not self.shape_flags)


def check_tsg_decomposition(
    f: Formula, d: TsgDecomposition, budget: Budget = DEFAULT_BUDGET
) -> TsgReport:
    """Verify the three decomposition conditions against the engine, then
    decide whether f & []f is equivalent to the pure box part."""
    equivalent = derivable(ILM, Iff(f, d.formula()), budget)
    irredundant = tuple(
        derivable(ILM, Implies(Box(a), f), budget) for _, a in d.conjuncts
    )
    conclusion = derivable(ILM, Iff(And(f, Box(f)), d.box_part()), budget)
    return TsgReport(equivalent, irredundant, d.flags, conclusion)


# --- almost-Löb and the two-sided check ------------------------------------------


class AlmostLoebReport(NamedTuple):
    witness: str | None  # "boxbot" | "bottom" | None | "unknown"
    boxbot_verdict: Verdict
    bottom_verdict: Verdict
    certificate: Verdict | None

    def to_dict(self):
        return {
            "witness": self.witness,
            "boxbot": self.boxbot_verdict.kind,
            "bottom": self.bottom_verdict.kind,
            "certificate": self.certificate.kind if self.certificate else None,
        }


def almost_loeb(f: Formula, budget: Budget = DEFAULT_BUDGET) -> AlmostLoebReport:
    """f & []~f is a disjunction of boxes iff []bot -> f or ~f is derivable;
    the matching equivalence ([]bot or bot) is certified alongside."""
    vb = derivable(ILM, Implies(Box(BOT), f), budget)
    vn = derivable(ILM, Neg(f), budget)
    core = And(f, Box(Neg(f)))
    if isinstance(vn, Derivable):
        cert = derivable(ILM, Iff(core, BOT), budget)
        return AlmostLoebReport("bottom", vb, vn, cert)
    if isinstance(vb, Derivable):
        cert = derivable(ILM, Iff(core, Box(BOT)), budget)
        return AlmostLoebReport("boxbot", vb, vn, cert)
    if isinstance(vb, Refuted) and isinstance(vn, Refuted):
        return AlmostLoebReport(None, vb, vn, None)
    return AlmostLoebReport("unknown", vb, vn, None)


class DaggerReport(NamedTuple):
    sigma_selfprover: Sigma1Report  # f & []f
    sigma_antiprover: Sigma1Report  # f & []~f
    sigma_f: Sigma1Report
    escape_verdict: Verdict  # f -> <>top
    dagger_holds: bool | None
    biconditional_ok: bool | None

    def to_dict(self):
        return {
            "sigma_f_and_box_f": self.sigma_selfprover.answer,
            "sigma_f_and_box_not_f": self.sigma_antiprover.answer,
            "sigma_f": self.sigma_f.answer,
            "f_implies_diamond_top": self.escape_verdict.kind,
            "dagger_holds": self.dagger_holds,
            "biconditional_ok": self.biconditional_ok,
        }


def dagger_check(f: Formula, budget: Budget = DEFAULT_BUDGET) -> DaggerReport:
    """Compute Sigma(f & []f), Sigma(f & []~f), Sigma(f) and f -> <>top, and
    check that [Sigma(f&[]f) and Sigma(f&[]~f) => Sigma(f)] holds exactly
    when [Sigma(f&[]f) => Sigma(f)] or f -> <>top is derivable."""
    s1 = classify_sigma1(And(f, Box(f)), budget)
    s2 = classify_sigma1(And(f, Box(Neg(f))), budget)
    s3 = classify_sigma1(f, budget)
    esc = derivable(ILM, Implies(f, Diamond(Top())), budget)
    # each answer is the verdict on its reduction query
    a1, a2, a3 = s1.verdict.holds, s2.verdict.holds, s3.verdict.holds
    dagger = _kleene("a & b -> c", a1, a2, a3)
    rhs = _kleene("(a -> b) | c", a1, a3, esc.holds)
    bic = _kleene("a <-> b", dagger, rhs)
    return DaggerReport(s1, s2, s3, esc, dagger, bic)
