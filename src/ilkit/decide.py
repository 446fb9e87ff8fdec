"""Decision engine for GL, IL and ILM, plus a Hilbert-style proof checker.

Satisfiability is decided by the model construction: seed a root theory
containing the query, repeatedly eliminate problems and deficiencies with
closure and invariant checking in between, backtrack over all candidate
extensions, and certify any finished model with an independent truth-lemma
and forcing re-check. Derivability is the complement of certified
satisfiability of the negation. Searches that hit a budget limit are
reported as Unknown, never converted into an answer.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .construction import (
    LabeledFrame,
    _finish,
    eliminate,
    fresh_candidate_theories,
    nogoods,
    seed_frame,
    verify_truth_lemma,
)
from .semantics import (
    GL,
    VeltmanModel,
    _engine_logic,
    check_logic,
    forces,
    validate,
)
from .syntax import (
    Box,
    Formula,
    Implies,
    Neg,
    adequate_closure,
    atoms,
    boolean_masks,
    is_rhd_free,
    match,
    modal_atoms_of,
    parse,
    render,
    substitute,
    TABLE_ATOMS,
    truth_table,
)
from .theory import AXIOMS, SCHEMATA, solve_theories


class Budget(NamedTuple):
    max_worlds: int = 16
    max_steps: int = 2500
    max_backtracks: int = 8000


DEFAULT_BUDGET = Budget()


class Sat(NamedTuple):
    model: VeltmanModel
    world: str


class Unsat(NamedTuple):
    pass


class Derivable(NamedTuple):
    proof: "Proof | None" = None

    kind = "derivable"
    holds = True


class Refuted(NamedTuple):
    model: VeltmanModel
    world: str

    kind = "refuted"
    holds = False


class Unknown(NamedTuple):
    report: tuple[tuple[str, int | str], ...]

    kind = "unknown"
    holds = None


Verdict = Derivable | Refuted | Unknown


class CertificationError(RuntimeError):
    """The search finished a model that fails certification: a fault of the
    engine, never an answer."""


class _State:
    """Search counters. `cut` is None until a budget limit cuts a branch,
    then the name of the first limit that did (a Budget field name).
    `cuts` counts every cut: a search cut by max_worlds goes on, so `cut`
    alone cannot tell whether a later subtree was cut too."""

    __slots__ = ("budget", "steps", "backtracks", "cut", "cuts", "observer")

    def __init__(self, budget: Budget, observer=None):
        self.budget = budget
        self.steps = 0
        self.backtracks = 0
        self.cut: str | None = None
        self.cuts = 0
        self.observer = observer

    def cut_by(self, limit: str) -> None:
        self.cut = self.cut or limit
        self.cuts += 1

    def report(self):
        return (
            ("limit", self.cut),
            ("steps", self.steps),
            ("backtracks", self.backtracks),
            ("max_worlds", self.budget.max_worlds),
            ("max_steps", self.budget.max_steps),
            ("max_backtracks", self.budget.max_backtracks),
        )


def _most_constrained(frame: LabeledFrame):
    """The open item with the fewest fresh candidates, the first of them on
    a tie; None if some item has none. Such an item can never be
    eliminated on any extension, so the frame is dead. It reads only the
    popcount of each answer's mask, so with a truth table the scan builds
    no candidate theory."""
    best = None
    for it in frame.worklist:
        n = fresh_candidate_theories(frame, it)[1].bit_count()
        if n == 0:
            return None
        if best is None or n < best[0]:
            best = (n, it)
    return best[1]


def _search(frame: LabeledFrame, st: _State) -> VeltmanModel | None:
    """Depth-first elimination search from a settled frame, as one loop.

    Each stack entry is an expanded frame's chosen item and the iterator of
    its children (settled extensions that eliminate the item). Every child
    taken is a step, every child that fails is a backtrack. A budget cut
    fails the frame at hand, and so each entry it unwinds still counts one
    backtrack for the child that failed under it. The model of a finished
    frame is returned only if it passes the truth lemma; a frame whose
    model fails it fails like a dead frame."""
    budget = st.budget
    stack: list[tuple[object, Iterator[LabeledFrame]]] = []
    while True:
        failed = True
        if not frame.worklist:
            model = frame.to_model()
            if verify_truth_lemma(model, frame.nu, frame.adequate):
                return model
        elif st.steps >= budget.max_steps:
            st.cut_by("max_steps")
        else:
            item = _most_constrained(frame)
            if item is not None:
                stack.append((item, eliminate(frame, item, st)))
                failed = False
        while stack:
            if failed:
                st.backtracks += 1
                spent = st.backtracks >= budget.max_backtracks
                if spent or st.steps >= budget.max_steps:
                    st.cut_by("max_backtracks" if spent else "max_steps")
                    stack.pop()
                    continue
            item, children = stack[-1]
            frame = next(children, None)
            if frame is not None:
                break
            stack.pop()
            failed = True
        else:
            return None
        st.steps += 1
        if st.observer is not None:
            st.observer("eliminated", item, frame)


# Answers by (logic, query, budget), oldest first; past _SAT_CACHE_SIZE
# entries the oldest is evicted, so a long-lived process stays bounded.
_sat_cache: dict[tuple[str, Formula, Budget], Sat | Unsat | Unknown] = {}
_SAT_CACHE_SIZE = 4096


def satisfiable(
    logic: str, f: Formula, budget: Budget = DEFAULT_BUDGET, observer=None
) -> Sat | Unsat | Unknown:
    """Search for a certified finite model of f.

    Sat carries a model and world that pass frame validation, a forcing
    check and the truth lemma. Unsat means the whole backtracking space was
    exhausted within the budget; Unknown means a limit cut the search. A
    found model that fails certification raises CertificationError.

    The roots are those `construction.nogoods` tries; each it skips is
    reported to the observer as ("skipped_root", None, theory).
    """
    check_logic(logic)
    if logic == GL and not is_rhd_free(f):
        raise ValueError("GL queries must not contain |>")
    key = (logic, f, budget)
    if observer is None:
        got = _sat_cache.get(key)
        if got is not None:
            return got
    eng = _engine_logic(logic)
    D = adequate_closure([f])
    st = _State(budget, observer)
    result: Sat | Unsat | Unknown | None = None
    try:
        for root in solve_theories(D, eng, [(f, True)], walk=lambda index, mask: nogoods(index, mask, st)):
            # a one-world seed has no edge, triple or label for any
            # invariant to read, so it needs no check
            frame = seed_frame(D, eng, root)
            if observer is not None:
                observer("root", None, frame)
            model = _search(frame, st)
            if model is not None:
                # the truth lemma's model, f's extension cached; rooted at the seed's world
                _certify(logic, model, frame.worlds[0], f)
                result = Sat(model, frame.worlds[0])
                break
            if st.cut:
                break
    finally:
        # the caches hold D's theories, and each theory points back at D:
        # dropping them here frees the query's theories without waiting
        # for the cyclic collector. No result holds a theory.
        D._sat_cache.clear()
    if result is None:
        result = Unknown(st.report()) if st.cut else Unsat()
    if observer is None:
        if len(_sat_cache) >= _SAT_CACHE_SIZE:
            del _sat_cache[next(iter(_sat_cache))]
        _sat_cache[key] = result
    return result


def complete_frame(
    frame: LabeledFrame, budget: Budget = DEFAULT_BUDGET
) -> tuple[VeltmanModel | None, "_State"]:
    """Run the elimination search from a prepared labeled frame; returns the
    finished frame's model (or None) and the search state with its counters.

    The search needs a settled frame: closed, free of quasi-frame
    violations and with a worklist of exactly its open items. The given
    frame is settled first (on a copy; settling a settled frame changes
    nothing); if it violates an invariant, no search runs and the answer
    is None with an uncut state."""
    st = _State(budget)
    frame = _finish(frame)
    return (None if frame is None else _search(frame, st)), st


def _certify(logic: str, model: VeltmanModel, world: str, f: Formula) -> None:
    """Raise CertificationError unless the model is a frame of the logic
    forcing f at world. The search already checked its truth lemma."""
    if not validate(model.frame, _engine_logic(logic)).ok:
        raise CertificationError(f"the model found for {render(f)} is no {logic} frame")
    if not forces(model, world, f):
        raise CertificationError(f"the model found for {render(f)} does not force it at {world}")


def derivable(logic: str, f: Formula, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Refuted iff the negation has a certified model (attached); Derivable
    iff that search is exhausted; Unknown on a budget cut."""
    res = satisfiable(logic, Neg(f), budget)
    if isinstance(res, Sat):
        return Refuted(res.model, res.world)
    if isinstance(res, Unsat):
        return Derivable()
    return res


def countermodel(logic: str, f: Formula, budget: Budget = DEFAULT_BUDGET):
    """The certificate of a Refuted verdict, as (model, world)."""
    v = derivable(logic, f, budget)
    if not isinstance(v, Refuted):
        raise ValueError(f"no countermodel: verdict is {v.kind}")
    return v.model, v.world


# --- axiom schemata -----------------------------------------------------------


_ARITY = {name: len(atoms(t)) for name, t in SCHEMATA.items()}


def axiom_instance(name: str, *args: Formula) -> Formula:
    """Build a schema instance; args are the substituted formulas."""
    if name not in SCHEMATA:
        raise ValueError(f"unknown schema {name!r}")
    if len(args) != _ARITY[name]:
        raise ValueError(f"{name} takes {_ARITY[name]} formulas, got {len(args)}")
    return substitute(SCHEMATA[name], dict(zip("abc", args)))


def _match_schema(name: str, f: Formula) -> bool:
    return match(SCHEMATA[name], f) is not None


def is_tautology(f: Formula) -> bool:
    """Propositional tautology over the modal atoms of f, at most TABLE_ATOMS."""
    atoms = modal_atoms_of(f)
    if len(atoms) > TABLE_ATOMS:
        raise ValueError(f"too many modal atoms ({len(atoms)})")
    full = (1 << (1 << len(atoms))) - 1
    return boolean_masks([f], full, dict(zip(atoms, truth_table(len(atoms)))))[f] == full


# --- proofs ---------------------------------------------------------------------


class ProofLine(NamedTuple):
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()


class Proof(NamedTuple):
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula


def check_proof(proof: Proof, logic: str) -> bool:
    """Every line a valid schema instance or rule application, with the
    axioms gated by the logic. GL proofs must stay rhd-free."""
    check_logic(logic)
    allowed = {"Taut", "MP", "Nec", *AXIOMS[logic]}
    for i, line in enumerate(proof.lines):
        for k in line.premises:
            if not (1 <= k <= i):
                raise ValueError(f"line {i + 1}: bad premise index {k}")
        if line.rule not in allowed:
            return False
        if logic == GL and not is_rhd_free(line.formula):
            return False
        if line.rule == "Taut":
            if not is_tautology(line.formula):
                return False
        elif line.rule == "MP":
            if len(line.premises) != 2:
                raise ValueError(f"line {i + 1}: MP needs two premises")
            imp = proof.lines[line.premises[0] - 1].formula
            ante = proof.lines[line.premises[1] - 1].formula
            if not (isinstance(imp, Implies) and imp.left == ante and imp.right == line.formula):
                return False
        elif line.rule == "Nec":
            if len(line.premises) != 1:
                raise ValueError(f"line {i + 1}: Nec needs one premise")
            prem = proof.lines[line.premises[0] - 1].formula
            if line.formula != Box(prem):
                return False
        else:
            if not _match_schema(line.rule, line.formula):
                return False
    return True


_LINE_RE = re.compile(r"\s*(\d+)\.\s*(.*?)\s*;\s*(\w+)\s*((?:\d+\s*)*)\s*$")


def parse_proof(text: str) -> Proof:
    """One line per step: `<index>. <formula> ; <rule>[ <premise indices>]`.
    A text with no such line proves nothing and raises ValueError."""
    lines: list[ProofLine] = []
    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        m = _LINE_RE.match(raw)
        if not m:
            raise ValueError(f"bad proof line: {raw!r}")
        idx, formula, rule, prems = m.groups()
        if int(idx) != len(lines) + 1:
            raise ValueError(f"line numbered {idx}, expected {len(lines) + 1}")
        lines.append(
            ProofLine(parse(formula), rule, tuple(int(t) for t in prems.split()))
        )
    if not lines:
        raise ValueError("proof has no lines")
    return Proof(tuple(lines))


def render_proof(proof: Proof) -> str:
    out = []
    for i, line in enumerate(proof.lines, start=1):
        prems = (" " + " ".join(str(k) for k in line.premises)) if line.premises else ""
        out.append(f"{i}. {render(line.formula)} ; {line.rule}{prems}")
    return "\n".join(out) + "\n"
