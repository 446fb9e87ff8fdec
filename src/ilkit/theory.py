"""Finite surrogates of maximal consistent sets.

A DTheory fixes a truth value for every modal atom (propositional atom,
box or rhd formula) of an adequate set D; membership of a D-formula is its
Boolean value under that assignment, so exactly one of each complementary
pair is a member. Enumeration additionally imposes local axiom saturation:
every instance of a schema in SCHEMATA, the one table of the logics' axioms,
whose modal atoms all lie in D must come out true. Saturation is a sound
over-approximation of consistency; the decision engine's final truth-lemma
certification is the arbiter.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Iterable, Iterator

from .relation import bits
from .semantics import GL, IL, ILM, check_logic
from .syntax import (
    AdequateSet,
    Atom,
    BOT,
    Box,
    Formula,
    Rhd,
    atoms,
    boolean_masks,
    eval3,
    is_neg,
    match,
    modal_atoms_of,
    parse,
    single_neg,
    substitute,
    truth_table,
)

# The axiom schemata as templates: every atom is a metavariable (a, b, c).
SCHEMATA = {
    name: parse(text)
    for name, text in (
        ("L1", "[](a -> b) -> []a -> []b"),
        ("L2", "[]a -> [][]a"),
        ("L3", "[]([]a -> a) -> []a"),
        ("J1", "[](a -> b) -> a |> b"),
        ("J2", "(a |> b) & (b |> c) -> a |> c"),
        ("J3", "(a |> c) & (b |> c) -> (a | b) |> c"),
        ("J4", "a |> b -> <>a -> <>b"),
        ("J5", "<>a |> a"),
        ("M", "a |> b -> a & []c |> b & []c"),
    )
}
AXIOMS = {GL: ("L1", "L2", "L3")}
AXIOMS[IL] = AXIOMS[GL] + ("J1", "J2", "J3", "J4", "J5")
AXIOMS[ILM] = AXIOMS[IL] + ("M",)


def _plan(t: Formula) -> tuple[tuple[Formula, bool], ...]:
    """The order in which saturation finds t's modal atoms in D, as (atom,
    looked up) pairs: an atom whose metavariables are all bound is looked
    up, otherwise the one binding the most (the largest on a tie) is
    matched."""
    todo, bound, plan = set(modal_atoms_of(t)), set(), []
    while todo:
        g = max(todo, key=lambda g: (atoms(g) <= bound, len(atoms(g) - bound), g.key()))
        todo.remove(g)
        plan.append((g, atoms(g) <= bound))
        bound |= atoms(g)
    return tuple(plan)


# per logic, the templates that saturate theories, each with its plan: the
# axioms and, under IL and ILM, the derived principle A |> bot -> []~A
_DERIVED = parse("a |> bot -> []~a")
_SATURATED = {
    logic: tuple(
        (t, _plan(t)) for t in [SCHEMATA[n] for n in AXIOMS[logic]] + [_DERIVED] * (logic != GL)
    )
    for logic in AXIOMS
}

# an adequate set with at most this many modal atoms is answered from a truth
# table (_TheoryIndex); larger ones use the pruned search per query
_CACHE_ATOMS = 12


class TheoryError(ValueError):
    pass


class DTheory:
    """A maximal, Boolean-coherent, locally saturated subset of an adequate
    set. Its key is one integer: its values on D's modal atoms, the first
    atom in the most significant bit. When D is closed under subformulas,
    every other member is built from modal atoms that sort before it, so
    two theories first differ on a modal atom and key order is the order
    of their values on D's sorted members.

    Its one value map, `values`, starts as a copy of the assignment (a map
    or (atom, value) pairs over D's modal atoms), and `models` and
    `members` extend it with `boolean_masks` on one row, so a formula is
    evaluated once per theory. `boxes()` is kept too, built on first call."""

    __slots__ = ("adequate", "values", "_key", "_boxes")

    def __init__(self, adequate: AdequateSet, assignment):
        self.adequate = adequate
        self._boxes = None
        self.values = values = dict(assignment)
        key = 0
        for a in adequate.modal_atoms:
            key = 2 * key + values[a]
        self._key = key

    @property
    def members(self) -> frozenset[Formula]:
        # built on demand: a materialised adequate set holds thousands of
        # theories, and the modal atoms already fix membership
        fs = self.adequate.sorted_members
        values = boolean_masks(fs, 1, self.values)
        return frozenset(f for f in fs if values[f])

    def models(self, f: Formula) -> bool:
        """Truth of any Boolean combination over D's modal atoms: its value
        in `values`, a bool for a modal atom and 0 or 1 otherwise."""
        got = self.values.get(f)
        if got is None:
            got = boolean_masks([f], 1, self.values)[f]
        return got

    def boxes(self) -> tuple[Box, ...]:
        if self._boxes is None:
            self._boxes = tuple(f for f in self.adequate.boxed_members if self.values[f])
        return self._boxes

    def rhds(self) -> tuple[Rhd, ...]:
        return tuple(f for f in self.adequate.rhd_atoms if self.models(f))

    def key(self) -> int:
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, DTheory)
            and self._key == other._key
            and self.adequate == other.adequate
        )

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        shown = ", ".join(repr(f) for f in sorted(self.members, key=Formula.key))
        return f"DTheory({{{shown}}})"


class LoggedTheory(DTheory):
    """A theory as a new object that logs every `models` read in `reads`,
    in first-read order. The log starts with the theory's values on D's
    rhd and box atoms (`D.existential_atoms`) and is the first cache a
    read looks in: a formula read again is logged already. It equals and hashes
    as the theory it copies and shares its value map, so memos keyed on
    theories hit for either, and shares its `boxes()`, which reads only box
    atoms. The search gives each world it adds one, so a log holds the
    reads of exactly one world."""

    __slots__ = ("reads",)

    def __init__(self, t: DTheory):
        self.adequate, self.values = t.adequate, t.values
        self._key, self._boxes = t._key, t.boxes()
        self.reads = {a: t.values[a] for a in t.adequate.existential_atoms}

    def models(self, f: Formula) -> bool:
        got = self.reads.get(f)
        if got is None:
            got = self.reads[f] = DTheory.models(self, f)
        return got


def _norm_constraint(f: Formula, want: bool) -> tuple[Formula, bool]:
    while is_neg(f):
        f = f.left
        want = not want
    return f, want


def saturation_constraints(D: AdequateSet, logic: str) -> tuple[Formula, ...]:
    """Every instance of the logic's schemata (plus the derived principle
    under IL and ILM) whose modal atoms all lie in D, as formulas that must
    evaluate true. Cached per adequate set and logic."""
    check_logic(logic)
    cached = D._sat_cache.get(logic)
    if cached is not None:
        return cached
    by_type: dict[type, list[Formula]] = {}
    for f in D.modal_atoms:
        by_type.setdefault(type(f), []).append(f)
    out: list[Formula] = []
    for template, plan in _SATURATED[logic]:
        if any(type(g) not in by_type for g, _ in plan):
            continue  # D has no modal atom of some type the plan reads
        bindings: list[dict[str, Formula]] = [{}]
        for g, bound in plan:
            if bound:
                bindings = [b for b in bindings if substitute(g, b) in D.members]
            else:
                bindings = [
                    got
                    for b in bindings
                    for f in by_type.get(type(g), ())
                    if (got := match(g, f, b)) is not None
                ]
        out.extend(substitute(template, b) for b in bindings)
    result = tuple(dict.fromkeys(out))
    D._sat_cache[logic] = result
    return result


def _solve(
    D: AdequateSet, logic: str, constraints: Iterable[tuple[Formula, bool]]
) -> Iterator[int]:
    """The keys (as DTheory's) of the assignments over D's modal atoms
    satisfying saturation plus the given (formula, value) constraints, each
    built a bit at a time as its atoms are assigned: rhds first, then boxes,
    then propositional atoms, each kind in modal-atom order, which lets the
    axiom constraints prune early, so the keys do not come in order. A
    constraint is evaluated (`eval3`) at the root and after each step that
    sets one of its modal atoms, the only steps that can change its value."""
    want: dict[Formula, bool] = {}
    for f, v in constraints:
        f, v = _norm_constraint(f, v)
        prev = want.get(f)
        if prev is not None and prev != v:
            return
        want[f] = v
    pending = [(f, True) for f in saturation_constraints(D, logic)]
    pending.extend(want.items())
    n = len(D.modal_atoms)
    bit = {a: 1 << n - 1 - i for i, a in enumerate(D.modal_atoms)}
    atoms = sorted(D.modal_atoms, key=lambda a: (Rhd, Box, Atom).index(type(a)))

    def rec(i: int, key: int, assign: dict[Formula, bool], todo: list[tuple[Formula, bool, frozenset]]):
        still = []
        for c in todo:
            f, v, deps = c
            got = eval3(f, assign) if i == 0 or atoms[i - 1] in deps else None
            if got is None:
                still.append(c)
            elif got != v:
                return
        if i == n:
            yield key
            return
        a = atoms[i]
        for val, k in ((False, key), (True, key | bit[a])):
            assign[a] = val
            yield from rec(i + 1, k, assign, still)
        del assign[a]

    yield from rec(0, 0, {}, [(f, v, modal_atoms_of(f)) for f, v in pending])


class _RowTheories(dict):
    """Row j -> its DTheory, built from its key, row_keys[j], on first lookup."""

    __slots__ = ("adequate", "row_keys")

    def __init__(self, D: AdequateSet, keys: Sequence[int]):
        self.adequate, self.row_keys = D, keys

    def __missing__(self, j: int) -> DTheory:
        D = self.adequate
        row = zip(D.modal_atoms, map("1".__eq__, f"{self.row_keys[j]:0{len(D.modal_atoms)}b}"))
        t = self[j] = DTheory(D, row)
        return t


class _TheoryIndex:
    """Theories of D as rows over its modal atoms: row j's theory has key
    `keys[j]`, and keys ascend. The rows are D's truth table
    (`_theory_index`) or one `_solve` call's answers
    (`TheoryQuery.answers`). A formula's mask (`boolean_masks`) has the
    bits of the rows that make it true, and `valid` those of the rows
    meeting the constraints given.
    `levels[k]` has the valid rows with exactly k false rhd and box
    atoms, so walking the levels in turn, each in key order (`preferred`),
    is preference order: fewest false rhd and box atoms (each an
    existential still to witness) first, then by key. `theory(j)` is row
    j's DTheory, built from its key's bits on first use.
    Masks never go through DTheory.models, so a theory's value map holds
    only its modal atoms."""

    __slots__ = ("adequate", "keys", "full", "valid", "levels", "theory", "_masks", "_theories")

    def __init__(self, D: AdequateSet, keys: Sequence[int], masks, constraints=()):
        self.adequate, self.keys = D, keys
        self.full = (1 << len(keys)) - 1
        self._masks: dict[Formula, int] = dict(zip(D.modal_atoms, masks))
        self.valid = self.narrow(self.full, constraints)
        self._theories = _RowTheories(D, keys)
        self.theory = self._theories.__getitem__  # no Python call for a built row
        # a bit-parallel count of the false rhd and box atoms, one atom at
        # a time: a row moves up a level where the atom is false
        levels = [self.valid]
        for a in D.existential_atoms:
            off = self.full ^ self._masks[a]
            levels = [lo & ~off | up & off for lo, up in zip(levels + [0], [0] + levels)]
        self.levels = levels

    def mask(self, f: Formula) -> int:
        got = self._masks.get(f)
        return boolean_masks([f], self.full, self._masks)[f] if got is None else got

    def narrow(self, m: int, constraints: Iterable[tuple[Formula, bool]]) -> int:
        """m restricted to the rows meeting every constraint."""
        for f, v in constraints:
            if not m:
                break
            fm = self.mask(f)
            m &= fm if v else self.full ^ fm
        return m

    def walk(self, m: int) -> Iterator[DTheory]:
        """The theories of the rows in mask m, in key order."""
        return map(self.theory, bits(m))

    def preferred(self, m: int) -> Iterator[DTheory]:
        """The theories of the rows in mask m, in preference order: the
        levels in turn, each in key order, so a row's DTheory is built
        only when the walk reaches it."""
        return (t for level in self.levels for t in self.walk(m & level))


def _theory_index(D: AdequateSet, logic: str) -> _TheoryIndex | None:
    """The truth-table index of D, built on first use; None when D has
    more than _CACHE_ATOMS modal atoms."""
    n = len(D.modal_atoms)
    if n > _CACHE_ATOMS:
        return None
    key = ("__index__", logic)
    cached = D._sat_cache.get(key)
    if cached is None:
        sat = ((f, True) for f in saturation_constraints(D, logic))
        cached = D._sat_cache[key] = _TheoryIndex(D, range(1 << n), truth_table(n), sat)
    return cached


class TheoryQuery:
    """The DTheories of D meeting a conjunction of (formula, value)
    constraints. Every answer is a mask over a `_TheoryIndex`
    (`answers`). With at most _CACHE_ATOMS modal atoms the query is that
    mask over the truth table, and `where` ANDs only the new constraints,
    so a base shared by many candidates is built once. Above the cap it
    keeps its constraints, `where` and `is_empty` use the early-exit
    `_solve`, and an answer indexes one `_solve` call's keys."""

    __slots__ = ("adequate", "logic", "_index", "_mask", "_constraints")

    def __init__(
        self, D: AdequateSet, logic: str, constraints: Iterable[tuple[Formula, bool]] = ()
    ):
        self.adequate = D
        self.logic = logic
        self._index = _theory_index(D, logic)
        if self._index is None:
            self._mask = None
            self._constraints = tuple(constraints)
        else:
            self._mask = self._index.narrow(self._index.valid, constraints)
            self._constraints = ()

    def where(self, constraints: Iterable[tuple[Formula, bool]]) -> "TheoryQuery":
        q = TheoryQuery.__new__(TheoryQuery)
        q.adequate, q.logic, q._index = self.adequate, self.logic, self._index
        q._mask, q._constraints = self._mask, self._constraints
        if self._index is None:
            q._constraints += tuple(constraints)
        else:
            q._mask = self._index.narrow(self._mask, constraints)
        return q

    def is_empty(self) -> bool:
        if self._index is not None:
            return not self._mask
        return next(_solve(self.adequate, self.logic, self._constraints), None) is None

    def answers(self) -> tuple[_TheoryIndex, int]:
        """(index, mask) of the answers. Above the cap the index is new: its
        rows are one `_solve` call's keys, sorted, all in the mask."""
        if self._index is not None:
            return self._index, self._mask
        D = self.adequate
        keys, n = sorted(_solve(D, self.logic, self._constraints)), len(D.modal_atoms)
        # atom i's mask: column i of the keys' bits, the last row first
        cols = zip(*(f"{k:0{n}b}" for k in reversed(keys)))
        masks = [int("".join(c), 2) for c in cols] or [0] * n
        index = _TheoryIndex(D, keys, masks)
        return index, index.valid


def solve_theories(
    D: AdequateSet,
    logic: str,
    constraints: Iterable[tuple[Formula, bool]] = (),
    walk: Callable[[_TheoryIndex, int], Iterable[DTheory]] = _TheoryIndex.walk,
) -> Iterator[DTheory]:
    """Stream of DTheories satisfying the constraints: what walk yields
    for the (index, mask) of the answers, by default them all in key
    order (`_TheoryIndex.preferred` gives preference order, the search's
    `construction.nogoods` the roots it tries). The search asks for its
    roots and the sigma1 drivers for their theories here, so the theory
    layer's time and answers are counted in one place."""
    yield from walk(*TheoryQuery(D, logic, constraints).answers())


def enumerate_theories(
    D: AdequateSet,
    include: Iterable[Formula] = (),
    exclude: Iterable[Formula] = (),
    logic: str = ILM,
) -> Iterator[DTheory]:
    """Every DTheory consistent with the membership/exclusion constraints,
    in key order; empty stream if unsatisfiable. Neither ilkit nor its
    tests call it, and the package does not export it: it stays only
    because the benchmark's tracer wraps it by name."""
    cs = [(f, True) for f in include] + [(f, False) for f in exclude]
    return solve_theories(D, logic, cs)


def _same_adequate(g: DTheory, d: DTheory) -> None:
    if g.adequate is not d.adequate and g.adequate != d.adequate:
        raise TheoryError("theories over different adequate sets")


def succ(g: DTheory, d: DTheory) -> bool:
    """The successor relation: every box of g persists, with its body."""
    _same_adequate(g, d)
    return all(d.models(b.body) and d.models(b) for b in g.boxes())


def box_incl(g: DTheory, d: DTheory) -> bool:
    """Box inclusion: every box of g is a box of d."""
    _same_adequate(g, d)
    return all(d.models(b) for b in g.boxes())


def crit_succ(g: DTheory, c: Formula, d: DTheory) -> bool:
    """The c-critical successor relation.

    For c = bot this is exactly succ. Otherwise, on top of succ, d avoids c
    itself and the left side of every member of g interpreting into c; the
    boxed halves of those avoidances are required as members whenever the
    adequate set can express them (outside it they live on as frame-level
    successor obligations).
    """
    return succ(g, d) and all(
        d.models(f) and (Box(f) not in g.adequate.members or d.models(Box(f)))
        for f in crit_obligations(g, c)
    )


def crit_obligations(g: DTheory, c: Formula) -> tuple[Formula, ...]:
    """Successor-obligation formulas a c-critical successor of g carries:
    the boxed halves of the critical-successor definition, rendered as
    'holds at every later world' constraints. Memoised per adequate set:
    a search asks again on every frame that holds the same world. It reads
    g only through `rhds()`, whose values every LoggedTheory's log starts
    with, so a memo hit hides no read a search's nogoods need."""
    if c == BOT:
        return ()
    memo = g.adequate._sat_cache.setdefault("__crit_obligations__", {})
    got = memo.get((g, c))
    if got is None:
        out = [single_neg(c)]
        out.extend(single_neg(r.left) for r in g.rhds() if r.right == c)
        got = memo[g, c] = tuple(dict.fromkeys(out))
    return got


def _succ_constraints(g: DTheory) -> list[tuple[Formula, bool]]:
    cs: list[tuple[Formula, bool]] = []
    for b in g.boxes():
        cs.append((b.body, True))
        cs.append((b, True))
    return cs


def common_predecessor(d0: DTheory, d1: DTheory) -> Iterator[DTheory]:
    """ILM theories g with succ(g, d0) and succ(g, d1)."""
    _same_adequate(d0, d1)
    D = d0.adequate
    cs: list[tuple[Formula, bool]] = []
    for b in D.boxed_members:
        if not (d0.models(b.body) and d0.models(b) and d1.models(b.body) and d1.models(b)):
            cs.append((b, False))
    yield from solve_theories(D, ILM, cs)
