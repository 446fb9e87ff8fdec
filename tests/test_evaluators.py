"""The memo contract of the three formula evaluators, which every cache
that feeds them relies on: `syntax.boolean_masks` (truth-table masks and
a theory's values), `semantics._extensions` (forcing, the truth lemma and
`frame_validates`) and `syntax.eval3` (the above-cap theory solver).

  - an entry already in the given map is taken as given, not recomputed;
  - every subformula reached enters the map, bot as 0;
  - eval3 reads its assignment and neither copies nor changes it."""

import random

import pytest
from conftest import boolean_kids, random_formula, random_transitive_dag, reference_value

from ilkit.construction import close_frame
from ilkit.relation import reach
from ilkit.semantics import IL, ILM, VeltmanFrame, VeltmanModel, _extensions, forces
from ilkit.syntax import (
    BOT,
    Atom,
    Box,
    Implies,
    Neg,
    Rhd,
    adequate_closure,
    boolean_masks,
    eval3,
    subformulas,
)

p, q = Atom("p"), Atom("q")


class _ReadOnly(dict):
    """An assignment that fails the test if it is copied or written."""

    def _refuse(self, *_):
        raise AssertionError("the assignment was copied or changed")

    keys = __iter__ = __setitem__ = __delitem__ = update = _refuse


def test_a_seeded_entry_is_taken_as_given():
    # p -> q holds on both rows, but the seeded entry says it holds on none
    imp = Implies(p, q)
    masks = boolean_masks([Neg(imp)], 0b11, {p: 0b01, q: 0b10, imp: 0})
    assert masks[imp] == 0 and masks[Neg(imp)] == 0b11
    assert boolean_masks([imp], 0b11, {imp: 0})[imp] == 0
    # []p holds at both worlds of a model with p nowhere: seeded as false
    # at both, so ~[]p is true at both
    m = VeltmanModel.make(["a", "b"], [("a", "b")], [("a", "b", "b")])
    got = _extensions(m.frame, [Neg(Box(p))], 1, m.val, {Box(p): 0})
    assert got[Box(p)] == 0 and got[Neg(Box(p))] == 0b11
    assert _extensions(m.frame, [Box(p)], 1, m.val, {Box(p): 0})[Box(p)] == 0
    # a seeded implication, at the root or inside, is read off assign
    assign = _ReadOnly({p: False, imp: False})
    assert eval3(Neg(imp), assign) is True
    assert eval3(imp, assign) is False
    assert eval3(Implies(Neg(imp), q), _ReadOnly({q: False, Neg(imp): False})) is True


def test_every_subformula_enters_the_map():
    rng = random.Random(32)
    for _ in range(200):
        f = random_formula(rng, 3)
        modal = sorted(reach([f], boolean_kids) - {BOT}, key=lambda g: g.key())
        modal = [g for g in modal if not isinstance(g, Implies)]
        rows = [{a: bool(r >> i & 1) for i, a in enumerate(modal)} for r in range(1 << len(modal))]
        masks = {a: sum(1 << r for r, row in enumerate(rows) if row[a]) for a in modal}
        got = boolean_masks([f], (1 << len(rows)) - 1, masks)
        assert got is masks
        boolean = reach([f], boolean_kids)
        assert boolean <= got.keys()
        for g in boolean:
            assert got[g] == sum(1 << r for r, row in enumerate(rows) if reference_value(g, row))
        if BOT in boolean:
            assert got[BOT] == 0

        worlds = [f"w{i}" for i in range(rng.randint(1, 4))]
        frame = close_frame(VeltmanFrame.make(worlds, random_transitive_dag(rng, worlds)), ILM)
        val = {w: frozenset(a for a in "pqr" if rng.random() < 0.5) for w in worlds}
        m = VeltmanModel(frame, val)
        ext = _extensions(frame, [f], 1, val, {})
        assert subformulas(f) <= ext.keys()
        ix = frame.index
        for g in subformulas(f):
            assert all((ext[g] >> ix[w] & 1) == forces(m, w, g) for w in worlds)
        if BOT in ext:
            assert ext[BOT] == 0


def test_eval3_leaves_the_assignment_as_it_was():
    rng = random.Random(33)
    for _ in range(300):
        f = random_formula(rng, 3)
        D = adequate_closure([f])
        assign = {a: rng.random() < 0.5 for a in D.modal_atoms if rng.random() < 0.6}
        before = dict(assign)
        assert eval3(f, _ReadOnly(assign)) is reference_value(f, assign)
        assert assign == before and BOT not in assign


def test_lanes_agree_with_one_valuation_at_a_time():
    # lane l of a many-lane extension is the one-lane extension under
    # valuation l, on closed seeded frames of both logics
    rng = random.Random(34)
    for i in range(60):
        logic = (IL, ILM)[i % 2]
        worlds = [f"w{j}" for j in range(rng.randint(1, 5))]
        R = random_transitive_dag(rng, worlds)
        # z after y, so that the ILM closure makes no R loop
        S = {(x, y, z) for x, y in sorted(R) for x2, z in sorted(R) if x2 == x and y <= z and rng.random() < 0.3}
        frame = close_frame(VeltmanFrame.make(worlds, R, S), logic)
        f = random_formula(rng, 3)
        lanes = rng.randint(2, 6)
        vals = [{w: frozenset(a for a in "pqr" if rng.random() < 0.5) for w in worlds} for _ in range(lanes)]
        ix = frame.index
        got = {
            Atom(a): sum(1 << ix[w] * lanes + l for l, val in enumerate(vals) for w in worlds if a in val[w])
            for a in "pqr"
        }
        wide = _extensions(frame, [f], lanes, {}, got)[f]
        for l, val in enumerate(vals):
            one = _extensions(frame, [f], 1, val, {})[f]
            assert all((wide >> ix[w] * lanes + l & 1) == (one >> ix[w] & 1) for w in worlds), (frame, f, l)


@pytest.mark.parametrize("atom", [q, Box(p), Rhd(p, q)])
def test_a_modal_atom_missing_from_the_masks_raises(atom):
    with pytest.raises(KeyError):
        boolean_masks([Implies(p, Implies(atom, BOT))], 1, {p: 1})
