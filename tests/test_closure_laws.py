"""Closure laws of the logics as test oracles (metamorphic tests).

Each test takes the recorded default-budget verdicts of
tests/differential.json and asks the engine a related query whose
verdict a law fixes: an instance of a theorem, its necessitation, the
same formula under a stronger or a weaker logic, or the formula with its
atoms renamed. No law needs an oracle of its own. The related queries
run under a small budget, and a law is checked only where the engine
decides them: a verdict cut by the budget says nothing about the law.
A breach that comes as Refuted carries a certified countermodel.
"""

import json
import os
import random

from conftest import random_formula

from ilkit.decide import Budget, Derivable, Refuted, Unknown, derivable
from ilkit.semantics import GL, IL, ILM
from ilkit.syntax import Atom, Box, atoms, is_rhd_free, parse, render, substitute

# enough for most related queries, small enough that the Unknown ones
# stay cheap
_BUDGET = Budget(max_worlds=16, max_steps=300, max_backtracks=900)


def _rows(verdict=None, logic=None):
    """The default-budget rows of tests/differential.json, as (logic,
    formula, recorded verdict), with the given verdict and logic."""
    with open(os.path.join(os.path.dirname(__file__), "differential.json")) as fh:
        rows = json.load(fh)["rows"]
    return [
        (r["logic"], parse(r["query"]), r["verdict"])
        for r in rows
        if r["budget"] == [16, 2500, 8000]
        and r["verdict"] != "unknown"
        and r["verdict"] == (verdict or r["verdict"])
        and r["logic"] == (logic or r["logic"])
    ]


def _decided(logic, f):
    """The engine's verdict on f under the small budget, or None if cut."""
    v = derivable(logic, f, _BUDGET)
    return None if isinstance(v, Unknown) else v.kind


def test_uniform_substitution():
    # A derivable: no instance of A is refuted
    rng = random.Random(1)
    checked = 0
    for logic, f, _ in _rows("derivable"):
        binding = {a: random_formula(rng, 1, allow_rhd=logic != GL) for a in sorted(atoms(f))}
        g = substitute(f, binding)
        got = _decided(logic, g)
        assert got != Refuted.kind, (logic, render(f), render(g))
        checked += got is not None
    assert checked >= 150


def test_necessitation():
    # A derivable: []A is not refuted
    checked = 0
    for logic, f, _ in _rows("derivable"):
        got = _decided(logic, Box(f))
        assert got != Refuted.kind, (logic, render(f))
        checked += got is not None
    assert checked >= 140


def test_il_theorems_are_not_refuted_by_ilm():
    # IL is contained in ILM: IL derives A, so ILM does not refute it, and
    # ILM refutes A, so IL does not derive it
    checked = 0
    for _, f, _ in _rows("derivable", IL):
        got = _decided(ILM, f)
        assert got != Refuted.kind, render(f)
        checked += got is not None
    for _, f, _ in _rows("refuted", ILM):
        got = _decided(IL, f)
        assert got != Derivable.kind, render(f)
        checked += got is not None
    assert checked >= 70


def test_conservativity_on_rhd_free_formulas():
    # IL and ILM are conservative over GL: on a rhd-free formula the
    # decided verdicts of the three logics agree
    checked = 0
    for logic, f, verdict in _rows():
        if not is_rhd_free(f):
            continue
        for other in (GL, IL, ILM):
            if other != logic:
                got = _decided(other, f)
                assert got in (None, verdict), (logic, other, render(f))
                checked += got is not None
    assert checked >= 220


def test_atom_renaming_keeps_the_verdict():
    # a seeded permutation of the atoms per row
    rng = random.Random(2)
    checked = 0
    for logic, f, verdict in _rows():
        names = sorted(atoms(f))
        renamed = dict(zip(names, rng.sample(names, len(names))))
        g = substitute(f, {a: Atom(b) for a, b in renamed.items()})
        got = _decided(logic, g)
        assert got in (None, verdict), (logic, render(f), render(g))
        checked += got is not None
    assert checked >= 250
