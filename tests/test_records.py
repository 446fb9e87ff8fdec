"""The value records: their text, construction, equality and immutability."""

import pickle

import pytest

from ilkit.classify import Sigma1Report
from ilkit.construction import Problem
from ilkit.decide import Budget, Derivable, ProofLine, Unknown, Unsat
from ilkit.semantics import VeltmanFrame, VeltmanModel
from ilkit.syntax import parse


def test_repr_text():
    assert repr(Budget()) == "Budget(max_worlds=16, max_steps=2500, max_backtracks=8000)"
    assert repr(Unsat()) == "Unsat()"
    assert repr(Derivable()) == "Derivable(proof=None)"
    assert repr(Problem("w0", parse("~[]p"))) == "Problem(world='w0', formula=~[]p)"
    frame = VeltmanFrame.make(["a"], [("a", "a")], [("a", "a", "a")])
    assert repr(frame) == "VeltmanFrame(worlds=frozenset({'a'}), R=frozenset({('a', 'a')}), S=frozenset({('a', 'a', 'a')}))"
    assert repr(VeltmanModel(frame, {"a": frozenset()})) == f"VeltmanModel(frame={frame!r}, val={{'a': frozenset()}})"


def test_keyword_construction_and_defaults():
    f = parse("p")
    rep = Sigma1Report(answer="no", reduction_query=f, fresh=(f, f), verdict=Derivable())
    assert (rep.witness, rep.witness_note, rep.countermodel) == (None, "", None)
    assert ProofLine(f, "Taut").premises == ()
    assert ProofLine(formula=f, rule="MP", premises=(1, 2)).premises == (1, 2)
    assert Budget(max_steps=5) == Budget(16, 5, 8000)


def test_budget_is_a_value():
    # Budget is part of decide._sat_cache's key
    assert Budget(4, 10, 6) == Budget(4, 10, 6)
    assert hash(Budget(4, 10, 6)) == hash(Budget(4, 10, 6))
    assert {("ilm", Budget()): 1}[("ilm", Budget(16, 2500, 8000))] == 1


def test_records_are_tuples_of_their_fields():
    assert Budget() == (16, 2500, 8000)
    assert tuple(Unknown((("steps", 3),))) == ((("steps", 3),),)
    assert Unknown(()).kind == "unknown"


def test_frame_equality_is_by_field():
    a = VeltmanFrame.make(["a", "b"], [("a", "b")], [("a", "b", "b")])
    b = VeltmanFrame.make(["b", "a"], [("a", "b")], [("a", "b", "b")])
    assert a == b and hash(a) == hash(b)
    assert a != VeltmanFrame.make(["a", "b"])
    assert a.rows == ([0b10, 0], [[0, 0b10], [0, 0]])  # the cached rows live beside the fields


def test_model_equality_is_identity():
    frame = VeltmanFrame.make(["a"])
    m = VeltmanModel(frame, {"a": frozenset()})
    assert m == m
    assert m != VeltmanModel(frame, {"a": frozenset()})
    assert len({m, m}) == 1


@pytest.mark.parametrize(
    "record, field",
    [
        (Budget(), "max_steps"),
        (Problem("w0", parse("~[]p")), "world"),
        (VeltmanFrame.make(["a"]), "R"),
        (VeltmanModel.make(["a"]), "val"),
    ],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_frames_and_models_pickle():
    frame = VeltmanFrame.make(["a", "b"], [("a", "b")], [("a", "b", "b")])
    assert frame.rows  # the cached rows are not part of the pickled value
    assert pickle.loads(pickle.dumps(frame)) == frame
    model = pickle.loads(pickle.dumps(VeltmanModel(frame, {"a": frozenset({"p"}), "b": frozenset()})))
    assert (model.frame, model.val) == (frame, {"a": frozenset({"p"}), "b": frozenset()})
