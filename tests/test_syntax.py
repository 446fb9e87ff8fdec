import copy
import gc
import pickle
import sys

import pytest
from conftest import (
    closure_seeds,
    closure_subformulas,
    modal_depth,
    reference_adequate_closure,
    reference_depth,
    reference_value,
)
from hypothesis import given, strategies as st

from ilkit import syntax
from ilkit.syntax import (
    BOT,
    AdequateSet,
    And,
    Atom,
    Box,
    Diamond,
    Iff,
    Implies,
    Neg,
    Or,
    ParseError,
    Rhd,
    Top,
    adequate_closure,
    atoms,
    eval3,
    fresh_atoms,
    is_rhd_free,
    modal_atoms_of,
    parse,
    render,
    single_neg,
    subformulas,
    substitute,
)
from ilkit.theory import DTheory

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_bot():
    assert parse("bot") == BOT


def test_parse_j1_shape():
    f = parse("[](p -> q) -> (p |> q)")
    assert f == Implies(Box(Implies(p, q)), Rhd(p, q))


def test_parse_diamond_expands():
    assert parse("<>p") == Neg(Box(Neg(p)))


def test_parse_derived_connectives():
    assert parse("~p") == Implies(p, BOT)
    assert parse("p & q") == Neg(Implies(p, Neg(q)))
    assert parse("p | q") == Implies(Neg(p), q)
    assert parse("p <-> q") == And(Implies(p, q), Implies(q, p))
    assert parse("top") == Implies(BOT, BOT)


def test_parse_precedence():
    assert parse("~p & q -> r") == Implies(And(Neg(p), q), r)
    assert parse("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("[]p -> p |> q") == Implies(Box(p), Rhd(p, q))


def test_parse_unicode_aliases():
    assert parse("□(p → q) → (p ▷ q)") == parse("[](p -> q) -> (p |> q)")
    assert parse("¬p ∧ ◇q ∨ ⊤ ↔ ⊥") == parse("~p & <>q | top <-> bot")


def test_rhd_non_associative():
    with pytest.raises(ParseError):
        parse("p |> q |> r")
    assert parse("(p |> q) |> r") == Rhd(Rhd(p, q), r)


def test_parse_errors_have_position():
    with pytest.raises(ParseError) as e:
        parse("p -> ")
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse("p q")
    with pytest.raises(ParseError):
        parse("(p -> q")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p -> ", "unexpected token '<end>' (at position 5)"),
        ("p |> q |> r", "trailing input '|>' (at position 7)"),
        ("(p -> q", "expected ')', found '<end>' (at position 7)"),
        ("p < q", "unexpected character '<' (at position 2)"),
        ("p ▷ q ▷ r", "trailing input '|>' (at position 6)"),
        ("p q", "trailing input 'q' (at position 2)"),
        ("", "unexpected token '<end>' (at position 0)"),
        ("p & & q", "unexpected token '&' (at position 4)"),
        ("[] ", "unexpected token '<end>' (at position 3)"),
        ("~(p |> q |> r)", "expected ')', found '|>' (at position 9)"),
        ("p | > q", "unexpected character '>' (at position 4)"),
        ("P", "unexpected character 'P' (at position 0)"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message
    assert e.value.position == int(message.rsplit(" ", 1)[1][:-1])


def test_parse_too_deep_is_a_parse_error():
    # deeper than the interpreter's recursion limit: a ParseError, never a
    # RecursionError that would escape as a crash
    depth = sys.getrecursionlimit() + 100
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("~" * depth + "p")


def test_render_examples():
    assert render(BOT) == "bot"
    assert render(Rhd(p, q)) == "p |> q"
    assert render(Implies(Box(p), Box(Box(p)))) == "[]p -> [][]p"


def test_render_sugar():
    assert render(Neg(p)) == "~p"
    assert render(Diamond(p)) == "<>p"
    assert render(And(p, q)) == "p & q"
    assert render(Or(p, q)) == "p | q"
    assert render(Iff(p, q)) == "p <-> q"
    assert render(Top()) == "top"
    assert render(Neg(Neg(p))) == "~~p"


def test_render_parenthesization():
    assert render(Implies(Implies(p, q), r)) == "(p -> q) -> r"
    assert render(Implies(p, Implies(q, r))) == "p -> q -> r"
    assert render(And(Or(p, q), r)) == "(p | q) & r"
    assert render(Box(Implies(p, q))) == "[](p -> q)"


def test_render_deeper_than_the_parser_accepts():
    # parse rejects this nesting, so the chain is built in code; rendering
    # must not recurse once per level
    f = p
    for _ in range(3000):
        f = Neg(f)
    assert render(f) == "~" * 3000 + "p"
    g = Atom("q")
    for _ in range(1500):
        g = Box(Rhd(g, p))
    assert render(g) == "[](" * 1500 + "q" + " |> p)" * 1500


# hypothesis strategy over formula trees
_atoms = st.sampled_from([p, q, r, Atom("s0")])
_formulas = st.recursive(
    st.one_of(st.just(BOT), _atoms),
    lambda sub: st.one_of(
        st.builds(Implies, sub, sub),
        st.builds(Box, sub),
        st.builds(Rhd, sub, sub),
        st.builds(Neg, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(Diamond, sub),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_round_trip(f):
    assert parse(render(f)) == f


@given(_formulas)
def test_round_trip_is_ast_fixpoint(f):
    g = parse(render(f))
    assert parse(render(g)) == g


def test_closure_atom():
    d = adequate_closure([p])
    assert d.members == frozenset([p, Neg(p)])


def test_closure_box():
    d = adequate_closure([Box(p)])
    assert d.members == frozenset([Box(p), Neg(Box(p)), p, Neg(p)])


def test_closure_rhd():
    d = adequate_closure([Rhd(p, q)])
    assert d.members == frozenset([Rhd(p, q), Neg(Rhd(p, q)), p, Neg(p), q, Neg(q)])


def test_closure_idempotent_monotone():
    seed = [parse("[](p -> q) -> (p |> q)")]
    d1 = adequate_closure(seed)
    d2 = adequate_closure(d1.members)
    assert d1.members == d2.members
    bigger = adequate_closure(seed + [parse("<>r")])
    assert d1.members <= bigger.members


@given(st.lists(_formulas, max_size=4))
def test_closure_properties(seed):
    d = adequate_closure(seed)
    d2 = adequate_closure(d.members)
    assert d.members == d2.members
    # subformula-closed under the primitive-negation convention
    for f in d.members:
        for g in closure_subformulas(f):
            assert g in d.members
    # single negations present; the negation rule itself never adds ~~
    seed_subs = set()
    for f in seed:
        seed_subs |= closure_subformulas(f)
    from ilkit.syntax import is_neg

    for f in d.members:
        assert single_neg(f) in d.members
        if f not in seed_subs and is_neg(f) and is_neg(f.left):
            pytest.fail("double negation stored")


def test_closure_size_bound():
    seed = [parse("p |> q -> (p & []r) |> (q & []r)")]
    n_subs = len(set().union(*[subformulas(f) for f in seed]))
    d = adequate_closure(seed)
    assert len(d) <= 2 * n_subs


def test_boxed_members_cache():
    d = adequate_closure([parse("[]p -> [][]p")])
    assert set(d.boxed_members) == {f for f in d.members if isinstance(f, Box)}


def test_adequate_closure_matches_the_eager_reference():
    for seed in closure_seeds():
        D, ref = adequate_closure(seed), reference_adequate_closure(seed)
        assert D.members == ref.members and len(D) == len(ref.members)
        for field in ("modal_atoms", "boxed_members", "rhd_atoms", "existential_atoms"):
            assert getattr(D, field) == getattr(ref, field), field
        assert D.sorted_members == ref.sorted_members


def test_building_an_adequate_set_renders_only_its_modal_atoms():
    # fresh atom names, so no node here was rendered before; the modal
    # atoms' sort key renders them and the subformulas inside them
    f = parse("(xrender_a -> []~xrender_b) |> xrender_c -> ~[](xrender_a & xrender_c)")
    D = adequate_closure([f])
    inside = set().union(*map(subformulas, D.modal_atoms))
    assert {g for g in D.members if g._render is not None} <= inside
    assert f._render is None and Neg(f)._render is None
    assert len(D.sorted_members) == len(D) and f._render is not None


def test_fresh_atoms():
    f = And(p, Box(p))
    out = fresh_atoms(f, 2)
    assert len(out) == 2
    assert all(a.name not in atoms(f) for a in out)
    assert fresh_atoms(BOT, 1) == [Atom("q0")]
    g = Implies(Atom("q0"), Atom("q1"))
    out2 = fresh_atoms(g, 2)
    assert {a.name for a in out2}.isdisjoint({"q0", "q1"})
    # deterministic
    assert fresh_atoms(f, 2) == out


def test_misc_queries():
    f = parse("p |> q -> []r")
    assert not is_rhd_free(f)
    assert is_rhd_free(parse("[](p -> <>q)"))
    assert modal_depth(parse("[][]p -> <>p")) == 2
    assert modal_atoms_of(parse("p & []q -> (p |> q)")) == frozenset(
        [p, Box(q), Rhd(p, q)]
    )


@given(_formulas, _formulas)
def test_modal_atoms_of_several_is_the_union(f, g):
    assert modal_atoms_of(f, g) == modal_atoms_of(f) | modal_atoms_of(g)


@pytest.mark.parametrize(
    "members",
    [
        ["p -> q"],
        ["[]p -> q |> r", "~<>r", "bot"],
        ["p & []q", "[]q", "(p |> q) <-> []~r"],
    ],
)
def test_adequate_set_modal_atoms_are_the_members_union(members):
    fs = [parse(t) for t in members]
    D = AdequateSet(fs)
    union = set().union(*map(modal_atoms_of, fs))
    assert D.modal_atoms == tuple(sorted(union, key=lambda f: f.key()))


# --- hash-consing -------------------------------------------------------------


def test_equal_formulas_are_one_node():
    f = parse("[](p -> q) |> ~r & <>p")
    assert f is Rhd(Box(Implies(p, q)), And(Neg(r), Diamond(p)))
    assert f is parse(render(f))
    assert substitute(parse("[](a -> b) |> c"), {"a": p, "b": q, "c": And(Neg(r), Diamond(p))}) is f
    assert Atom("p") is p and Top() is Implies(BOT, BOT)


@pytest.mark.parametrize("text", ["bot", "p", "[]p -> q", "(p |> q) & <>~r"])
def test_pickle_and_copies_return_the_interned_node(text):
    f = parse(text)
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, f]) == [f, f]


def test_the_node_table_is_weak():
    gc.collect()
    before = len(syntax._NODES)
    fs = [Box(Atom(f"weak_{i}")) for i in range(5000)]
    assert len(syntax._NODES) == before + 10000
    del fs
    gc.collect()
    assert len(syntax._NODES) == before


def _neg_chain(n, f=p):
    for _ in range(n):
        f = Neg(f)
    return f


def test_deep_formulas_built_apart_are_equal():
    a, b = _neg_chain(3000), _neg_chain(3000)
    assert a == b and a is b
    assert a != _neg_chain(2999)


def test_modal_depth_at_any_depth():
    f = p
    for _ in range(1500):
        f = Box(Rhd(f, q))
    assert modal_depth(f) == 3000
    assert modal_depth(Implies(f, Box(f))) == 3001


def test_eval3_at_any_depth():
    assert eval3(_neg_chain(3001), {}) is None
    assert eval3(_neg_chain(3001), {p: False}) is True
    f = q
    for _ in range(3000):
        f = Implies(p, f)
    assert eval3(f, {p: True}) is None
    assert eval3(f, {p: True, q: False}) is False
    assert eval3(f, {p: False}) is True


@given(_formulas, st.randoms())
def test_the_evaluators_agree_with_a_recursive_reference(f, rng):
    D = adequate_closure([f])
    total = {a: rng.random() < 0.5 for a in D.modal_atoms}
    assign = {a: v for a, v in total.items() if rng.random() < 0.7}
    assert modal_depth(f) == reference_depth(f)
    assert eval3(f, assign) is reference_value(f, assign)
    t = DTheory(D, total)
    assert t.models(f) == reference_value(f, total)
    members = t.members
    assert members == {g for g in D.members if reference_value(g, total)}
    assert all(t.models(g) == (g in members) for g in D.sorted_members)
    # the theory evaluates into its own map, never into the caller's
    assert total.keys() == set(D.modal_atoms)
