"""Formulas of the interpretability language: ASTs, parsing, printing,
adequate sets.

Five primitive cases (bottom, atoms, implication, box, rhd). The derived
connectives ~, &, |, <->, top and <> are expanded into primitives at
construction time, so equality, subformula sets and single negations only
ever deal with the five primitive shapes. The printer recognises the
derived shapes again and emits the sugared form.
"""

from __future__ import annotations

import re
from typing import Iterable


class Formula:
    """A node of a formula tree. Immutable, hashable, structurally equal."""

    __slots__ = ("_hash", "_render", "size")

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return render(self)

    def key(self):
        """Canonical sort key: small formulas first, ties broken textually."""
        return (self.size, render(self))


class Bot(Formula):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(("bot",))
        self._render = None
        self.size = 1

    def __eq__(self, other):
        return isinstance(other, Bot)

    __hash__ = Formula.__hash__


class Atom(Formula):
    __slots__ = ("name",)

    _NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

    def __init__(self, name: str):
        if not self._NAME.match(name) or name in ("bot", "top"):
            raise ValueError(f"bad atom name: {name!r}")
        self.name = name
        self._hash = hash(("atom", name))
        self._render = None
        self.size = 1

    def __eq__(self, other):
        return isinstance(other, Atom) and self.name == other.name

    __hash__ = Formula.__hash__


class Implies(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash(("->", left._hash, right._hash))
        self._render = None
        self.size = 1 + left.size + right.size

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Implies)
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = Formula.__hash__


class Box(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula):
        self.body = body
        self._hash = hash(("[]", body._hash))
        self._render = None
        self.size = 1 + body.size

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Box) and self._hash == other._hash and self.body == other.body

    __hash__ = Formula.__hash__


class Rhd(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash(("|>", left._hash, right._hash))
        self._render = None
        self.size = 1 + left.size + right.size

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Rhd)
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = Formula.__hash__


BOT = Bot()


def Neg(a: Formula) -> Formula:
    return Implies(a, BOT)


def Top() -> Formula:
    return Implies(BOT, BOT)


def And(a: Formula, b: Formula) -> Formula:
    return Neg(Implies(a, Neg(b)))


def Or(a: Formula, b: Formula) -> Formula:
    return Implies(Neg(a), b)


def Iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


def Diamond(a: Formula) -> Formula:
    return Neg(Box(Neg(a)))


TOP = Top()


def is_neg(f: Formula) -> bool:
    return isinstance(f, Implies) and f.right == BOT


def single_neg(f: Formula) -> Formula:
    """~f, except that ~ of a negation strips it (never produces ~~f)."""
    if is_neg(f):
        return f.left
    return Neg(f)


def conj(parts: list[Formula]) -> Formula:
    """Right-nested conjunction of a non-empty list; [] gives top."""
    if not parts:
        return Top()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disj(parts: list[Formula]) -> Formula:
    """Right-nested disjunction; [] gives bot."""
    if not parts:
        return BOT
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def subformulas(f: Formula) -> frozenset[Formula]:
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, Implies):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Box):
            stack.append(g.body)
        elif isinstance(g, Rhd):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def is_rhd_free(f: Formula) -> bool:
    return not any(isinstance(g, Rhd) for g in subformulas(f))


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Bot, Atom)):
        return 0
    if isinstance(f, Implies):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, Box):
        return 1 + modal_depth(f.body)
    return 1 + max(modal_depth(f.left), modal_depth(f.right))


def modal_atoms_of(f: Formula) -> frozenset[Formula]:
    """Maximal non-Boolean subformulas: atoms, boxes and rhds reached by
    decomposing implications only."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Bot):
            continue
        if isinstance(g, Implies):
            stack.append(g.left)
            stack.append(g.right)
        else:
            out.add(g)
    return frozenset(out)


def eval_bool(f: Formula, assign) -> bool:
    """Evaluate under a truth assignment for the modal atoms of f."""
    if isinstance(f, Bot):
        return False
    if isinstance(f, Implies):
        return (not eval_bool(f.left, assign)) or eval_bool(f.right, assign)
    return assign[f]


def eval3(f: Formula, assign) -> bool | None:
    """Three-valued evaluation under a partial assignment (None = unknown)."""
    if isinstance(f, Bot):
        return False
    if isinstance(f, Implies):
        a = eval3(f.left, assign)
        if a is False:
            return True
        b = eval3(f.right, assign)
        if b is True:
            return True
        if a is True and b is False:
            return False
        return None
    return assign.get(f)


def substitute(t: Formula, binding) -> Formula:
    """The instance of template t: every atom of t, a metavariable, is
    replaced by the formula its name is bound to."""
    if isinstance(t, Atom):
        return binding[t.name]
    if isinstance(t, Implies):
        return Implies(substitute(t.left, binding), substitute(t.right, binding))
    if isinstance(t, Box):
        return Box(substitute(t.body, binding))
    if isinstance(t, Rhd):
        return Rhd(substitute(t.left, binding), substitute(t.right, binding))
    return t


def match(t: Formula, f: Formula, binding=None) -> dict[str, Formula] | None:
    """The least extension of binding under which f is the instance of
    template t, or None if there is none."""
    out = dict(binding or ())
    stack = [(t, f)]
    while stack:
        t, f = stack.pop()
        if isinstance(t, Atom):
            if out.setdefault(t.name, f) != f:
                return None
        elif type(t) is not type(f):
            return None
        elif isinstance(t, Box):
            stack.append((t.body, f.body))
        elif not isinstance(t, Bot):
            stack.append((t.right, f.right))
            stack.append((t.left, f.left))
    return out


def fresh_atoms(avoid: Formula, n: int) -> list[Formula]:
    """n atoms not occurring in `avoid`, deterministic given `avoid`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    used = atoms(avoid)
    out: list[Formula] = []
    i = 0
    while len(out) < n:
        name = f"q{i}"
        if name not in used:
            out.append(Atom(name))
        i += 1
    return out


class AdequateSet:
    """A finite set of formulas closed under subformulas and single
    negations. The closure step treats ~ as primitive: negations added for
    closure do not re-trigger subformula closure."""

    __slots__ = ("members", "sorted_members", "modal_atoms", "boxed_members", "_sat_cache")

    def __init__(self, members: Iterable[Formula]):
        self.members = frozenset(members)
        self.sorted_members = tuple(sorted(self.members, key=lambda f: f.key()))
        ma: set[Formula] = set()
        for f in self.members:
            ma |= modal_atoms_of(f)
        self.modal_atoms = tuple(sorted(ma, key=_atom_order_key))
        self.boxed_members = tuple(f for f in self.sorted_members if isinstance(f, Box))
        self._sat_cache = {}

    def __contains__(self, f: Formula) -> bool:
        return f in self.members

    def __len__(self) -> int:
        return len(self.sorted_members)

    def __eq__(self, other):
        return isinstance(other, AdequateSet) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"AdequateSet({len(self)} formulas)"


def _atom_order_key(f: Formula):
    # rhds first, then boxes, then propositional atoms: theory enumeration
    # assigns in this order, which lets axiom constraints prune early.
    rank = 0 if isinstance(f, Rhd) else (1 if isinstance(f, Box) else 2)
    return (rank, f.size, render(f))


def closure_subformulas(f: Formula) -> frozenset[Formula]:
    """Subformulas with ~ read as primitive: ~g contributes itself and the
    subformulas of g, never a bare bot."""
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if is_neg(g):
            stack.append(g.left)
        elif isinstance(g, Implies):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, Box):
            stack.append(g.body)
        elif isinstance(g, Rhd):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def adequate_closure(seed: Iterable[Formula]) -> AdequateSet:
    """Smallest superset of `seed` closed under subformulas and single
    negations. Idempotent and monotone."""
    subs: set[Formula] = set()
    for f in seed:
        subs |= closure_subformulas(f)
    out = set(subs)
    for f in subs:
        if not is_neg(f):
            out.add(Neg(f))
    return AdequateSet(out)


# --- parsing ---------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_UNICODE = {
    "⊥": "bot",
    "⊤": "top",
    "¬": "~",
    "∧": "&",
    "∨": "|",
    "→": "->",
    "↔": "<->",
    "□": "[]",
    "◇": "<>",
    "▷": "|>",
}

_MULTI = ("<->", "[]", "<>", "->", "|>")
_SINGLE = "~&|()"
_IDENT = re.compile(r"[a-z][a-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    toks: list[tuple[str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _UNICODE:
            t = _UNICODE[c]
            toks.append((t, i))
            i += 1
            continue
        for m in _MULTI:
            if text.startswith(m, i):
                toks.append((m, i))
                i += len(m)
                break
        else:
            if c in _SINGLE:
                toks.append((c, i))
                i += 1
            else:
                m2 = _IDENT.match(text, i)
                if not m2:
                    raise ParseError(f"unexpected character {c!r}", i)
                toks.append((m2.group(), i))
                i = m2.end()
    toks.append(("<end>", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.toks[self.pos][0]

    def where(self) -> int:
        return self.toks[self.pos][1]

    def eat(self, tok: str) -> None:
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}", self.where())
        self.pos += 1

    def formula(self) -> Formula:
        # <-> binds loosest, right-associative
        f = self.implication()
        if self.peek() == "<->":
            self.eat("<->")
            return Iff(f, self.formula())
        return f

    def implication(self) -> Formula:
        f = self.rhd()
        if self.peek() == "->":
            self.eat("->")
            return Implies(f, self.implication())
        return f

    def rhd(self) -> Formula:
        f = self.disjunction()
        if self.peek() == "|>":
            self.eat("|>")
            # non-associative: a second |> must be bracketed
            return Rhd(f, self.disjunction())
        return f

    def disjunction(self) -> Formula:
        f = self.conjunction()
        if self.peek() == "|":
            self.eat("|")
            return Or(f, self.disjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        if self.peek() == "&":
            self.eat("&")
            return And(f, self.conjunction())
        return f

    def unary(self) -> Formula:
        t = self.peek()
        if t == "~":
            self.eat("~")
            return Neg(self.unary())
        if t == "[]":
            self.eat("[]")
            return Box(self.unary())
        if t == "<>":
            self.eat("<>")
            return Diamond(self.unary())
        return self.atomic()

    def atomic(self) -> Formula:
        t = self.peek()
        if t == "bot":
            self.eat("bot")
            return BOT
        if t == "top":
            self.eat("top")
            return Top()
        if t == "(":
            self.eat("(")
            f = self.formula()
            self.eat(")")
            return f
        if _IDENT.fullmatch(t):
            self.eat(t)
            return Atom(t)
        raise ParseError(f"unexpected token {t!r}", self.where())


def parse(text: str) -> Formula:
    p = _Parser(text)
    try:
        f = p.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", p.where()) from None
    if p.peek() != "<end>":
        raise ParseError(f"trailing input {p.peek()!r}", p.where())
    return f


# --- printing --------------------------------------------------------------

_LEVEL = {"atom": 1000, "unary": 600, "&": 500, "|": 400, "|>": 300, "->": 200, "<->": 100}


def _sugar(f: Formula):
    """Classify a tree into the print form (op, children)."""
    if isinstance(f, Bot):
        return ("bot", ())
    if isinstance(f, Atom):
        return ("name", (f.name,))
    if isinstance(f, Box):
        return ("[]", (f.body,))
    if isinstance(f, Rhd):
        return ("|>", (f.left, f.right))
    # f is an implication; try the derived shapes, most specific first
    if f == TOP:
        return ("top", ())
    l, r = f.left, f.right
    if r == BOT:
        if isinstance(l, Box) and is_neg(l.body):
            return ("<>", (l.body.left,))
        if isinstance(l, Implies) and is_neg(l.right):
            a, b = l.left, l.right.left
            if (
                isinstance(a, Implies)
                and isinstance(b, Implies)
                and a.left == b.right
                and a.right == b.left
            ):
                return ("<->", (a.left, a.right))
            return ("&", (a, b))
        return ("~", (l,))
    if is_neg(l):
        return ("|", (l.left, r))
    return ("->", (l, r))


def _level(f: Formula) -> int:
    op = _sugar(f)[0]
    if op in ("bot", "top", "name"):
        return _LEVEL["atom"]
    if op in ("~", "[]", "<>"):
        return _LEVEL["unary"]
    return _LEVEL[op]


def render(f: Formula) -> str:
    """Minimal-parentheses text form; parse(render(f)) == f.

    Each node's text is cached on it. Nodes are rendered children first
    from an explicit stack, so no depth overflows: an expanded node goes
    back on the stack as (node, op, kids) under its print-form children."""
    if f._render is not None:
        return f._render
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            node, op, kids = g
            node._render = _text(op, kids)
        elif g._render is None:
            op, kids = _sugar(g)
            stack.append((g, op, kids))
            if op != "name":
                stack.extend(kids)
    return f._render


def _text(op: str, kids: tuple) -> str:
    """The text of one print-form node whose children are rendered."""
    if op in ("bot", "top"):
        return op
    if op == "name":
        return kids[0]
    if op in ("~", "[]", "<>"):
        body = kids[0]
        t = body._render
        if _level(body) < _LEVEL["unary"]:
            t = f"({t})"
        return op + t
    a, b = kids
    lvl = _LEVEL[op]
    ta, tb = a._render, b._render
    if op == "|>":
        # non-associative: bracket any |> child
        ta = f"({ta})" if _level(a) <= lvl else ta
        tb = f"({tb})" if _level(b) <= lvl else tb
    else:
        # right-associative binary
        ta = f"({ta})" if _level(a) <= lvl else ta
        tb = f"({tb})" if _level(b) < lvl else tb
    return f"{ta} {op} {tb}"
