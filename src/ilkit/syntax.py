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
import weakref
from functools import reduce
from typing import Iterable

from .relation import reach


class Formula:
    """A node of a formula tree. Immutable and hash-consed: the constructors
    return the one live node of each shape, so equal formulas are the same
    object, and equality and hashing are the object defaults (identity).
    Pickle, copy and deepcopy go back through the constructor."""

    __slots__ = ("_render", "size", "__weakref__")

    def __repr__(self) -> str:
        return render(self)

    def __reduce__(self):
        return type(self), (self.name,) if isinstance(self, Atom) else _kids(self)

    def key(self):
        """Canonical sort key: small formulas first, ties broken textually."""
        return (self.size, render(self))


# (class, *constructor arguments) -> a weak reference to the live node of
# that shape. When the node dies, the reference's callback drops the entry,
# unless a new node of that shape has taken it.
_NODES: dict[tuple, weakref.KeyedRef] = {}


def _forget(ref: weakref.KeyedRef) -> None:
    if _NODES.get(ref.key) is ref:
        del _NODES[ref.key]


def _new(key: tuple, size: int) -> Formula:
    """A node of class key[0] and the given size, put in the table; the
    caller sets its fields."""
    node = object.__new__(key[0])
    node._render, node.size = None, size
    _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


class Bot(Formula):
    __slots__ = ()

    def __new__(cls):
        return BOT


class Atom(Formula):
    __slots__ = ("name",)

    _NAME = re.compile(r"[a-z][a-z0-9_]*\Z")

    def __new__(cls, name: str):
        ref = _NODES.get((cls, name))
        if ref is None and (not cls._NAME.match(name) or name in ("bot", "top")):
            raise ValueError(f"bad atom name: {name!r}")
        node = ref and ref()
        if node is None:
            node = _new((cls, name), 1)
            node.name = name
        return node


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        # built inline: closure makes one implication per fresh negation
        key = (cls, left, right)
        ref = _NODES.get(key)
        node = ref and ref()
        if node is None:
            node = object.__new__(cls)
            node._render, node.size = None, 1 + left.size + right.size
            node.left, node.right = left, right
            _NODES[key] = weakref.KeyedRef(node, _forget, key)
        return node


class Implies(_Binary):
    __slots__ = ()


class Rhd(_Binary):
    __slots__ = ()


class Box(Formula):
    __slots__ = ("body",)

    def __new__(cls, body: Formula):
        ref = _NODES.get((cls, body))
        node = ref and ref()
        if node is None:
            node = _new((cls, body), 1 + body.size)
            node.body = body
        return node


BOT = _new((Bot,), 1)


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
    """Right-nested conjunction of a list; [] gives top."""
    return reduce(lambda out, p: And(p, out), reversed(parts[:-1]), parts[-1]) if parts else TOP


def disj(parts: list[Formula]) -> Formula:
    """Right-nested disjunction of a list; [] gives bot."""
    return reduce(lambda out, p: Or(p, out), reversed(parts[:-1]), parts[-1]) if parts else BOT


def _kids(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of f."""
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, Box):
        return (f.body,)
    return ()


def subformulas(f: Formula) -> frozenset[Formula]:
    return frozenset(reach([f], _kids))


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def is_rhd_free(f: Formula) -> bool:
    return not any(isinstance(g, Rhd) for g in subformulas(f))


def modal_atoms_of(*fs: Formula) -> frozenset[Formula]:
    """Maximal non-Boolean subformulas of fs: atoms, boxes and rhds reached
    by decomposing implications only."""
    seen, stack = set(), list(fs)
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            if type(g) is Implies:
                stack += (g.left, g.right)
    return frozenset(g for g in seen if type(g) is not Implies and g is not BOT)


def eval3(f: Formula, assign) -> bool | None:
    """Three-valued evaluation under a partial assignment of modal atoms
    (None = unknown). assign is read, never copied: its entry for any
    formula is taken as given, and a modal atom it lacks is open. An
    implication stays on an explicit stack under a child still to value."""
    got: dict = {BOT: False}  # also the sentinel for "not valued yet"
    if type(f) is not Implies or f in assign:
        return assign.get(f, got.get(f))
    stack = [f]
    while stack:
        g = stack[-1]
        l, r = g.left, g.right
        a = assign.get(l, got.get(l, got if type(l) is Implies else None))
        b = assign.get(r, got.get(r, got if type(r) is Implies else None))
        if a is got:
            stack.append(l)
        elif b is got:
            stack.append(r)
        else:
            got[g] = True if a is False or b is True else None if a is None or b is None else False
            stack.pop()
    return got[f]


TABLE_ATOMS = 18  # the most atoms a truth table is built over: 2^18 rows, 32 KB a mask


def truth_table(n: int) -> list[int]:
    """The truth table over n variables as column masks of its 2^n rows:
    row r gives variable i the value of bit n-1-i of r, so column i is
    runs of 2^(n-1-i) rows false, then as many true, built by doubling."""
    rows, out = 1 << n, []
    for i in range(n):
        run = rows >> (i + 1)
        m, width = ((1 << run) - 1) << run, 2 * run
        while width < rows:
            m |= m << width
            width *= 2
        out.append(m)
    return out


def boolean_masks(fs, full: int, masks: dict) -> dict:
    """masks (modal atom -> mask of the rows of `full` where it holds),
    extended to fs and their Boolean subformulas: bot is 0 and A -> B is
    full & ~A | B. An entry already in masks is taken as given, and a
    modal atom missing from it raises KeyError. An implication stays on
    an explicit stack under a child still to mask."""
    stack = list(fs)
    while stack:
        g = stack[-1]
        if g in masks:
            stack.pop()
        elif type(g) is Implies:
            a, b = masks.get(g.left), masks.get(g.right)
            if a is None or b is None:
                stack.append(g.left if a is None else g.right)
            else:
                masks[g] = full & ~a | b
                stack.pop()
        elif g is BOT:
            masks[g] = 0
        else:
            raise KeyError(g)
    return masks


def substitute(t: Formula, binding) -> Formula:
    """The instance of template t: every atom of t, a metavariable, is
    replaced by the formula its name is bound to."""
    if isinstance(t, Atom):
        return binding[t.name]
    if isinstance(t, _Binary):
        return type(t)(substitute(t.left, binding), substitute(t.right, binding))
    if isinstance(t, Box):
        return Box(substitute(t.body, binding))
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
    closure do not re-trigger subformula closure.

    Only the modal atoms are sorted (by `Formula.key`) at construction;
    `boxed_members`, `rhd_atoms` and `existential_atoms` filter them, so
    they share that order. `sorted_members`, all members in key order, is
    built on first use: the key renders a formula, and most members (the
    fresh negations) are never printed. `modal_atoms`, when given, must be
    `modal_atoms_of(*members)`; `adequate_closure` passes the ones it met
    on its walk."""

    __slots__ = (
        "members", "_sorted_members", "modal_atoms", "boxed_members",
        "rhd_atoms", "existential_atoms", "_sat_cache",
    )

    def __init__(self, members: Iterable[Formula], modal_atoms: Iterable[Formula] | None = None):
        self.members = frozenset(members)
        self._sorted_members = None
        if modal_atoms is None:
            modal_atoms = modal_atoms_of(*self.members)
        self.modal_atoms = atoms = tuple(sorted(modal_atoms, key=Formula.key))
        self.boxed_members = tuple(a for a in atoms if isinstance(a, Box) and a in self.members)
        self.rhd_atoms = tuple(a for a in atoms if isinstance(a, Rhd))
        self.existential_atoms = tuple(a for a in atoms if isinstance(a, (Rhd, Box)))
        self._sat_cache = {}

    @property
    def sorted_members(self) -> tuple[Formula, ...]:
        if self._sorted_members is None:
            self._sorted_members = tuple(sorted(self.members, key=Formula.key))
        return self._sorted_members

    def __contains__(self, f: Formula) -> bool:
        return f in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other):
        return isinstance(other, AdequateSet) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return f"AdequateSet({len(self)} formulas)"


def adequate_closure(seed: Iterable[Formula]) -> AdequateSet:
    """Smallest superset of `seed` closed under subformulas and single
    negations. Idempotent and monotone. One walk from an explicit stack
    collects the subformulas, reading ~g as primitive (it pushes only g),
    and the modal atoms among them; then each member that is not a
    negation gets its negation."""
    subs, modal, stack = set(), [], list(seed)
    while stack:
        f = stack.pop()
        if f not in subs:
            subs.add(f)
            if type(f) is Implies:
                stack += (f.left,) if f.right is BOT else (f.left, f.right)
            elif f is not BOT:
                modal.append(f)
                stack += _kids(f)
    subs.update([Implies(f, BOT) for f in subs if type(f) is not Implies or f.right is not BOT])
    return AdequateSet(subs, modal)


# --- parsing ---------------------------------------------------------------

# The connectives, read by both the parser and the printer. Binary ones go
# loosest first and associate to the right, except |>, which does not
# associate: a second |> must be bracketed.
_BINARY = (("<->", Iff), ("->", Implies), ("|>", Rhd), ("|", Or), ("&", And))
_UNARY = {"~": Neg, "[]": Box, "<>": Diamond}


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

_IDENT = re.compile(r"[a-z][a-z0-9_]*")
# longest first, so <-> wins over ->, and |> over |
_TOKENS = sorted([*(op for op, _ in _BINARY), *_UNARY, "(", ")", *_UNICODE], key=len, reverse=True)
_TOKEN = re.compile("|".join(map(re.escape, _TOKENS)) + "|" + _IDENT.pattern)


def _tokenize(text: str) -> list[tuple[str, int]]:
    toks: list[tuple[str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        toks.append((_UNICODE.get(m.group(), m.group()), i))
        i = m.end()
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

    def formula(self, level: int = 0) -> Formula:
        """A formula whose outermost connective binds no looser than
        _BINARY[level]."""
        if level == len(_BINARY):
            return self.unary()
        f = self.formula(level + 1)
        op, build = _BINARY[level]
        if self.peek() != op:
            return f
        self.pos += 1
        return build(f, self.formula(level + (op == "|>")))

    def unary(self) -> Formula:
        t = self.peek()
        if not (t in _UNARY or t == "(" or _IDENT.fullmatch(t)):
            raise ParseError(f"unexpected token {t!r}", self.where())
        self.pos += 1
        if t in _UNARY:
            return _UNARY[t](self.unary())
        if t == "(":
            f = self.formula()
            self.eat(")")
            return f
        if t == "bot":
            return BOT
        if t == "top":
            return Top()
        return Atom(t)


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

# binding strength: the index in _BINARY, then unary, then atomic
_LEVEL = {op: i for i, (op, _) in enumerate(_BINARY)} | dict.fromkeys(_UNARY, len(_BINARY))


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
    return _LEVEL.get(_sugar(f)[0], len(_BINARY) + 1)


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
    if op in _UNARY:
        body = kids[0]
        t = body._render
        if _level(body) < _LEVEL[op]:
            t = f"({t})"
        return op + t
    a, b = kids
    lvl = _LEVEL[op]
    ta, tb = a._render, b._render
    # the right operand is bracketed as the parser reads it: at the same
    # level for a right-associative connective, one level tighter for |>
    ta = f"({ta})" if _level(a) <= lvl else ta
    tb = f"({tb})" if _level(b) < lvl + (op == "|>") else tb
    return f"{ta} {op} {tb}"
