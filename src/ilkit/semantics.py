"""Finite Veltman frames and models.

A frame is (worlds, R, S) with S stored as ordered triples (x, y, z)
meaning y S_x z. Models add a valuation and cache what they force. Frames
are immutable values; the operations are pure. Forcing labels a formula's
subformulas bottom-up from one explicit stack, as in explicit-state model
checking.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Mapping, NamedTuple

from .relation import find_cycle, image
from .syntax import Atom, Bot, Box, Formula, Implies, Rhd, atoms, truth_table

GL = "gl"
IL = "il"
ILM = "ilm"

LOGICS = (GL, IL, ILM)


def check_logic(logic: str) -> str:
    if logic not in LOGICS:
        raise ValueError(f"unknown logic {logic!r}; expected one of {LOGICS}")
    return logic


def _engine_logic(logic: str) -> str:
    """The logic the search and its frames run: GL runs as ILM."""
    return ILM if check_logic(logic) == GL else logic


class BudgetExceededError(RuntimeError):
    pass


class _FrameFields(NamedTuple):
    worlds: frozenset[str]
    R: frozenset[tuple[str, str]]
    S: frozenset[tuple[str, str, str]]


class VeltmanFrame(_FrameFields):
    """An immutable frame, equal and hashed as the tuple (worlds, R, S).
    Its `__dict__` holds the cached adjacency maps."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return VeltmanFrame, tuple(self)

    @staticmethod
    def make(worlds, R=(), S=()) -> "VeltmanFrame":
        return VeltmanFrame(
            frozenset(worlds),
            frozenset((x, y) for x, y in R),
            frozenset((x, y, z) for x, y, z in S),
        )

    # Adjacency maps, built on first use; the frame is immutable, so they
    # never go stale. Callers read them and do not mutate them.
    @cached_property
    def succ(self) -> dict[str, set[str]]:
        """w -> the R-successors of w."""
        return image(self.R)

    @cached_property
    def s_exits(self) -> dict[tuple[str, str], set[str]]:
        """(x, y) -> the z with y S_x z."""
        return image(((x, y), z) for x, y, z in self.S)

    @cached_property
    def index(self) -> dict[str, int]:
        """Every world name that worlds, R and S contain -> its position in
        sorted order, the place of its lanes in an extension."""
        return {w: i for i, w in enumerate(sorted(self.worlds.union(*self.R, *self.S)))}


class VeltmanModel:
    """A frame with a valuation; equal only to itself, since `val` is a
    dict. The model keeps its own copy of the valuation it is given, so
    a caller may change its dict afterwards. It caches the extension of
    every formula it has forced, so its own `val` must not change after
    a query."""

    __slots__ = ("frame", "val", "_masks")

    def __init__(self, frame: VeltmanFrame, val: Mapping[str, frozenset[str]]):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "val", dict(val))
        object.__setattr__(self, "_masks", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return VeltmanModel, (self.frame, self.val)

    def __repr__(self):
        return f"VeltmanModel(frame={self.frame!r}, val={self.val!r})"

    @staticmethod
    def make(worlds, R=(), S=(), val=None) -> "VeltmanModel":
        frame, val = VeltmanFrame.make(worlds, R, S), val or {}
        return VeltmanModel(frame, {w: frozenset(val.get(w, ())) for w in frame.worlds})

    @property
    def worlds(self):
        return self.frame.worlds

    def extensions(self, fs) -> dict[Formula, int]:
        """The cached extensions, extended to fs and their subformulas: f
        holds at w when bit `frame.index[w]` of f's extension is set."""
        return _extensions(self.frame, fs, 1, self.val, self._masks)


class Violation(NamedTuple):
    condition: str
    witness: tuple

    def __str__(self):
        return f"{self.condition}{self.witness}"


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def validate(frame: VeltmanFrame, logic: str) -> ValidationReport:
    """Check the frame conditions of IL and, under ILM, the ILM condition
    y S_x z R u -> y R u; every violation is reported with a witness
    tuple, condition by condition and each condition's witnesses in
    sorted order. Only the violations found are sorted. A transitive R
    has a cycle iff it has a loop (w, w), so `find_cycle` runs only when
    R is not transitive or has a loop, to give the cycle's witness."""
    check_logic(logic)
    W, R, S, succ, exits = frame.worlds, frame.R, frame.S, frame.succ, frame.s_exits
    trans = [(x, y, z) for x, y in R for z in succ.get(y, ()) if (x, z) not in R]
    cyc = find_cycle(W, R) if trans or any(x == y for x, y in R) else None
    groups = [
        ("r_domain", [(x, y) for x, y in R if x not in W or y not in W]),
        ("converse_well_founded", [cyc] if cyc else []),
        ("r_transitive", trans),
        ("s_over_successors", [(x, y, z) for x, y, z in S if (x, y) not in R or (x, z) not in R]),
        ("s_reflexive", [(x, y) for x, y in R if (x, y, y) not in S]),
        ("r_inside_s", [(x, y, z) for x, y in R for z in succ.get(y, ()) if (x, y, z) not in S]),
        ("s_transitive", [(x, u, v, w) for x, u, v in S for w in exits.get((x, v), ()) if (x, u, w) not in S]),
    ]
    if logic == ILM:
        groups.append(("ilm_condition", [(x, y, z, u) for x, y, z in S for u in succ.get(z, ()) if (y, u) not in R]))
    return ValidationReport(tuple(Violation(c, w) for c, ws in groups for w in sorted(ws)))


def _extensions(frame: VeltmanFrame, fs, lanes: int, val, got: dict) -> dict:
    """got, extended to the extensions of fs and their subformulas on
    frame. An extension has `lanes` bits per world, world i's at bit
    i*lanes on, and lane l says whether the formula holds there under
    valuation l. An atom not in got is true in every lane of the worlds
    val gives it. bot is 0 and A -> B is ~A | B. A |> B holds at w in the
    lanes where every R-successor u of w has A false or an S_w-exit with
    B, and []A is ~A |> bot."""
    ix, succ, exits = frame.index, frame.succ, frame.s_exits
    one, full = (1 << lanes) - 1, (1 << lanes * len(ix)) - 1
    stack = list(fs)
    while stack:
        g = stack[-1]
        if g in got:
            stack.pop()
            continue
        t = type(g)
        if t is Atom:
            v = sum(one << i * lanes for w, i in ix.items() if g.name in val.get(w, ()))
        elif t is Bot:
            v = 0
        else:
            k = g.body if t is Box else g.left
            a, b = got.get(k), 0 if t is Box else got.get(g.right)
            if a is None or b is None:
                stack.append(k if a is None else g.right)
                continue
            if t is Implies:
                v = full & ~a | b
            else:
                if t is Box:
                    a = full & ~a
                v = full
                for w, us in succ.items():
                    m = one
                    for u in us:
                        exit_b = 0
                        for z in exits.get((w, u), ()) if b else ():
                            exit_b |= b >> ix[z] * lanes
                        m &= ~(a >> ix[u] * lanes) | exit_b
                    v &= ~((one & ~m) << ix[w] * lanes)
        got[g] = v
        stack.pop()
    return got


def forces(model: VeltmanModel, w: str, f: Formula) -> bool:
    if w not in model.frame.worlds:
        raise KeyError(f"unknown world {w!r}")
    ext = model._masks.get(f)
    if ext is None:
        ext = model.extensions([f])[f]
    return bool(ext >> model.frame.index[w] & 1)


def frame_validates(frame: VeltmanFrame, f: Formula) -> bool:
    """True iff f holds at every world under every valuation of f's atoms.

    One `_extensions` pass with a lane per valuation, the rows of the
    truth table over the (world, atom) cells; raises BudgetExceededError
    beyond 2^16 valuations.
    """
    names = sorted(atoms(f))
    worlds = sorted(frame.worlds)
    cells = len(worlds) * len(names)
    if cells > 16:
        raise BudgetExceededError(f"2^{cells} valuations exceed limit 65536")
    lanes, ix, columns = 1 << cells, frame.index, iter(truth_table(cells))
    got = dict.fromkeys(map(Atom, names), 0)
    for w in worlds:
        for a in got:
            got[a] |= next(columns) << ix[w] * lanes
    ext = _extensions(frame, [f], lanes, {}, got)[f]
    want = sum(((1 << lanes) - 1) << ix[w] * lanes for w in worlds)
    return ext & want == want


# --- serialization ----------------------------------------------------------


def model_to_dict(model: VeltmanModel) -> dict:
    return {
        "worlds": sorted(model.frame.worlds),
        "R": sorted([x, y] for (x, y) in model.frame.R),
        "S": sorted([x, y, z] for (x, y, z) in model.frame.S),
        "val": {w: sorted(model.val.get(w, ())) for w in sorted(model.frame.worlds)},
    }


def _names(x) -> bool:
    return isinstance(x, list) and all(isinstance(n, str) for n in x)


def model_from_dict(data: dict) -> VeltmanModel:
    """The model of a `model_to_dict` map. Raises ValueError unless data is
    a map with worlds a list of strings, R a list of pairs, S a list of
    triples and val a map to lists of strings, so no string is read as its
    characters."""
    if not isinstance(data, dict) or "worlds" not in data:
        raise ValueError("model must be a JSON object with a worlds list")
    worlds, R, S, val = data["worlds"], data.get("R", []), data.get("S", []), data.get("val", {})
    if not _names(worlds):
        raise ValueError("model worlds must be a list of world names")
    for key, rows, n in (("R", R, 2), ("S", S, 3)):
        if not isinstance(rows, list) or not all(_names(r) and len(r) == n for r in rows):
            raise ValueError(f"model {key} must be a list of {n}-element lists of world names")
    if not isinstance(val, dict) or not all(map(_names, val.values())):
        raise ValueError("model val must map world names to lists of atom names")
    return VeltmanModel.make(worlds, R, S, val)


def model_to_json(model: VeltmanModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


def model_from_json(text: str) -> VeltmanModel:
    return model_from_dict(json.loads(text))


def _dot_escaped(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def model_to_dot(model: VeltmanModel) -> str:
    """DOT export: R solid, S_x dashed labeled x, worlds labeled with their
    true atoms. Every name is escaped for a DOT quoted string."""
    e = _dot_escaped
    lines = ["digraph veltman {"]
    for w in sorted(model.frame.worlds):
        tru = ",".join(sorted(model.val.get(w, ())))
        lines.append(f'  "{e(w)}" [label="{e(w)}\\n{{{e(tru)}}}"];')
    for x, y in sorted(model.frame.R):
        lines.append(f'  "{e(x)}" -> "{e(y)}";')
    for x, y, z in sorted(model.frame.S):
        lines.append(f'  "{e(y)}" -> "{e(z)}" [style=dashed, label="{e(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
