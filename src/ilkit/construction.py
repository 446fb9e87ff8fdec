"""Labeled frames and the model construction machinery.

The working state of a decision run is a labeled frame: worlds carrying
DTheories, R-edges optionally carrying a criticality formula, and worlds
carrying successor obligations (formulas every later world must satisfy;
these stand in for boxed formulas that live outside the adequate set).

The construction alternates two moves until no requirement is left open:

  * eliminate a problem (a false rhd or box member needing a witness) or a
    deficiency (an unanswered rhd member needing an S-exit), by reusing an
    existing world or attaching a fresh one, then
  * close the frame under the frame conditions (closure).

Every candidate extension is re-validated against the quasi-frame
invariants; invalid candidates are dropped, which is what drives
backtracking in the decision engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .relation import _WORD, bits, close_rows, find_cycle, image, reach_rows, to_rows
from .semantics import ILM, VeltmanFrame, VeltmanModel, _engine_logic
from .syntax import (
    AdequateSet,
    Atom,
    BOT,
    Formula,
    Neg,
    Rhd,
    render,
    single_neg,
)
from .theory import (
    DTheory,
    LoggedTheory,
    TheoryQuery,
    _TheoryIndex,
    _succ_constraints,
    box_incl,
    crit_obligations,
    crit_succ,
    succ,
)


class Problem(NamedTuple):
    """A world whose theory makes a rhd or box formula false without a
    witness for the failure."""

    world: str
    formula: Formula  # ~(A |> B) or ~[]A

    def key(self, order: dict[str, int]):
        return (0, order[self.world], "", self.formula.key())


class Deficiency(NamedTuple):
    """An rhd member C |> D of x, a successor y carrying C, and no S_x exit
    from y to a D world."""

    x: str
    y: str
    formula: Rhd

    def key(self, order: dict[str, int]):
        return (1, order[self.x], self.y, self.formula.key())


class LabeledFrame:
    """Mutable working frame; value-semantic copies back the search.

    A frame keeps the rows of its R and S (`_rows`: the closed rows
    `close` left on it, or those its first query built), its cone table
    (`_cones`) and, per world, the constraints a fresh successor of that
    world must meet. A copy starts without them and `add_world` drops
    them, so a caller edits a copy of a closed or queried frame, never
    the frame itself. The search edits only fresh copies.
    """

    def __init__(
        self,
        adequate: AdequateSet,
        logic: str,
        worlds: list[str] | None = None,
        R: set[tuple[str, str]] | None = None,
        S: set[tuple[str, str, str]] | None = None,
        nu: dict[str, DTheory] | None = None,
        exempt_root: str | None = None,
    ):
        self.adequate = adequate
        self.logic = _engine_logic(logic)
        self.worlds = list(worlds or [])
        self.R = set(R or ())
        self.S = set(S or ())
        self.nu = dict(nu or {})
        self.edge_label: dict[tuple[str, str], Formula] = {}
        self.obligations: dict[str, frozenset[Formula]] = dict.fromkeys(self.worlds, frozenset())
        self.exempt_root = exempt_root
        self.worklist: list = []
        self._forget()

    def copy(self) -> "LabeledFrame":
        g = LabeledFrame(self.adequate, self.logic, self.worlds, self.R, self.S, self.nu, self.exempt_root)
        g.edge_label, g.obligations, g.worklist = dict(self.edge_label), dict(self.obligations), list(self.worklist)
        return g

    def _forget(self) -> None:
        """Drop what queries derived from the frame (see the class doc)."""
        self._rows: tuple[list[str], list[int], list[list[int]]] | None = None  # names, R, S
        self._cones: dict[str, dict[Formula, tuple[int, int]]] | None = None
        self._constraints: dict[str, tuple[tuple[Formula, bool], ...]] = {}

    def order(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.worlds)}

    def add_world(self, theory: DTheory, obligations: Iterable[Formula] = ()) -> str:
        k = len(self.worlds)
        name = f"w{k}"
        while name in self.nu:
            k += 1
            name = f"w{k}"
        self.worlds.append(name)
        self.nu[name] = theory
        self.obligations[name] = frozenset(obligations)
        self._forget()
        return name

    def effective_obligations(self, w: str) -> frozenset[Formula]:
        """Constraints on every R-successor of w: w's own obligations plus
        those of all its R-predecessors (R is kept transitive)."""
        n, R, _ = _frame_rows(self)
        out, bit = set(self.obligations.get(w, ())), 1 << n.index(w) if w in n else 0
        for a, r in zip(n, R):
            if r & bit:
                out |= self.obligations.get(a, frozenset())
        return frozenset(out)

    def effective_boxes(self, w: str) -> frozenset[Formula]:
        """Formulas boxed at w: bodies of box members plus all obligations
        in force at w."""
        out = {b.body for b in self.nu[w].boxes()}
        out |= self.effective_obligations(w)
        return frozenset(out)

    def to_frame(self) -> VeltmanFrame:
        """The plain frame, offered the rows the frame kept."""
        frame = VeltmanFrame(frozenset(self.worlds), frozenset(self.R), frozenset(self.S))
        return frame.with_rows(*self._rows) if self._rows else frame

    def to_model(self) -> VeltmanModel:
        val = {}
        for w in self.worlds:
            t = self.nu[w]
            val[w] = frozenset(
                a.name
                for a in self.adequate.modal_atoms
                if isinstance(a, Atom) and t.models(a)
            )
        return VeltmanModel(self.to_frame(), val)


def seed_frame(adequate: AdequateSet, logic: str, root_theory: DTheory) -> LabeledFrame:
    f = LabeledFrame(adequate, logic)
    f.add_world(root_theory)
    f._rows = f.worlds[:], [0], [[0]]  # one world and no R or S: closed
    refresh_worklist(f)
    return f


# --- rows and cones ------------------------------------------------------------


def _frame_rows(F: LabeledFrame, since: LabeledFrame | None = None) -> tuple[list[str], list[int], list[list[int]]]:
    """F's rows (names, R, S), built on first use and kept: R and S over
    F.worlds, then any other name they hold, sorted. So world i of
    F.worlds is row i. since, when given, is a frame F extends (F's R and
    S contain its own); if since kept rows over the first of F.worlds,
    F's start as a copy of them with only the facts since lacks added."""
    if F._rows is None:
        n, base = F.worlds, since._rows if since is not None else None
        if base and base[0] == n[: len(base[0])]:
            facts = F.R.difference(since.R), F.S.difference(since.S), base[1:]
        else:
            facts = F.R, F.S
        try:
            F._rows = n, *to_rows(dict(zip(n, range(len(n)))), *facts)
        except KeyError:  # a fact names a node outside F.worlds
            n = [*n, *sorted(set().union(*F.R, *F.S).difference(n))]
            F._rows = n, *to_rows(dict(zip(n, range(len(n)))), F.R, F.S)
    return F._rows


def _cones(F: LabeledFrame) -> dict[str, dict[Formula, tuple[int, int]]]:
    """F's cone table, built on first use and kept: x -> each distinct
    label C of x's edges, ordered by edge, -> x's C-generalized cone (R
    and S steps of any index) and C-critical cone (R and S_x steps) from
    the targets of C's edges, as masks over F's rows. On a closed ILM
    frame the critical cone is also the M-cone, whose extra step goes
    along S steps of any index, then one R step: y S_a1 z1 ... zk R u.
    There z R u whenever z S_a z' R u (`ilm_condition`), so applying the
    rule backwards along the S-path gives y R u, which the R step takes."""
    if F._cones is None:
        n, R, S = _frame_rows(F)
        seeds: dict[str, dict[Formula, int]] = {}
        for (x, y), lab in sorted(F.edge_label.items()):
            at = seeds.setdefault(x, {})
            at[lab] = at.get(lab, 0) | 1 << n.index(y)
        F._cones = {
            x: {lab: (reach_rows(m, R, *S), reach_rows(m, R, S[n.index(x)])) for lab, m in at.items()}
            for x, at in seeds.items()
        }
    return F._cones


def _cone_worlds(F: LabeledFrame, x: str, C: Formula) -> tuple[set[str], set[str]]:
    """x's C-cones as names, read off a copy of F: the frame as it is now,
    and F keeps no rows or table the caller's later edits would outdate."""
    g = F.copy()
    n = _frame_rows(g)[0]
    return tuple({n[i] for i in bits(m)} for m in _cones(g).get(x, {}).get(C, (0, 0)))


def critical_cone(F: LabeledFrame, x: str, C: Formula) -> set[str]:
    """Worlds reached from a C-labeled edge of x via S_x and R steps."""
    return _cone_worlds(F, x, C)[1]


def generalized_cone(F: LabeledFrame, x: str, C: Formula) -> set[str]:
    """The critical cone closed under S steps with arbitrary index."""
    return _cone_worlds(F, x, C)[0]


# --- closure ------------------------------------------------------------------


def _propagate_obligations(F: LabeledFrame, triples: Iterable[tuple[str, str, str]]) -> None:
    """Under ILM, obligations flow along S-transitions (the obligation set
    is the out-of-D part of the boxes, and S preserves boxes). Only the
    given triples add a flow: each y S_x z passes y's obligations to all
    that S steps of any index reach from z, z included (F's rows), so
    also past a y whose obligations another triple grows."""
    if F.logic != ILM:
        return
    ob, (n, _, S) = F.obligations, _frame_rows(F)
    for _, y, z in triples:
        if ob.get(y):
            for d in bits(reach_rows(1 << n.index(z), *S)):
                ob[n[d]] = ob.get(n[d], frozenset()) | ob[y]


def close(F: LabeledFrame, since: LabeledFrame | None = None) -> LabeledFrame:
    """The closure of F under its logic's frame conditions: same worlds and
    labels, R and S only grow, and `validate` reports no violation of
    `r_transitive`, `s_reflexive`, `s_transitive`, `r_inside_s` or, under
    ILM, `ilm_condition`. `close_rows` closes the rows of F's relations
    (`_frame_rows`); the copy returned reads its R and S off the closed
    rows and keeps them.
    since, when given, is a closed frame that F extends (F's R, S, labels
    and obligations contain its own). The rows then start from since's
    where `_frame_rows` can, and only the triples since lacks are
    examined for obligations."""
    g = F.copy()
    n, R, S = _frame_rows(g, since)
    close_rows(R, S, g.logic == ILM)
    g.R = {(n[x], n[y]) for x, r in enumerate(R) if r for y in bits(r)}
    g.S = {(n[x], n[y], n[z]) for x, Sx in enumerate(S) for y, s in enumerate(Sx) if s for z in bits(s)}
    _propagate_obligations(g, g.S if since is None else g.S.difference(since.S))
    return g


def close_frame(frame: VeltmanFrame, logic: str) -> VeltmanFrame:
    """Closure of a plain frame under the same conditions. Raises ValueError
    when an R edge or S triple names a world outside the frame's worlds
    (the first such in sorted order), or when R, before or after closing,
    has a cycle: no Veltman frame extends such a frame. `close_rows` closes
    a copy of the frame's rows once; the closed R is transitive, so it has
    a cycle iff its rows' diagonal has a bit, and only then does
    `find_cycle` run, for a witness from the input R if it has one. The
    frame returned caches the closed rows."""
    if len(frame.index) > len(frame.worlds):
        for name, rel in (("R edge", frame.R), ("S triple", frame.S)):
            if outside := [e for e in rel if not frame.worlds.issuperset(e)]:
                raise ValueError(f"{name} {min(outside)} names a world outside worlds")
    n, R, S = list(frame.index), frame.rows[0][:], [Sx[:] for Sx in frame.rows[1]]
    close_rows(R, S, _engine_logic(logic) == ILM)
    pairs = frozenset((n[x], n[y]) for x, r in enumerate(R) if r for y in bits(r))
    if any(r >> x & 1 for x, r in enumerate(R)):
        cycle = find_cycle(frame.worlds, frame.R) or find_cycle(frame.worlds, pairs)
        raise ValueError("R has a cycle: " + " -> ".join(cycle))
    triples = frozenset((n[x], n[y], n[z]) for x, Sx in enumerate(S) for y, s in enumerate(Sx) if s for z in bits(s))
    return VeltmanFrame(frame.worlds, pairs, triples).with_rows(n, R, S)


# --- frame validation ---------------------------------------------------------


def quasi_frame_violations(F: LabeledFrame, since: LabeledFrame | None = None) -> list[str]:
    """Violated invariants of the working frame, as readable strings.
    Checks the quasi-frame conditions, the ILM additions when applicable,
    obligation satisfaction, and strict box growth along R. F must be
    closed. Criticality is checked over the critical cone in both logics:
    under ILM the M-cone of a closed frame is the same cone (`_cones`).
    Under ILM, obligations need no check along S: `close` pushes them
    along every S triple (`_propagate_obligations`).

    R is transitive in a closed frame, so an R-cycle is a self-loop. No
    cycle of the composition R;S+ needs its own check. Under ILM a closed
    frame has y R u whenever y S_x z R u (`ilm_condition`), so along a
    cycle a0 R b0 S+ a1 R b1 S+ ... a0 the rule, applied backwards along
    each S-chain, gives b0 R b1 R ... R b0: a cycle of R, so a self-loop.

    since, when given, is a settled frame and F the closure of a child of
    it. The checks of single edges and triples then run only where F
    differs from since: on new edges and triples, and on edges at worlds
    whose effective obligations changed, and the cone checks only where a
    cone grew: criticality at the worlds a critical cone gained, overlap at
    worlds with a grown generalized cone. Cones only grow and since had no
    violation, so the list can be shorter than a whole-frame call's, but
    it is empty exactly when that one is. Without since all is new. A
    settled frame names no node outside its worlds, so since's rows
    number the first of F's and its cones read as masks over F's rows."""
    old_R, old_S = (since.R, since.S) if since is not None else ((), ())
    old_ob = since.obligations if since is not None else {}
    new_R, new_S = F.R.difference(old_R), F.S.difference(old_S)
    grown = {w for w in F.worlds if F.obligations.get(w) != old_ob.get(w)}
    # worlds whose effective obligations may differ from since's
    moved = grown.union((b for _, b in new_R), (b for a, b in F.R if a in grown))
    edges = sorted(new_R.union(e for e in old_R if e[0] in moved or e[1] in moved))
    out: list[str] = []
    if any(a == b for a, b in new_R):
        out.append("R has a cycle")
    for (x, y, z) in sorted(new_S):
        if (x, y) not in F.R or (x, z) not in F.R:
            out.append(f"S triple outside R: {(x, y, z)}")
    for (x, y) in sorted(new_R):
        if not succ(F.nu[x], F.nu[y]):
            out.append(f"succ fails on edge {(x, y)}")
    eff: dict[str, list[Formula]] = {}
    for (x, y) in edges:
        if x not in eff:
            eff[x] = sorted(F.effective_obligations(x), key=Formula.key)
        for o in eff[x]:
            if not F.nu[y].models(o):
                out.append(f"obligation {render(o)} of {x} fails at {y}")
    boxes: dict[str, frozenset[Formula]] = {}
    for (x, y) in edges:
        if F.exempt_root is not None and x == F.exempt_root:
            continue
        for w in (x, y):
            if w not in boxes:
                boxes[w] = F.effective_boxes(w)
        bx, by = boxes[x], boxes[y]
        if not (bx <= by and bx != by):
            out.append(f"no box growth on edge {(x, y)}")
    n, table, old = _frame_rows(F)[0], _cones(F), _cones(since) if since is not None else {}
    for x in F.worlds:
        at = table.get(x)
        if at is None:
            continue
        labs, cones = list(at), list(at.values())
        was = [old.get(x, {}).get(lab, (0, 0)) for lab in labs]
        # The overlap check is no consequence of the others: on
        # tests/differential.json, 3,827 of 4,820 IL rejections and 3 of
        # 312 ILM rejections report only the overlap, and without it the
        # refuted IL row ((p |> (bot -> r)) |> (r & p) & (r |> bot)) |> bot
        # & []bot gets another countermodel.
        if any(c[0] & ~w[0] for c, w in zip(cones, was)):
            for i, a in enumerate(labs):
                for b, c in zip(labs[i + 1 :], cones[i + 1 :]):
                    if cones[i][0] & c[0]:
                        out.append(f"generalized cones overlap at {x}: {render(a)} / {render(b)}")
        for lab, (_, crit), (_, crit_was) in zip(labs, cones, was):
            for y in sorted(n[i] for i in bits(crit & ~crit_was)):
                if not crit_succ(F.nu[x], lab, F.nu[y]):
                    out.append(f"criticality {render(lab)} fails at {y} (cone of {x})")
    if F.logic == ILM:
        for (x, y, z) in sorted(new_S):
            if not box_incl(F.nu[y], F.nu[z]):
                out.append(f"box inclusion fails on {(x, y, z)}")
    return out


# --- problems and deficiencies -----------------------------------------------


def _problems_at(F: LabeledFrame, worlds) -> Iterator[Problem]:
    """Every false rhd or box member of the given worlds, witnessed or not.
    D holds each item formula ~a, so `Neg(a)` returns that node, with the
    rendering `Problem.key` sorts by cached on it."""
    atoms = F.adequate.existential_atoms
    for x in worlds:
        t = F.nu[x]
        for a in atoms:
            if not t.models(a):
                yield Problem(x, Neg(a))


def _deficiencies_on(F: LabeledFrame, edges) -> Iterator[Deficiency]:
    """Every rhd member C |> D of x with C at y, for the given edges x R y,
    answered or not; ordered by x, then the rhd, then y."""
    succ = image(edges)
    for x in F.worlds:
        ys = succ.get(x)
        if not ys:
            continue
        t = F.nu[x]
        for a in F.adequate.rhd_atoms:
            if t.models(a):
                for y in F.worlds:
                    if y in ys and F.nu[y].models(a.left):
                        yield Deficiency(x, y, a)


def _is_open(F: LabeledFrame, item) -> bool:
    """No witness yet: for ~(A |> B) no A world in the B-critical cone, for
    ~[]A no ~A successor, for a deficiency no S_x exit to a D world. It
    reads theories in F.worlds order, so no log hangs on a set's order."""
    n, R, S = _frame_rows(F)
    if isinstance(item, Deficiency):
        near, want = S[n.index(item.x)][n.index(item.y)], item.formula.right
    elif isinstance(item.formula.left, Rhd):
        near, want = _cones(F).get(item.world, {}).get(item.formula.left.right, (0, 0))[1], item.formula.left.left
    else:
        near, want = R[n.index(item.world)], Neg(item.formula.left.body)
    return not any(F.nu[n[i]].models(want) for i in bits(near) if i < len(F.worlds))


def refresh_worklist(F: LabeledFrame, since: LabeledFrame | None = None) -> None:
    """Set F's worklist to its open problems and deficiencies: the items of
    the current worklist that are still open, in their order, then the
    others in key order.

    since, when given, is a settled frame whose worklist F carries and
    which F extends by worlds, edges and triples. Only since's items and
    the items of new worlds and new edges are examined then: an item
    closed on since stays closed, because its witnesses (a cone, the
    successors, the S-exits) only grow with R, S and the labels. Without
    since every world and edge is new."""
    old_nu, old_R, old_items = (since.nu, since.R, since.worklist) if since is not None else ({}, (), [])
    maybe = [
        *old_items,
        *_problems_at(F, [w for w in F.worlds if w not in old_nu]),
        *_deficiencies_on(F, F.R.difference(old_R)),
    ]
    current = {it for it in maybe if _is_open(F, it)}
    kept = [it for it in F.worklist if it in current]
    order = F.order()
    F.worklist = kept + sorted(current.difference(kept), key=lambda i: i.key(order))


# --- elimination ---------------------------------------------------------------


def _finish(F: LabeledFrame, since: LabeledFrame | None = None) -> LabeledFrame | None:
    """F settled: closed, checked and with its worklist refreshed, or None
    if it violates an invariant. since is the settled frame F was made
    from by one step, or None to settle F from scratch."""
    g = close(F, since=since)
    if quasi_frame_violations(g, since=since):
        return None
    refresh_worklist(g, since=since)
    return g


def _successor_constraints(F: LabeledFrame, x: str) -> tuple[tuple[Formula, bool], ...]:
    """What every fresh R-successor of x must satisfy: x's effective
    obligations and the criticality it inherits from the labeled cones of
    x's ancestors that already contain x. Kept per frame and world."""
    got = F._constraints.get(x)
    if got is None:
        extra = [(o, True) for o in sorted(F.effective_obligations(x), key=Formula.key)]
        bit = 1 << F.worlds.index(x)  # world i is row i
        for a, r in zip(F.worlds, _frame_rows(F)[1]):
            if r & bit:
                for lab, (_, crit) in _cones(F).get(a, {}).items():
                    if crit & bit:
                        extra += [(f, True) for f in crit_obligations(F.nu[a], lab)]
        got = F._constraints[x] = tuple(extra)
    return got


def _box_lookahead(F: LabeledFrame, boxes: tuple, base: TheoryQuery) -> bool:
    """Would a fresh successor of x whose true boxes are `boxes` leave one
    of its false boxes permanently unwitnessable? base holds x's
    inherited and critical constraints plus the fresh world's
    obligations. In any completed extension, an R-maximal refuter of []E
    carries ~E together with []E and satisfies every inherited
    constraint, so emptiness of that set is final."""
    base = base.where(c for b in boxes for c in ((b.body, True), (b, True)))
    return not any(
        base.where(((bx.body, False), (bx, True))).is_empty()
        for bx in F.adequate.boxed_members
        if bx not in boxes
    )


def _deficiency_lookahead(rho: Rhd, boxes: tuple, base: TheoryQuery) -> bool:
    """Could a fresh successor of x with C true and D false, for a rhd
    rho = C |> D of x's theory, still get an S_x exit with D? base holds
    x's inherited, critical and successor constraints; under ILM an exit
    also carries the successor's boxes (else boxes is ()). Any S_x exit
    it could ever get must meet these, so an empty set now is final."""
    return not base.where([*((b, True) for b in boxes), (rho.right, True)]).is_empty()


def _rhd_lookahead(F: LabeledFrame, item):
    """The test a fresh witness t of the item must pass: each false rhd
    ~(A |> C) of t still has a possible witness. Every member of the fresh
    world w's C-critical cone is an R-successor of x in x's B-critical
    cone and of w, so it meets x's successor constraints,
    crit_obligations(gx, B), w's obligations (the item's avoids and, for
    an ILM deficiency, y's, which `close` pushes along y S_x w), t's boxes
    with their bodies and crit_obligations(t, C), and a witness has A.
    These only grow with the frame, so an empty query is final: t's
    subtree holds no model. It reads t only on its rhd and box values."""
    x, B, _, _, avoids, _, y, _ = _witness(F, item)
    D = F.adequate
    cs = [*_successor_constraints(F, x), *((f, True) for f in crit_obligations(F.nu[x], B))]
    cs += ((single_neg(a), True) for a in avoids)
    if isinstance(item, Deficiency) and F.logic == ILM:
        cs += ((f, True) for f in F.obligations[y])
    base = None  # built on the first memo miss
    memo: dict[tuple[bool, ...], bool] = {}

    def keep(t: DTheory) -> bool:
        nonlocal base
        false = [rho for rho in D.rhd_atoms if not t.values[rho]]
        if not false:
            return True
        key = tuple(t.values[a] for a in D.existential_atoms)
        if key not in memo:
            if base is None:
                base = TheoryQuery(D, F.logic, cs)
            q = base.where(_succ_constraints(t))
            memo[key] = not any(
                q.where([(f, True) for f in crit_obligations(t, rho.right)] + [(rho.left, True)]).is_empty()
                for rho in false
            )
        return memo[key]

    return keep


def criticality_label(F: LabeledFrame, x: str, y: str) -> Formula:
    """The formula B with y in the B-critical cone of x; bot if none."""
    n = _frame_rows(F)[0]
    bit = 1 << n.index(y) if y in n else 0
    return next((lab for lab, (_, crit) in _cones(F).get(x, {}).items() if crit & bit), BOT)


def _witness(F: LabeledFrame, item) -> tuple:
    """What a witness w of the item is, as the row (x, B, (f, v), fresh,
    avoids, label, y, boxes_of): a B-critical successor of x at which f is
    true exactly when v. A fresh w also meets the pairs of fresh and keeps
    ~a at every later world for each a in avoids. The link is x R w, with
    the edge labeled label, or with y S_x w, and then w also carries the
    boxes of boxes_of. One row per item kind:

      ~(A |> B) at x      B, A true, keeps ~A, edge labeled B
      ~[]E at x           bot, E false, fresh also has []E
      C |> D along x R y  y's criticality label, D true, keeps ~D,
                          y S_x w, and y's boxes under ILM"""
    if isinstance(item, Deficiency):
        x, y, D = item.x, item.y, item.formula.right
        boxes_of = F.nu[y] if F.logic == ILM else None
        return x, criticality_label(F, x, y), (D, True), (), (D,), None, y, boxes_of
    x, body = item.world, item.formula.left
    if isinstance(body, Rhd):
        return x, body.right, (body.left, True), (), (body.left,), body.right, None, None
    return x, BOT, (body.body, False), ((body, True),), (), None, None, None


def fresh_candidate_theories(F: LabeledFrame, item) -> tuple[_TheoryIndex, int]:
    """Theory-level candidates for eliminating the item with a fresh world,
    as the (index, mask) of their rows: counted by popcount, walked in
    preference order (`_TheoryIndex.preferred`). An empty mask means the
    item can never be eliminated on any extension of F: the constraint
    set only grows as the frame grows, and a reusable world's theory
    would itself be a solution of it.

    A candidate is a fresh witness (`_witness`) that meets x's successor
    constraints and both lookaheads. The mask is split by box class (the
    true boxes) over D.boxed_members; in a class, the rows with C true
    and D false for a rhd C |> D of x's theory go if
    `_deficiency_lookahead` fails, then the rest if `_box_lookahead`
    does. Each is asked only for a class with rows left to drop, once
    per class (per rhd, and under IL not per class, for the deficiency
    lookahead). The answer depends on F only through the item's world
    theory, its criticality label, the inherited constraints and, for an
    ILM deficiency, y's theory. It is memoised on those per adequate
    set, so the most-constrained scan of every frame in a search and the
    elimination that follows it share one answer.

    It reads those two theories only on their rhd and box atoms (`rhds()`
    through crit_obligations, `boxes()`, `models(rho)` for a rhd rho), the
    values every LoggedTheory's log starts with. So a memo hit, which
    reads nothing, hides no read a `nogoods` cube needs."""
    x, B, meets, fresh, avoids, _, _, boxes_of = _witness(F, item)
    extra = _successor_constraints(F, x)
    gx = F.nu[x]
    memo = F.adequate._sat_cache.setdefault(("__candidates__", F.logic), {})
    key = (item.formula, gx, B, boxes_of, extra)
    got = memo.get(key)
    if got is not None:
        return got
    crit = crit_obligations(gx, B)
    common = TheoryQuery(F.adequate, F.logic, extra)
    common = common.where((f, True) for f in crit)
    box_base = common.where((single_neg(a), True) for a in avoids)
    deficiency_base = common.where(_succ_constraints(gx))
    # no []f for f in crit: box_base holds f at every later world, so
    # _box_lookahead already rejects a theory with []f false
    own = [meets, *fresh]
    if boxes_of is not None:
        own += [(b, True) for b in boxes_of.boxes()]
    index, mask = deficiency_base.where(own).answers()
    classes = [(mask, ())]
    for b in F.adequate.boxed_members:
        on = index.mask(b)
        classes = [
            (part, boxes + (b,) * held)
            for m, boxes in classes
            for part, held in ((m & ~on, False), (m & on, True))
            if part
        ]
    # a witness with C true and D false for a rhd C |> D of x's theory
    # needs an S_x exit with D; under IL an rhd's answer fits all classes
    rhos = [rho for rho in F.adequate.rhd_atoms if gx.models(rho)]
    ilm, exits, good = F.logic == ILM, {}, 0
    for m, boxes in classes:
        for rho in rhos:
            rows = index.narrow(m, ((rho.left, True), (rho.right, False)))
            if rows:
                k = rho, boxes if ilm else ()
                ok = exits.get(k)
                if ok is None:
                    ok = exits[k] = _deficiency_lookahead(rho, k[1], deficiency_base)
                if not ok:
                    m ^= rows
        if m and _box_lookahead(F, boxes, box_base):
            good |= m
    got = memo[key] = index, good
    return got


def nogoods(index: _TheoryIndex, mask: int, state, item=None, keep=None) -> Iterator[LoggedTheory]:
    """The theories of the mask's rows a search tries, in preference
    order, each as a LoggedTheory: all but those that agree with the read
    set of a failed subtree (a cube) and, given keep, those it rejects.
    When the caller asks for the next theory, the subtree of the last one
    has failed, and its log is kept as a cube unless a budget cut
    happened while it ran (`state.cuts` moved). The walk keeps a mask of
    the rows to try, and a cube's rows leave it. keep (`_rhd_lookahead`)
    reads a theory only on D.existential_atoms, so the rows that agree
    there with a row it rejects leave too. Only a row the walk tries or
    asks keep about is built, unless an observer is shown each row passed
    over: ("pruned", item, theory) if keep rejects it, else ("skipped",
    item, theory), or ("skipped_root", None, theory) for a root (item
    None).

    A cube holds the (formula, value) pairs a world's theory gave to every
    `models` read while the subtree that added the world ran. The search
    reads a world's theory only through `models` and through the memos
    keyed on theories (`fresh_candidate_theories`, `crit_obligations`),
    whose answers depend on a theory only through its rhd and box atoms,
    and every log starts with those. So a theory that agrees with a cube,
    put in place of the failed one, makes the same reads, gets the same
    answers and fails the same way: skipping it loses no model. A subtree
    cut by the budget did not fail on its reads, so it is never learned
    from."""
    observer, skipped = state.observer, "skipped_root" if item is None else "skipped"
    atoms, todo = index.adequate.existential_atoms, mask
    for level in index.levels:
        at = -1  # the 64-row block whose bits of todo `live` holds
        for j in bits(mask & level):
            if j >> 6 != at:
                at, live = j >> 6, todo >> (j & ~63) & _WORD
            if not live >> (j & 63) & 1:
                if observer is not None:
                    t = index.theory(j)
                    observer(skipped if keep is None or keep(t) else "pruned", item, t)
                continue
            t = index.theory(j)
            if keep is None or keep(t):
                t, cuts = LoggedTheory(t), state.cuts
                yield t
                if state.cuts != cuts:
                    continue
                cube = t.reads.items()
            else:
                if observer is not None:
                    observer("pruned", item, t)
                cube = [(a, t.values[a]) for a in atoms]
            todo &= ~index.narrow(index.full, cube)
            at = -1


def eliminate(F: LabeledFrame, item, state) -> Iterator[LabeledFrame]:
    """Extensions of the settled frame F that eliminate the open item by
    linking x to a witness (`_witness`): first every existing world that
    is one, in F.worlds order, then a fresh world per candidate theory,
    each settled against F (`_finish`), so each child re-checks only what
    its step changed. No world that reaches x is reused, since the link
    would close an R-cycle, nor, for ~(A |> B), a world whose edge from x
    already carries a label, which the link would overwrite. No other
    world needs passing over: one already linked as the item asks (x R w
    for ~[]E, y S_x w for a deficiency) would witness it, and the item is
    open.

    F is settled: closed, free of violations and with a worklist of
    exactly its open items. state is the search's `decide._State`. The
    fresh candidates' (index, mask) goes through `nogoods`, which drops
    the rows `_rhd_lookahead` rejects; it filters here, so the
    most-constrained scan's popcount counts them without it. A frame of
    `state.budget.max_worlds` worlds gets no fresh world."""
    x, B, (f, v), _, avoids, label, y, boxes_of = _witness(F, item)
    gx = F.nu[x]
    bit = 1 << F.worlds.index(x)  # w reaches x iff R[w] has it: R is transitive on F

    def link(g, w):
        g.R.add((x, w))
        if label is not None:
            g.edge_label[(x, w)] = label
        if y is not None:
            g.S.add((x, y, w))
        return _finish(g, F)

    for w, r in zip(F.worlds, _frame_rows(F)[1]):
        t = F.nu[w]
        if w == x or r & bit or (label is not None and (x, w) in F.edge_label):
            continue
        if t.models(f) == v and crit_succ(gx, B, t) and (boxes_of is None or box_incl(boxes_of, t)):
            done = link(F.copy(), w)
            if done is not None:
                yield done
    keeps = [single_neg(a) for a in avoids]
    for t in nogoods(*fresh_candidate_theories(F, item), state, item, _rhd_lookahead(F, item)):
        # F's world count is fixed here, so this cut fires at the first
        # candidate, before any cube is kept
        if len(F.worlds) >= state.budget.max_worlds:
            state.cut_by("max_worlds")
            break
        g = F.copy()
        done = link(g, g.add_world(t, keeps))
        if done is not None:
            yield done


# --- truth lemma ----------------------------------------------------------------


def verify_truth_lemma(model: VeltmanModel, nu: dict[str, DTheory], D: AdequateSet) -> bool:
    """For every world and every D formula: forced iff in the label. Both
    sides are Boolean in D's modal atoms (forcing A -> B is, and a theory's
    members are what its assignment makes true), so comparing the modal
    atoms compares all of D. Worlds are read in sorted order, so what a
    `LoggedTheory` label logs does not depend on string hashing."""
    got, ix = model.extensions(D.modal_atoms), model.frame.index
    for w in sorted(model.frame.worlds):
        i, t = ix[w], nu[w]
        for a in D.modal_atoms:
            if (got[a] >> i & 1) != t.models(a):
                return False
    return True
