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

from .relation import find_cycle, fold, image, reach
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
    _succ_constraints,
    box_incl,
    crit_obligations,
    crit_succ,
    existential_atoms,
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

    A frame keeps its relation index (`_Adjacency`), which `close` builds
    for the frame it returns and any other frame on its first query, and,
    per world, the constraints a fresh successor of that world must meet.
    A copy starts without them and `add_world` drops them, so a caller
    edits a copy of a closed or queried frame, never the frame itself. The
    search edits only fresh copies.
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
        g = LabeledFrame.__new__(LabeledFrame)
        g.adequate = self.adequate
        g.logic = self.logic
        g.worlds = list(self.worlds)
        g.R = set(self.R)
        g.S = set(self.S)
        g.nu = dict(self.nu)
        g.edge_label = dict(self.edge_label)
        g.obligations = dict(self.obligations)
        g.exempt_root = self.exempt_root
        g.worklist = list(self.worklist)
        g._forget()
        return g

    def _forget(self) -> None:
        """Drop what queries derived from the frame (see the class doc)."""
        self._adj: _Adjacency | None = None
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
        out = set(self.obligations.get(w, ()))
        for a in _adjacency(self).pred.get(w, ()):
            out |= self.obligations.get(a, frozenset())
        return frozenset(out)

    def effective_boxes(self, w: str) -> frozenset[Formula]:
        """Formulas boxed at w: bodies of box members plus all obligations
        in force at w."""
        out = {b.body for b in self.nu[w].boxes()}
        out |= self.effective_obligations(w)
        return frozenset(out)

    def to_frame(self) -> VeltmanFrame:
        return VeltmanFrame(frozenset(self.worlds), frozenset(self.R), frozenset(self.S))

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
    refresh_worklist(f)
    return f


# --- cones -------------------------------------------------------------------


class _Adjacency:
    """The one index of a labeled frame's relations, from which the cone,
    predecessor and label queries are answered; `labels` maps x to the
    distinct labels of x's edges, ordered by edge. `close` builds the index
    of the frame it returns. A frame keeps it until it is copied or grows
    a world, so a caller edits a copy of a closed frame."""

    def __init__(self, R: Iterable, S: Iterable, edge_label: dict[tuple[str, str], Formula]):
        self.succ = image(R)
        self.pred = image((b, a) for a, b in R)
        self.s_at = image(((x, y), z) for x, y, z in S)  # y S_x z
        self.s_any = image((y, z) for _, y, z in S)  # y S_x z for some x
        self.seeds = image(((x, lab), y) for (x, y), lab in edge_label.items())
        self.labels: dict[str, list[Formula]] = {}
        for (x, _), lab in sorted(edge_label.items()):
            labs = self.labels.setdefault(x, [])
            if lab not in labs:
                labs.append(lab)


def _adjacency(F: LabeledFrame) -> _Adjacency:
    """F's index: the one `close` left, else built on first use and kept."""
    if F._adj is None:
        F._adj = _Adjacency(F.R, F.S, F.edge_label)
    return F._adj


def _critical_cone(adj: _Adjacency, x: str, C: Formula) -> set[str]:
    """The C-critical cone of x. On a closed ILM frame it is also the
    M-cone, so the search reads only this cone in both logics.

    The M-cone's extra step goes from y along one or more S steps of any
    index, then one R step: y S_a1 z1 S_a2 ... zk R u. A closed ILM frame
    has z R u whenever z S_a z' R u (validate's `ilm_condition`), so
    applying the rule backwards along the S-path gives zk-1 R u, ..., y R u.
    The extra step reaches only R-successors of y, which the R step
    already takes. On an unclosed frame the two cones can differ."""
    return reach(
        adj.seeds.get((x, C), ()),
        lambda y: (*adj.succ.get(y, ()), *adj.s_at.get((x, y), ())),
    )


def _generalized_cone(adj: _Adjacency, x: str, C: Formula) -> set[str]:
    return reach(
        adj.seeds.get((x, C), ()),
        lambda y: (*adj.succ.get(y, ()), *adj.s_any.get(y, ())),
    )


def critical_cone(F: LabeledFrame, x: str, C: Formula) -> set[str]:
    """Worlds reached from a C-labeled edge of x via S_x and R steps."""
    return _critical_cone(_Adjacency(F.R, F.S, F.edge_label), x, C)


def generalized_cone(F: LabeledFrame, x: str, C: Formula) -> set[str]:
    """The critical cone closed under S steps with arbitrary index."""
    return _generalized_cone(_Adjacency(F.R, F.S, F.edge_label), x, C)


# --- closure ------------------------------------------------------------------


def _propagate_obligations(F: LabeledFrame, triples: Iterable[tuple[str, str, str]]) -> None:
    """Under ILM, obligations flow along S-transitions (the obligation set
    is the out-of-D part of the boxes, and S preserves boxes). The given
    triples are examined first; a world whose obligations grow passes them
    on along every S-transition out of it, read off F's index."""
    if F.logic != ILM:
        return
    ob, s_any = F.obligations, _adjacency(F).s_any
    todo = [(b, c) for _, b, c in triples]
    while todo:
        b, c = todo.pop()
        ob_b, ob_c = ob.get(b, frozenset()), ob.get(c, frozenset())
        if not ob_b <= ob_c:
            ob[c] = ob_c | ob_b
            todo.extend((c, d) for d in s_any.get(c, ()))


def close(F: LabeledFrame, since: LabeledFrame | None = None) -> LabeledFrame:
    """The closure of F under its logic's frame conditions: same worlds and
    labels, R and S only grow, and `validate` reports no violation of
    `r_transitive`, `s_reflexive`, `s_transitive`, `r_inside_s` or, under
    ILM, `ilm_condition`. The fixpoint is unique, so this worklist
    computation agrees with adding one missing fact at a time.

    Each edge and triple enters the returned frame's index (`_Adjacency`)
    when it is taken off the worklist and is then joined, once, with every
    rule premise indexed so far. Of any two premises that fire a rule, the
    later one taken off finds the earlier in the index, so no conclusion is
    missed. The frame keeps the index, so a caller edits a copy of it.

    since, when given, is a closed frame that F extends (F's R, S and
    obligations contain its own): its facts enter the index unjoined,
    since any rule they fire together already holds, and only the facts it
    lacks go on the worklist. Without since every fact is new."""
    g = F.copy()
    R, S, logic = g.R, g.S, g.logic
    old_R, old_S = (since.R, since.S) if since is not None else ((), ())
    adj = _Adjacency(old_R, old_S, g.edge_label)
    succ, pred, s_at, s_any = adj.succ, adj.pred, adj.s_at, adj.s_any
    s_to = image(((a, c), b) for a, b, c in old_S)  # (a, c) -> {b : b S_a c}
    s_into = image((c, b) for _, b, c in old_S)  # c -> {b : b S_a c for some a}
    todo: list[tuple[str, ...]] = [*R.difference(old_R), *S.difference(old_S)]

    def add(fact, into):
        if fact not in into:
            into.add(fact)
            todo.append(fact)

    while todo:
        fact = todo.pop()
        if len(fact) == 2:
            a, b = fact
            succ.setdefault(a, set()).add(b)
            pred.setdefault(b, set()).add(a)
            add((a, b, b), S)  # s_reflexive
            for c in succ.get(b, ()):  # r_transitive, r_inside_s: a R b R c
                add((a, c), R)
                add((a, b, c), S)
            for z in pred.get(a, ()):  # r_transitive, r_inside_s: z R a R b
                add((z, b), R)
                add((z, a, b), S)
            if logic == ILM:  # ilm_condition, y S_x a R b
                for y in s_into.get(a, ()):
                    add((y, b), R)
        else:
            a, b, c = fact
            s_at.setdefault((a, b), set()).add(c)
            s_any.setdefault(b, set()).add(c)
            s_to.setdefault((a, c), set()).add(b)
            s_into.setdefault(c, set()).add(b)
            for d in s_at.get((a, c), ()):  # s_transitive, b S_a c S_a d
                add((a, b, d), S)
            for u in s_to.get((a, b), ()):  # s_transitive, u S_a b S_a c
                add((a, u, c), S)
            if logic == ILM:  # ilm_condition, b S_a c R d
                for d in succ.get(c, ()):
                    add((b, d), R)
    g._adj = adj
    _propagate_obligations(g, S.difference(old_S))
    return g


def close_frame(frame: VeltmanFrame, logic: str) -> VeltmanFrame:
    """Closure of a plain frame under the same conditions. Raises ValueError
    when an R edge or S triple names a world outside the frame's worlds, or
    when R, before or after closing, has a cycle: no Veltman frame extends
    such a frame."""
    for name, rel in (("R edge", frame.R), ("S triple", frame.S)):
        for e in sorted(rel):
            if not frame.worlds.issuperset(e):
                raise ValueError(f"{name} {e} names a world outside worlds")
    g = LabeledFrame(AdequateSet(()), logic, sorted(frame.worlds), frame.R, frame.S)
    closed = close(g)
    cycle = find_cycle(g.worlds, frame.R) or find_cycle(g.worlds, closed.R)
    if cycle:
        raise ValueError("R has a cycle: " + " -> ".join(cycle))
    return VeltmanFrame(frozenset(closed.worlds), frozenset(closed.R), frozenset(closed.S))


def depth(F) -> int:
    """Length of the longest R-chain (0 for edgeless frames)."""
    if find_cycle(F.worlds, F.R):
        raise ValueError("R has a cycle")
    succ = image(F.R)
    got = fold(F.worlds, lambda w: succ.get(w, ()), lambda w, ds: max(ds, default=-1) + 1, {})
    return max(got.values(), default=0)


# --- frame validation ---------------------------------------------------------


def quasi_frame_violations(F: LabeledFrame, since: LabeledFrame | None = None) -> list[str]:
    """Violated invariants of the working frame, as readable strings.
    Checks the quasi-frame conditions, the ILM additions when applicable,
    obligation satisfaction, and strict box growth along R. F must be
    closed. Criticality is checked over the critical cone in both logics:
    under ILM the M-cone of a closed frame is the same cone
    (`_critical_cone`). Under ILM, obligations need no check along S:
    `close` pushes them along every S triple (`_propagate_obligations`).

    No cycle of the composition R;S+ needs its own check. Under ILM a
    closed frame has y R u whenever y S_x z R u (`ilm_condition`), so
    along a cycle a0 R b0 S+ a1 R b1 S+ ... a0 the rule, applied backwards
    along each S-chain, gives b0 R b1 R ... R b0: a cycle of R, which R's
    transitivity turns into a self-loop, reported below.

    since, when given, is a settled frame and F the closure of a child of
    it. The checks of single edges and triples then run only where F
    differs from since: on new edges and triples, and on edges at worlds
    whose effective obligations changed. R is transitive in a closed
    frame, so an R-cycle shows as a new self-loop. The cone overlap and
    criticality checks read whole cones and always cover the whole frame.
    With since the list can be shorter than a whole-frame call's, but it
    is empty exactly when that one is. Without since every edge and triple
    is new."""
    old_R, old_S = (since.R, since.S) if since is not None else ((), ())
    old_ob = since.obligations if since is not None else {}
    new_R, new_S = F.R.difference(old_R), F.S.difference(old_S)
    grown = {w for w in F.worlds if F.obligations.get(w) != old_ob.get(w)}
    # worlds whose effective obligations may differ from since's
    moved = grown.union((b for _, b in new_R), (b for a, b in F.R if a in grown))
    edges = sorted(new_R.union(e for e in old_R if e[0] in moved or e[1] in moved))
    out: list[str] = []
    if find_cycle((), new_R):
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
            eff[x] = sorted(F.effective_obligations(x), key=lambda f: f.key())
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
    adj = _adjacency(F)
    for x in F.worlds:
        labs = adj.labels.get(x, ())
        # The overlap check is no consequence of the others: on
        # tests/differential.json, 3,827 of 4,820 IL rejections and 3 of
        # 312 ILM rejections report only the overlap, and without it the
        # refuted IL row ((p |> (bot -> r)) |> (r & p) & (r |> bot)) |> bot
        # & []bot gets another countermodel.
        cones = {lab: _generalized_cone(adj, x, lab) for lab in labs}
        for i, a in enumerate(labs):
            for b in labs[i + 1 :]:
                if cones[a] & cones[b]:
                    out.append(f"generalized cones overlap at {x}: {render(a)} / {render(b)}")
        for lab in labs:
            for y in sorted(_critical_cone(adj, x, lab)):
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
    atoms = existential_atoms(F.adequate)
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
        for a in F.adequate.modal_atoms:
            if isinstance(a, Rhd) and t.models(a):
                for y in F.worlds:
                    if y in ys and F.nu[y].models(a.left):
                        yield Deficiency(x, y, a)


def _is_open(F: LabeledFrame, adj: _Adjacency, item) -> bool:
    """No witness yet: for ~(A |> B) no A world in the B-critical cone, for
    ~[]A no ~A successor, for a deficiency no S_x exit to a D world."""
    if isinstance(item, Deficiency):
        right = item.formula.right
        return not any(F.nu[z].models(right) for z in adj.s_at.get((item.x, item.y), ()))
    x, body = item.world, item.formula.left
    if isinstance(body, Rhd):
        return not any(F.nu[y].models(body.left) for y in _critical_cone(adj, x, body.right))
    refuter = Neg(body.body)
    return not any(F.nu[y].models(refuter) for y in adj.succ.get(x, ()))


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
    adj = _adjacency(F)
    current = {it for it in maybe if _is_open(F, adj, it)}
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
        extra = [(o, True) for o in sorted(F.effective_obligations(x), key=lambda f: f.key())]
        adj = _adjacency(F)
        back = adj.pred.get(x, ())
        for a in F.worlds:
            if a in back:
                for lab in adj.labels.get(a, ()):
                    if x in _critical_cone(adj, a, lab):
                        extra += [(f, True) for f in crit_obligations(F.nu[a], lab)]
        got = F._constraints[x] = tuple(extra)
    return got


def _box_lookahead(F: LabeledFrame, t: DTheory, base: TheoryQuery, memo: dict) -> bool:
    """Would a fresh successor of x with theory t leave one of its false
    boxes permanently unwitnessable? base holds x's inherited and critical
    constraints plus the fresh world's obligations. In any completed
    extension, an R-maximal refuter of []E carries ~E together with []E
    and satisfies every inherited constraint, so emptiness of that set is
    final. The answer reads t only through `t.boxes()`, its key in memo."""
    boxes = t.boxes()
    got = memo.get(boxes)
    if got is None:
        false_boxes = [bx for bx in F.adequate.boxed_members if bx not in boxes]
        base = base.where(_succ_constraints(t))
        got = memo[boxes] = not any(
            base.where(((bx.body, False), (bx, True))).is_empty() for bx in false_boxes
        )
    return got


def _deficiency_lookahead(
    F: LabeledFrame, t: DTheory, base: TheoryQuery, rhos: list[Rhd], memo: dict
) -> bool:
    """Would a fresh successor of x with theory t leave some deficiency of x
    permanently uneliminable? base holds x's inherited and critical
    constraints plus the successor constraints of x, and rhos are the rhds
    x's theory holds. Any S_x exit it could ever get, incidental or
    constructed, must satisfy the deficiency's candidate constraints, so
    an empty candidate set now is final. That set's query is base, t's
    boxes under ILM and rho's right side, so memo keys it on rho and, under
    ILM, `t.boxes()`."""
    boxes = t.boxes() if F.logic == ILM else ()
    for rho in rhos:
        if not t.models(rho.left) or t.models(rho.right):
            continue
        got = memo.get((rho, boxes))
        if got is None:
            cs = [(b, True) for b in boxes] + [(rho.right, True)]
            got = memo[rho, boxes] = base.where(cs).is_empty()
        if got:
            return False
    return True


def criticality_label(F: LabeledFrame, x: str, y: str) -> Formula:
    """The formula B with y in the B-critical cone of x; bot if none."""
    adj = _adjacency(F)
    return next((lab for lab in adj.labels.get(x, ()) if y in _critical_cone(adj, x, lab)), BOT)


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


def fresh_candidate_theories(F: LabeledFrame, item) -> list[DTheory]:
    """Theory-level candidates for eliminating the item with a fresh world.
    An empty list means the item can never be eliminated on any extension
    of F: the constraint set only grows as the frame grows, and a reusable
    world's theory would itself be a solution of it.

    A candidate is a fresh witness (`_witness`) that meets x's successor
    constraints, and the list is in search_preference order
    (`TheoryQuery.preferred`). Both lookaheads narrow the same query, and
    within a call each is asked once per box class of the candidates
    (per rhd as well for the deficiency lookahead). The answer depends
    on F only through the item's world theory, its criticality label, the
    inherited constraints and, for an ILM deficiency, y's theory. It is
    memoised on those per adequate set, so the most-constrained scan of
    every frame in a search and the elimination that follows it share one
    list; callers do not mutate it.

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
    rhos = [rho for rho in F.adequate.modal_atoms if isinstance(rho, Rhd) and gx.models(rho)]
    # the lookaheads' answers, per box class and per (rho, box class)
    seen_boxes: dict = {}
    seen_deficiencies: dict = {}
    good = [
        t
        for t in deficiency_base.where(own).preferred()
        if _deficiency_lookahead(F, t, deficiency_base, rhos, seen_deficiencies)
        and _box_lookahead(F, t, box_base, seen_boxes)
    ]
    memo[key] = good
    return good


def nogoods(
    D: AdequateSet, theories: Iterable[DTheory], state, skipped: str, item=None
) -> Iterator[LoggedTheory]:
    """The theories a search tries, in order, each as a LoggedTheory, less
    those that agree with the read set of a failed subtree. A theory
    covered by a kept cube is skipped and reported to the state's observer
    as (skipped, item, theory). When the caller asks for the next theory,
    the subtree of the last one has failed, and its log is kept as a cube
    unless a budget cut happened while it ran (`state.cuts` moved).

    A cube holds the (formula, value) pairs a world's theory gave to every
    `models` read while the subtree that added the world ran. The search
    reads a world's theory only through `models` and through the memos
    keyed on theories (`fresh_candidate_theories`, `crit_obligations`),
    whose answers depend on a theory only through its rhd and box atoms,
    and every log starts with those. So a theory that agrees with a cube,
    put in place of the failed one, makes the same reads, gets the same
    answers and fails the same way: skipping it loses no model. A subtree
    cut by the budget did not fail on its reads, so it is never learned
    from. Cubes are indexed by their rhd and box values."""
    atoms = existential_atoms(D)
    k = len(atoms)
    cubes: dict[tuple[bool, ...], list[tuple[tuple[Formula, bool], ...]]] = {}
    for t in theories:
        rests = cubes.get(tuple(t.values[a] for a in atoms), ()) if cubes else ()
        if any(all(t.models(f) == v for f, v in rest) for rest in rests):
            if state.observer is not None:
                state.observer(skipped, item, t)
            continue
        t, cuts = LoggedTheory(t), state.cuts
        yield t
        if state.cuts == cuts:
            reads = list(t.reads.items())
            cubes.setdefault(tuple(v for _, v in reads[:k]), []).append(tuple(reads[k:]))


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
    fresh candidates go through `nogoods`, and a frame of
    `state.budget.max_worlds` worlds gets no fresh world."""
    x, B, (f, v), _, avoids, label, y, boxes_of = _witness(F, item)
    gx = F.nu[x]
    back = {x} | _adjacency(F).pred.get(x, set())  # R is transitive on F

    def link(g, w):
        g.R.add((x, w))
        if label is not None:
            g.edge_label[(x, w)] = label
        if y is not None:
            g.S.add((x, y, w))
        return _finish(g, F)

    for w in F.worlds:
        t = F.nu[w]
        if w in back or (label is not None and (x, w) in F.edge_label):
            continue
        if t.models(f) == v and crit_succ(gx, B, t) and (boxes_of is None or box_incl(boxes_of, t)):
            done = link(F.copy(), w)
            if done is not None:
                yield done
    keeps = [single_neg(a) for a in avoids]
    for t in nogoods(F.adequate, fresh_candidate_theories(F, item), state, "skipped", item):
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
    atoms compares all of D."""
    got, ix = model.extensions(D.modal_atoms), model.frame.index
    return all(
        (got[a] >> ix[w] & 1) == nu[w].models(a) for w in model.frame.worlds for a in D.modal_atoms
    )
