"""Shared corpus builders for the test suite. Everything is seeded, so the
corpora are identical across runs."""

import functools
import itertools

from ilkit.construction import (
    _Adjacency,
    _adjacency,
    _propagate_obligations,
    _successor_constraints,
    _witness,
    refresh_worklist,
)
from ilkit.relation import find_cycle, image, reach
from ilkit.semantics import IL, ILM, VeltmanFrame, VeltmanModel, frame_validates, validate
from ilkit.syntax import (
    And,
    Atom,
    BOT,
    Box,
    Implies,
    Neg,
    Or,
    Rhd,
    _closure_kids,
    _kids,
    single_neg,
)
from ilkit.theory import TheoryQuery, _succ_constraints, crit_obligations


def search_preference(t):
    """The search's order on theories, as a sort key: fewer false rhd and
    box atoms first (each false one is a pending existential), ties by
    the key. The reference for the order `_TheoryIndex.levels` walks."""
    pending = sum(1 for a in t.adequate.existential_atoms if not t.values[a])
    return pending, t.key()


def random_formula(rng, depth=2, atoms=("p", "q", "r"), allow_rhd=True):
    """Random AST of modal depth <= depth over the given atoms."""
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms)) if rng.random() < 0.85 else BOT
    k = rng.randrange(6 if allow_rhd else 5)
    a = random_formula(rng, depth - 1, atoms, allow_rhd)
    b = random_formula(rng, depth - 1, atoms, allow_rhd)
    if k == 0:
        return Implies(a, b)
    if k == 1:
        return Box(a)
    if k == 2:
        return Neg(a)
    if k == 3:
        return And(a, b)
    if k == 4:
        return Or(a, b)
    return Rhd(a, b)


def fold(roots, kids, value, got):
    """value(n, [the values of n's kids]) at each node n reached from roots
    by kids, computed from the bottom up into got, which is returned; a node
    already in got is not revisited. kids must return collections and
    reach no cycle, and no node is a tuple: an expanded node goes back on
    the stack as (node, kids) under its kids. The stack is explicit, so
    long chains cannot exhaust Python's."""
    stack = list(roots)
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            n, ks = n
            got[n] = value(n, [got[k] for k in ks])
        elif n not in got:
            ks = kids(n)
            stack.append((n, ks))
            stack.extend(ks)
    return got


def depth(F):
    """Length of the longest R-chain (0 for edgeless frames)."""
    if find_cycle(F.worlds, F.R):
        raise ValueError("R has a cycle")
    succ = image(F.R)
    got = fold(F.worlds, lambda w: succ.get(w, ()), lambda w, ds: max(ds, default=-1) + 1, {})
    return max(got.values(), default=0)


def modal_depth(f):
    return fold([f], _kids, lambda g, ds: max(ds, default=0) + isinstance(g, (Box, Rhd)), {})[f]


def closure_subformulas(f):
    """Subformulas with ~ read as primitive: ~g contributes itself and the
    subformulas of g, never a bare bot."""
    return frozenset(reach([f], _closure_kids))


def transitive_closure_pairs(R):
    R = set(R)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(R):
            for (b2, c) in list(R):
                if b == b2 and (a, c) not in R:
                    R.add((a, c))
                    changed = True
    return R


def random_transitive_dag(rng, worlds, p_edge=0.5):
    R = set()
    for i in range(len(worlds)):
        for j in range(i + 1, len(worlds)):
            if rng.random() < p_edge:
                R.add((worlds[i], worlds[j]))
    return transitive_closure_pairs(R)


def enumerate_il_frames(n_max):
    """Every IL frame (up to world naming w0..wk) with at most n_max worlds."""
    out = []
    for n in range(1, n_max + 1):
        worlds = [f"w{i}" for i in range(n)]
        pairs = [(a, b) for a in worlds for b in worlds if a != b]
        for bits in itertools.product([0, 1], repeat=len(pairs)):
            R = {pr for pr, b in zip(pairs, bits) if b}
            if any((b, a) in R for (a, b) in R):
                continue
            if not all((a, c) in R for (a, b) in R for (b2, c) in R if b2 == b):
                continue
            base = {(x, y, y) for (x, y) in R} | {
                (x, y, z) for (x, y) in R for (y2, z) in R if y2 == y
            }
            opt = sorted(
                (x, y, z)
                for (x, y) in R
                for (x2, z) in R
                if x2 == x and (x, y, z) not in base
            )
            for obits in itertools.product([0, 1], repeat=len(opt)):
                S = set(base) | {t for t, b in zip(opt, obits) if b}
                closed = all(
                    (x, u, w) in S
                    for (x, u, v) in S
                    for (x2, v2, w) in S
                    if x2 == x and v2 == v
                )
                if closed:
                    out.append(VeltmanFrame.make(worlds, R, S))
    return out


@functools.lru_cache(maxsize=None)
def small_frames(logic, n_max=3):
    """Every frame of the logic with at most n_max worlds: the IL frames,
    and under ILM those meeting the M condition. GL reads only R, and the
    IL frames carry every transitive, irreflexive R."""
    return tuple(fr for fr in enumerate_il_frames(n_max) if logic != ILM or validate(fr, ILM).ok)


def small_countermodel(f, frames):
    """A frame among the given ones on which f fails at some world under
    some valuation of its atoms; None if f holds throughout."""
    return next((fr for fr in frames if not frame_validates(fr, f)), None)


def neg_chain(n, f=Atom("p")):
    """f under n negations, nested n deep."""
    for _ in range(n):
        f = Neg(f)
    return f


def reference_depth(f):
    """The modal depth of f, by recursion on f."""
    if isinstance(f, Box):
        return 1 + reference_depth(f.body)
    if isinstance(f, (Implies, Rhd)):
        return max(reference_depth(f.left), reference_depth(f.right)) + isinstance(f, Rhd)
    return 0


def reference_value(f, assign):
    """The value of f under a partial assignment of its modal atoms, by
    recursion on f: None when the atoms assigned leave it open."""
    if f == BOT:
        return False
    if not isinstance(f, Implies):
        return assign.get(f)
    a, b = reference_value(f.left, assign), reference_value(f.right, assign)
    if a is False or b is True:
        return True
    return None if a is None or b is None else False


# The closure conditions `validate` checks, each with the fact a violation's
# witness lacks: an R edge or an S triple (x, y, z) for y S_x z. close_trace
# removes the violations in this order.
CLOSURE_FACT = {
    "r_transitive": lambda a, b, c: (a, c),  # a R b R c: a R c
    "s_reflexive": lambda a, b: (a, b, b),  # a R b: b S_a b
    "s_transitive": lambda a, b, c, d: (a, b, d),  # b S_a c S_a d: b S_a d
    "r_inside_s": lambda a, b, c: (a, b, c),  # a R b R c: b S_a c
    "ilm_condition": lambda a, b, c, d: (b, d),  # b S_a c R d: b R d
}


def find_imperfections(F, logic=None):
    """The closure violations `validate` reports on F, a labeled or a plain
    frame, ordered by condition as in CLOSURE_FACT, then by witness."""
    logic = logic or getattr(F, "logic", IL)
    frame = F if isinstance(F, VeltmanFrame) else VeltmanFrame.make(F.worlds, F.R, F.S)
    order = list(CLOSURE_FACT)
    return sorted(
        (v for v in validate(frame, logic).violations if v.condition in CLOSURE_FACT),
        key=lambda v: (order.index(v.condition), v.witness),
    )


def close_trace(F, logic=None):
    """The reference closure `close` is tested against: each step adds the
    fact the first imperfection lacks and yields that imperfection and the
    frame it leaves. The last frame yielded is the closure."""
    logic = logic or F.logic
    g = F.copy()
    while True:
        imps = find_imperfections(g, logic)
        if not imps:
            return
        fact = CLOSURE_FACT[imps[0].condition](*imps[0].witness)
        g = g.copy()
        (g.R if len(fact) == 2 else g.S).add(fact)
        _propagate_obligations(g, g.S)
        yield imps[0], g


def m_cone(F, x, A):
    """The critical cone of x's A-labeled edges, closed also under a step
    along one or more S steps of any index and then one R step. On a
    frame closed under ILM it is the critical cone."""
    adj = _Adjacency(F.R, F.S, F.edge_label)
    s_step = lambda n: adj.s_any.get(n, ())

    def step(y):
        yield from adj.succ.get(y, ())
        yield from adj.s_at.get((x, y), ())
        for u in reach(s_step(y), s_step):
            yield from adj.succ.get(u, ())

    return reach(adj.seeds.get((x, A), ()), step)


def check_mcone_invariance(before, after):
    """True iff every labeled M-cone of before is the same on after."""
    return all(
        m_cone(before, x, lab) == m_cone(after, x, lab)
        for x in before.worlds
        for lab in labels_of(before, x)
    )


def labels_of(F, x):
    """The distinct labels of x's edges in the labeled frame F, ordered by
    edge."""
    return _adjacency(F).labels.get(x, [])


def open_items(F):
    """The open problems and deficiencies of the labeled frame F, in key
    order: the worklist `refresh_worklist` gives a copy of F whose worklist
    is empty."""
    g = F.copy()
    g.worklist = []
    refresh_worklist(g)
    return g.worklist


def reference_fresh_candidates(F, item):
    """The candidate list of `fresh_candidate_theories` for the item, with
    no memo: every candidate asks both lookaheads' queries afresh, and the
    list is sorted by search_preference at the end."""
    x, B, meets, fresh, avoids, _, _, boxes_of = _witness(F, item)
    gx = F.nu[x]
    common = TheoryQuery(F.adequate, F.logic, _successor_constraints(F, x))
    common = common.where((f, True) for f in crit_obligations(gx, B))
    box_base = common.where((single_neg(a), True) for a in avoids)
    deficiency_base = common.where(_succ_constraints(gx))
    own = [meets, *fresh]
    if boxes_of is not None:
        own += [(b, True) for b in boxes_of.boxes()]

    def deficiency_lookahead(t):
        with_boxes = deficiency_base
        if F.logic == ILM:
            with_boxes = with_boxes.where((b, True) for b in t.boxes())
        return not any(
            gx.models(rho)
            and t.models(rho.left)
            and not t.models(rho.right)
            and with_boxes.where(((rho.right, True),)).is_empty()
            for rho in F.adequate.modal_atoms
            if isinstance(rho, Rhd)
        )

    def box_lookahead(t):
        base = box_base.where(_succ_constraints(t))
        return not any(
            base.where(((bx.body, False), (bx, True))).is_empty()
            for bx in F.adequate.modal_atoms
            if isinstance(bx, Box) and not t.models(bx)
        )

    index, mask = deficiency_base.where(own).answers()
    good = [t for t in index.walk(mask) if deficiency_lookahead(t) and box_lookahead(t)]
    return sorted(good, key=search_preference)


# --- submodels and gluing ----------------------------------------------------
# The paper's model constructions behind the admissible rules: a generated
# submodel keeps forcing, and a fresh root glued below countermodels
# refutes their disjunction (rule ii). The tests use them as independent
# refutations that do not rerun the search.


def generated_submodel(model: VeltmanModel, m: str) -> VeltmanModel:
    """Restriction to m and its R-successors; forcing of every formula is
    preserved at every retained world."""
    if m not in model.frame.worlds:
        raise KeyError(f"unknown world {m!r}")
    keep = {m} | model.frame.succ.get(m, set())
    R = [e for e in model.frame.R if keep.issuperset(e)]
    S = [t for t in model.frame.S if keep.issuperset(t)]
    return VeltmanModel(VeltmanFrame.make(keep, R, S), {w: model.val.get(w, frozenset()) for w in keep})


def _disjointify(models: list[tuple[VeltmanModel, str]]):
    """Rename world sets that collide with each other: the i-th model's
    world w becomes f"m{i}_{w}" when renaming is needed."""
    seen: set[str] = set()
    out = []
    for i, (m, d) in enumerate(models):
        ws = set(m.frame.worlds)
        if ws & seen:
            ren = {w: f"m{i}_{w}" for w in ws}
            m = VeltmanModel(
                VeltmanFrame(
                    frozenset(ren[w] for w in ws),
                    frozenset((ren[x], ren[y]) for x, y in m.frame.R),
                    frozenset((ren[x], ren[y], ren[z]) for x, y, z in m.frame.S),
                ),
                {ren[w]: m.val.get(w, frozenset()) for w in ws},
            )
            d = ren[d]
        seen |= set(m.frame.worlds)
        out.append((m, d))
    return out


def _fresh_root(taken: set[str]) -> str:
    name = "r"
    i = 0
    while name in taken:
        name = f"r{i}"
        i += 1
    return name


def glue_root(models: list[tuple[VeltmanModel, str]]) -> tuple[VeltmanModel, str]:
    """Put a fresh root below all the given models: the root sees every
    world, and its S is identity-on-successors plus all input R edges."""
    models = _disjointify(list(models))
    all_worlds: set[str] = set()
    for m, _ in models:
        all_worlds |= set(m.frame.worlds)
    root = _fresh_root(all_worlds)
    R = set()
    S = set()
    val: dict[str, frozenset[str]] = {root: frozenset()}
    for m, _ in models:
        R |= set(m.frame.R)
        S |= set(m.frame.S)
        val.update(m.val)
    R |= {(root, w) for w in all_worlds}
    S |= {(root, w, w) for w in all_worlds}
    for m, _ in models:
        S |= {(root, x, y) for (x, y) in m.frame.R}
    frame = VeltmanFrame(frozenset(all_worlds | {root}), frozenset(R), frozenset(S))
    return VeltmanModel(frame, val), root


def glue_above_world(model: VeltmanModel, m: str) -> tuple[VeltmanModel, str]:
    """Put a fresh root directly below world m: the root sees exactly m and
    m's successors; S at the root is identity plus R above m."""
    if m not in model.frame.worlds:
        raise KeyError(f"unknown world {m!r}")
    root = _fresh_root(set(model.frame.worlds))
    above = {m} | model.frame.succ.get(m, set())
    R = set(model.frame.R) | {(root, x) for x in above}
    S = set(model.frame.S)
    S |= {(root, x, x) for x in above}
    S |= {(root, x, y) for (x, y) in model.frame.R if x in above and y in above}
    frame = VeltmanFrame(frozenset(model.frame.worlds | {root}), frozenset(R), frozenset(S))
    val = dict(model.val)
    val[root] = frozenset()
    return VeltmanModel(frame, val), root


def glue_selfprover(
    left: VeltmanModel, l: str, right: VeltmanModel, r: str
) -> tuple[VeltmanModel, str]:
    """Glue a fresh world w below both models, identify l S_w r, and give l
    access to everything above r. S is rebuilt canonically from the glued R
    (y S_x z iff x R y and y R* z) plus the one extra triple, so the output
    is an ILM model; input S relations are discarded (the construction is
    for box-fragment inputs).
    """
    if l not in left.frame.worlds:
        raise KeyError(f"unknown world {l!r}")
    if r not in right.frame.worlds:
        raise KeyError(f"unknown world {r!r}")
    pairs = _disjointify([(left, l), (right, r)])
    (left, l), (right, r) = pairs
    w = _fresh_root(set(left.frame.worlds) | set(right.frame.worlds))
    worlds = set(left.frame.worlds) | set(right.frame.worlds) | {w}
    R = set(left.frame.R) | set(right.frame.R)
    R |= {(w, x) for x in worlds if x != w}
    R |= {(l, y) for (x, y) in right.frame.R if x == r}
    # l's new edges may need lifting to l's ancestors
    R = transitive_closure_pairs(R)
    succ = image(R)
    S = {(x, y, z) for x, y in R for z in (y, *succ.get(y, ()))}
    S.add((w, l, r))
    frame = VeltmanFrame(frozenset(worlds), frozenset(R), frozenset(S))
    val = dict(left.val)
    val.update(right.val)
    val[w] = frozenset()
    return VeltmanModel(frame, val), w


@functools.cache
def gls_provable(left, right):
    """The sequent left => right, two frozensets of rhd-free formulas, is
    provable in GLS, the cut-free sequent calculus for GL (Sambin &
    Valentini, J. Philos. Logic 1982), memoised on sequents. The `->`
    rules are invertible, so they apply first in any order; then some
    []B on the right must follow by the GL rule from G, []G, []B => B,
    where []G are the boxes on the left. []B is not on the left (else the
    sequent is an axiom), so each GL step adds a boxed subformula on the
    left, and the search ends."""
    if BOT in left or left & right:
        return True
    for f in right:
        if isinstance(f, Implies):
            return gls_provable(left | {f.left}, (right - {f}) | {f.right})
    for f in left:
        if isinstance(f, Implies):
            rest = left - {f}
            return gls_provable(rest, right | {f.left}) and gls_provable(rest | {f.right}, right)
    boxes = frozenset(f for f in left if isinstance(f, Box))
    bodies = frozenset(f.body for f in boxes)
    return any(
        gls_provable(bodies | boxes | {b}, frozenset({b.body})) for b in right if isinstance(b, Box)
    )


def all_gl_formulas(max_nodes, max_modal_depth=2):
    """Every AST over {bot, p} built from -> and [] with at most max_nodes
    nodes and the given modal depth."""
    p = Atom("p")
    by_size = {1: [BOT, p]}
    for n in range(2, max_nodes + 1):
        out = []
        for f in by_size.get(n - 1, ()):
            out.append(Box(f))
        for i in range(1, n - 1):
            for a in by_size.get(i, ()):
                for b in by_size.get(n - 1 - i, ()):
                    out.append(Implies(a, b))
        by_size[n] = out
    all_f = [f for fs in by_size.values() for f in fs]
    return [f for f in all_f if modal_depth(f) <= max_modal_depth]
