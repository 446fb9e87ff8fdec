"""Correctness checks that do not trust the code under test.

Certificates are re-checked on the acceptance suite's criterion-2 path:
frame validation for the logic, forcing of the negated query at the
designated world, and the truth lemma with labels rebuilt from forcing
rather than taken from the engine. Frames are checked against a closure
test and a forcing evaluator written here.
"""

from __future__ import annotations

import hashlib
import json

from ilkit.construction import verify_truth_lemma
from ilkit.semantics import GL, ILM, forces, model_to_dict, validate
from ilkit.syntax import Atom, Bot, Box, Implies, Neg, Rhd, adequate_closure, render
from ilkit.theory import DTheory


def cert_sha(model_dict: dict, world: str) -> str:
    """sha256 of the certificate's canonical JSON; the library's model and
    the CLI's `countermodel` field give the same digest."""
    text = json.dumps({"model": model_dict, "world": world}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recheck_certificate(logic: str, query, model, world: str) -> str | None:
    """None if the countermodel refutes `query` at `world`, else the name of
    the failed check."""
    if not validate(model.frame, ILM if logic == GL else logic).ok:
        return "validate"
    if world not in model.frame.worlds or not forces(model, world, Neg(query)):
        return "forcing"
    D = adequate_closure([Neg(query)])
    nu = {
        w: DTheory(D, {a: forces(model, w, a) for a in D.modal_atoms})
        for w in model.frame.worlds
    }
    if not verify_truth_lemma(model, nu, D):
        return "truth lemma"
    return None


def verdict_row(label: str, logic: str, query, verdict) -> tuple[list, str | None]:
    """Golden row [label, logic, query, verdict, cert sha] and the result of
    the certificate re-check (None when fine or when there is none)."""
    sha = None
    problem = None
    if verdict.kind == "refuted":
        sha = cert_sha(model_to_dict(verdict.model), verdict.world)
        bad = recheck_certificate(logic, query, verdict.model, verdict.world)
        if bad:
            problem = f"{label}: certificate fails {bad}"
    return [label, logic, render(query), verdict.kind, sha], problem


def closure_defects(worlds, R, S, logic: str) -> list[str]:
    """Frame conditions a closed frame must meet, checked directly."""
    out = []
    succ: dict[str, set[str]] = {w: set() for w in worlds}
    for (x, y) in R:
        succ[x].add(y)
    for (x, y) in R:
        if x == y:
            out.append(f"reflexive edge {x}")
        if not succ[y] <= succ[x]:
            out.append(f"R not transitive at {(x, y)}")
        if (x, y, y) not in S:
            out.append(f"S_{x} not reflexive at {y}")
        for z in succ[y]:
            if (x, y, z) not in S:
                out.append(f"R not inside S_{x} at {(y, z)}")
    s_out: dict[tuple[str, str], set[str]] = {}
    for (x, y, z) in S:
        if y not in succ[x] or z not in succ[x]:
            out.append(f"S triple outside R: {(x, y, z)}")
        s_out.setdefault((x, y), set()).add(z)
    for (x, y), zs in s_out.items():
        for z in zs:
            if not s_out.get((x, z), set()) <= zs:
                out.append(f"S_{x} not transitive at {(y, z)}")
            if logic == ILM and not succ[z] <= succ[y]:
                out.append(f"ILM condition fails at {(x, y, z)}")
    return out


class Forcing:
    """Forcing on a finite Veltman model, written independently of
    ilkit.semantics."""

    def __init__(self, worlds, R, S, val):
        self.val = val
        self.succ = {w: [y for (x, y) in R if x == w] for w in worlds}
        self.exits: dict[tuple[str, str], list[str]] = {}
        for (x, y, z) in S:
            self.exits.setdefault((x, y), []).append(z)
        self.memo: dict = {}

    def __call__(self, w: str, f) -> bool:
        key = (w, f)
        if key in self.memo:
            return self.memo[key]
        if isinstance(f, Bot):
            v = False
        elif isinstance(f, Atom):
            v = f.name in self.val[w]
        elif isinstance(f, Implies):
            v = not self(w, f.left) or self(w, f.right)
        elif isinstance(f, Box):
            v = all(self(u, f.body) for u in self.succ[w])
        elif isinstance(f, Rhd):
            v = all(
                any(self(z, f.right) for z in self.exits.get((w, u), ()))
                for u in self.succ[w]
                if self(u, f.left)
            )
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.memo[key] = v
        return v
