"""Record the verdicts of a seeded GL/IL/ILM query corpus, for the
differential test in test_decide.py.

    PYTHONPATH=src python tests/differential.py > tests/differential.json

Each query is decided under the default budget and under CUT_BUDGET, a
small one that cuts many searches. A row holds the logic, the query, the
budget's three limits, the verdict and, for a refutation, the SHA-256 of
its certificate (`certificate_hash`). The committed file was recorded
with the engine as it was before the search learned nogoods, so the test
checks the current engine against that one.
"""

import hashlib
import json
import random
import sys

from conftest import random_formula
from ilkit.decide import DEFAULT_BUDGET, Budget, Refuted, derivable
from ilkit.semantics import GL, IL, ILM, model_to_dict
from ilkit.syntax import And, Box, Diamond, Implies, Neg, Or, Rhd, parse, render

CUT_BUDGET = Budget(max_worlds=4, max_steps=10, max_backtracks=6)
SEED = 11
PER_LOGIC = 100


def queries() -> list[tuple[str, str]]:
    """(logic, query text) pairs. GL queries are random, ask for three
    successors or mix boxes and diamonds. IL and ILM queries are random,
    shaped like the axioms J1, J2, J4 and M, or nest one rhd in another."""
    rng = random.Random(SEED)
    out = []
    for logic in (GL, IL, ILM):
        for _ in range(PER_LOGIC):
            if logic == GL:
                a, b, c = (random_formula(rng, 2, allow_rhd=False) for _ in range(3))
                k = rng.randrange(3)
                if k == 0:
                    f = Neg(And(Diamond(a), And(Diamond(b), Diamond(c))))
                elif k == 1:
                    f = Implies(And(Box(a), Box(b)), Or(Box(c), Diamond(rng.choice([a, b, c]))))
                else:
                    f = random_formula(rng, 3, allow_rhd=False)
                out.append((logic, render(f)))
                continue
            a, b, c = (random_formula(rng, 2) for _ in range(3))
            pick = lambda: rng.choice([a, b, c])
            k = rng.randrange(6)
            if k == 0:
                f = Implies(And(Rhd(a, b), Rhd(b, c)), Rhd(pick(), pick()))
            elif k == 1:
                f = Implies(Rhd(a, b), Rhd(And(pick(), Box(c)), And(pick(), Box(c))))
            elif k == 2:
                f = Implies(And(Rhd(a, c), Box(Implies(b, a))), Rhd(rng.choice([a, b, Or(a, b)]), c))
            elif k == 3:
                f = Implies(And(Rhd(a, b), Diamond(c)), Diamond(pick()))
            elif k == 4:
                f = Rhd(a, Rhd(b, c)) if rng.random() < 0.5 else Rhd(Rhd(a, b), c)
            else:
                f = random_formula(rng, 3)
            out.append((logic, render(f)))
    return out


def certificate_hash(v: Refuted) -> str:
    text = json.dumps({"model": model_to_dict(v.model), "world": v.world}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def record(logic: str, text: str, budget: Budget) -> dict:
    v = derivable(logic, parse(text), budget)
    return {
        "logic": logic,
        "query": text,
        "budget": [budget.max_worlds, budget.max_steps, budget.max_backtracks],
        "verdict": v.kind,
        "certificate": certificate_hash(v) if isinstance(v, Refuted) else None,
    }


def main() -> None:
    rows = [record(logic, text, b) for logic, text in queries() for b in (DEFAULT_BUDGET, CUT_BUDGET)]
    lines = ",\n".join(json.dumps(r) for r in rows)
    sys.stdout.write(f'{{"seed": {SEED}, "rows": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
