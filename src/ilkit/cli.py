"""Command-line front end.

Exit codes: 0 positive answer, 1 negative answer, 2 unknown / budget
exhausted, 3 usage, parse, input or internal errors. All output is
deterministic for fixed inputs and budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from .construction import close_frame
from .decide import Budget, Refuted, Unknown, check_proof, derivable, parse_proof, satisfiable, Sat, Unsat
from .semantics import (
    ILM,
    LOGICS,
    VeltmanModel,
    forces,
    model_from_dict,
    model_to_dict,
    model_to_dot,
    validate,
)
from .syntax import Box, Implies, Neg, ParseError, parse, render

_USAGE = 3


def _positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _budget(args) -> Budget:
    return Budget(args.max_worlds, args.max_steps, args.max_backtracks)


def _answer(args, payload: dict, text: str, holds: bool | None, cert=None) -> int:
    """How every command answers: write the --cert file, if one is asked
    for and the answer has one, then print the payload (under --json) or
    the text, then return 0, 1 or 2 for holds True, False or None. The
    certificate comes first, so a file that cannot be written leaves no
    answer printed. cert is (logic, query, forced, world, model): the
    model forces the formula forced at world."""
    if cert is not None and args.cert:
        logic, query, forced, world, model = cert
        data = {"logic": logic, "query": render(query), "holds": render(forced), "world": world}
        with open(args.cert, "w") as fh:
            json.dump({**data, "model": model_to_dict(model)}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
    return {True: 0, False: 1, None: 2}[holds]


def _refutation(logic: str, query, v):
    """The certificate of a Refuted verdict on query, None for any other."""
    return (logic, query, Neg(query), v.world, v.model) if isinstance(v, Refuted) else None


def _verdict_payload(logic: str, f, v) -> dict:
    out = {"logic": logic, "query": render(f), "verdict": v.kind}
    if isinstance(v, Refuted):
        out["countermodel"] = model_to_dict(v.model)
        out["world"] = v.world
    if isinstance(v, Unknown):
        out["budget"] = {k: n for k, n in v.report}
    return out


def cmd_prove(args) -> int:
    f = parse(args.formula)
    v = derivable(args.logic, f, _budget(args))
    return _answer(args, _verdict_payload(args.logic, f, v), v.kind, v.holds, _refutation(args.logic, f, v))


def cmd_sat(args) -> int:
    f = parse(args.formula)
    res = satisfiable(args.logic, f, _budget(args))
    payload = {"logic": args.logic, "query": render(f)}
    if isinstance(res, Sat):
        payload.update(answer="satisfiable", world=res.world, model=model_to_dict(res.model))
        return _answer(args, payload, f"satisfiable at {res.world}", True, (args.logic, f, f, res.world, res.model))
    if isinstance(res, Unsat):
        return _answer(args, {**payload, "answer": "unsatisfiable"}, "unsatisfiable", False)
    return _answer(args, {**payload, "answer": "unknown", "budget": dict(res.report)}, "unknown (budget)", None)


def cmd_countermodel(args) -> int:
    f = parse(args.formula)
    v = derivable(args.logic, f, _budget(args))
    if isinstance(v, Refuted):
        model = model_to_dict(v.model)
        payload = {"logic": args.logic, "query": render(f), "world": v.world, "model": model}
        text = f"countermodel at {v.world}:\n{json.dumps(model, indent=2, sort_keys=True)}"
        return _answer(args, payload, text, True, _refutation(args.logic, f, v))
    payload = _verdict_payload(args.logic, f, v)
    if v.holds:
        return _answer(args, payload, "derivable: no countermodel", False)
    return _answer(args, payload, "unknown (budget)", None)


def _load_model(path: str):
    """The model of a model file or of a certificate's model field, and the
    file's data."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "model" in data:
        return model_from_dict(data["model"]), data
    return model_from_dict(data), data


def cmd_modelcheck(args) -> int:
    model, data = _load_model(args.model)
    formula_text = args.formula or data.get("holds")
    world = args.world or data.get("world")
    if formula_text is None or world is None:
        print("modelcheck: need a formula and a world (flags or cert fields)", file=sys.stderr)
        return _USAGE
    if not isinstance(formula_text, str) or not isinstance(world, str):
        raise ValueError("model certificate fields holds and world must be strings")
    if world not in model.worlds:
        raise ValueError(f"model has no world {world!r}")
    rep = validate(model.frame, args.logic)
    f = parse(formula_text)
    holds = rep.ok and forces(model, world, f)
    payload = {
        "frame_valid": rep.ok,
        "violations": [str(v) for v in rep.violations],
        "world": world,
        "formula": render(f),
        "forces": holds,
    }
    text = f"frame {'ok' if rep.ok else 'INVALID: ' + str(rep)}; {world} forces {render(f)}: {holds}"
    return _answer(args, payload, text, holds)


def cmd_close(args) -> int:
    model, _ = _load_model(args.frame)
    closed = close_frame(model.frame, args.logic)
    print(json.dumps(model_to_dict(VeltmanModel(closed, model.val)), indent=2, sort_keys=True))
    return 0


def cmd_checkproof(args) -> int:
    with open(args.proof) as fh:
        proof = parse_proof(fh.read())
    ok = check_proof(proof, args.logic)
    return _answer(args, {"logic": args.logic, "lines": len(proof.lines), "ok": ok}, "ok" if ok else "invalid", ok)


def cmd_classify(args) -> int:
    from . import classify as cls

    f = parse(args.formula)
    budget = _budget(args)
    kind = args.kind
    if args.cert and kind in ("delta1", "almostloeb", "dagger"):
        # each of these answers rests on several refutations, not one model
        print(f"classify: {kind} writes no --cert certificate", file=sys.stderr)
        return _USAGE
    if kind in ("sigma1", "tsg"):
        rep = (cls.classify_sigma1 if kind == "sigma1" else cls.is_tsg)(f, budget)
        text = rep.answer + (f" (witness {render(rep.witness)})" if rep.witness is not None else "")
        # the answer is the verdict on the reduction query, and a no its refutation
        return _answer(args, rep.to_dict(), text, rep.verdict.holds, _refutation(ILM, rep.reduction_query, rep.verdict))
    if kind == "selfprover":
        v = cls.is_self_prover(f, budget)
        return _answer(args, _verdict_payload(ILM, f, v), v.kind, v.holds, _refutation(ILM, Implies(f, Box(f)), v))
    if kind == "delta1":
        rep = cls.classify_delta1(f, budget)
        return _answer(args, rep.to_dict(), rep.answer, {"top": True, "bottom": True, "no": False}.get(rep.answer))
    if kind == "almostloeb":
        rep = cls.almost_loeb(f, budget)
        holds = None if rep.witness == "unknown" else rep.witness is not None
        return _answer(args, rep.to_dict(), str(rep.witness), holds)
    rep = cls.dagger_check(f, budget)  # "dagger", the one kind left
    text = f"dagger_holds={rep.dagger_holds} biconditional_ok={rep.biconditional_ok}"
    return _answer(args, rep.to_dict(), text, rep.biconditional_ok)


def cmd_rules(args) -> int:
    from . import classify as cls

    fs = [parse(t) for t in args.formulas]
    instance = (fs[:-2], *fs[-2:]) if args.rule == "v" else tuple(fs)
    rep = cls.check_rule(args.rule, instance, _budget(args))
    return _answer(args, rep.to_dict(), f"agree={rep.agree}", rep.agree)


def cmd_export_dot(args) -> int:
    model, _ = _load_model(args.model)
    sys.stdout.write(model_to_dot(model))
    return 0


class _RuleNames:
    """The names in classify.RULES, as argparse choices that import classify
    only when the rules command is parsed or its help is shown."""

    def __contains__(self, name) -> bool:
        from .classify import RULES

        return name in RULES

    def __iter__(self):
        from .classify import RULES

        return iter(RULES)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ilkit",
        description="decision procedures and sentence classification for GL, IL and ILM",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp, logic=True, search=True):
        if logic:
            sp.add_argument("--logic", choices=LOGICS, default=ILM)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if search:  # the budget flags, for the commands that run the search
            sp.add_argument("--max-worlds", type=_positive_int, default=Budget().max_worlds)
            sp.add_argument("--max-steps", type=_positive_int, default=Budget().max_steps)
            sp.add_argument("--max-backtracks", type=_positive_int, default=Budget().max_backtracks)

    for name, fn, text in (
        ("prove", cmd_prove, "decide derivability"),
        ("sat", cmd_sat, "decide satisfiability"),
        ("countermodel", cmd_countermodel, "countermodel of a non-theorem"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("formula")
        sp.add_argument("--cert", help="write the certificate of the model found here")
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("modelcheck", help="validate a model file and evaluate a formula")
    sp.add_argument("model")
    sp.add_argument("formula", nargs="?")
    sp.add_argument("--world")
    common(sp, search=False)
    sp.set_defaults(fn=cmd_modelcheck)

    sp = sub.add_parser("close", help="close a frame file under the frame conditions")
    sp.add_argument("frame")
    common(sp, search=False)
    sp.set_defaults(fn=cmd_close)

    sp = sub.add_parser("checkproof", help="check a Hilbert proof file")
    sp.add_argument("proof")
    common(sp, search=False)
    sp.set_defaults(fn=cmd_checkproof)

    sp = sub.add_parser("classify", help="sentence classification")
    sp.add_argument("kind", choices=["sigma1", "delta1", "tsg", "selfprover", "almostloeb", "dagger"])
    sp.add_argument("formula")
    sp.add_argument("--cert")
    common(sp, logic=False)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("rules", help="check an admissible-rule instance")
    # a metavar keeps argparse from listing the choices while it builds
    sp.add_argument("rule", choices=_RuleNames(), metavar="rule", help="one of %(choices)s")
    sp.add_argument("formulas", nargs="+")
    common(sp, logic=False)
    sp.set_defaults(fn=cmd_rules)

    sp = sub.add_parser("export-dot", help="DOT rendering of a model file")
    sp.add_argument("model")
    sp.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    sp.set_defaults(fn=cmd_export_dot)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return _USAGE if e.code not in (0,) else 0
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return _USAGE
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _USAGE
    except Exception as e:  # a failure inside ilkit is no answer: never exit 0 or 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return _USAGE


if __name__ == "__main__":
    sys.exit(main())
