"""Command-line front end.

Exit codes: 0 positive answer, 1 negative answer, 2 unknown / budget
exhausted, 3 usage, parse or internal errors. All output is deterministic
for fixed inputs and budgets.
"""

from __future__ import annotations

import argparse
import json
import sys

from .construction import close_frame
from .decide import Budget, Derivable, Refuted, Unknown, check_proof, derivable, parse_proof, satisfiable, Sat, Unsat
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

_POSITIVE, _NEGATIVE, _UNKNOWN, _USAGE = 0, 1, 2, 3


def _positive_int(text: str) -> int:
    n = int(text)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _budget(args) -> Budget:
    return Budget(args.max_worlds, args.max_steps, args.max_backtracks)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _write_cert(args, logic: str, query, holds: str, world: str, model) -> None:
    """The certificate file of --cert: model forces holds at world."""
    if getattr(args, "cert", None):
        cert = {
            "logic": logic,
            "query": render(query),
            "holds": holds,
            "world": world,
            "model": model_to_dict(model),
        }
        with open(args.cert, "w") as fh:
            json.dump(cert, fh, indent=2, sort_keys=True)
            fh.write("\n")


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
    payload = _verdict_payload(args.logic, f, v)
    _emit(args, payload, f"{v.kind}")
    if isinstance(v, Refuted):
        _write_cert(args, args.logic, f, render(Neg(f)), v.world, v.model)
        return _NEGATIVE
    if isinstance(v, Derivable):
        return _POSITIVE
    return _UNKNOWN


def cmd_sat(args) -> int:
    f = parse(args.formula)
    res = satisfiable(args.logic, f, _budget(args))
    if isinstance(res, Sat):
        payload = {
            "logic": args.logic,
            "query": render(f),
            "answer": "satisfiable",
            "world": res.world,
            "model": model_to_dict(res.model),
        }
        _emit(args, payload, f"satisfiable at {res.world}")
        _write_cert(args, args.logic, f, render(f), res.world, res.model)
        return _POSITIVE
    if isinstance(res, Unsat):
        _emit(args, {"logic": args.logic, "query": render(f), "answer": "unsatisfiable"}, "unsatisfiable")
        return _NEGATIVE
    payload = {"logic": args.logic, "query": render(f), "answer": "unknown", "budget": dict(res.report)}
    _emit(args, payload, "unknown (budget)")
    return _UNKNOWN


def cmd_countermodel(args) -> int:
    f = parse(args.formula)
    v = derivable(args.logic, f, _budget(args))
    if isinstance(v, Refuted):
        payload = {
            "logic": args.logic,
            "query": render(f),
            "world": v.world,
            "model": model_to_dict(v.model),
        }
        _emit(args, payload, f"countermodel at {v.world}:\n{json.dumps(model_to_dict(v.model), indent=2, sort_keys=True)}")
        _write_cert(args, args.logic, f, render(Neg(f)), v.world, v.model)
        return _POSITIVE
    derived = isinstance(v, Derivable)
    _emit(args, _verdict_payload(args.logic, f, v), "derivable: no countermodel" if derived else "unknown (budget)")
    return _NEGATIVE if derived else _UNKNOWN


def _load_model(path: str):
    with open(path) as fh:
        data = json.load(fh)
    if "model" in data:
        return model_from_dict(data["model"]), data
    return model_from_dict(data), data


def cmd_modelcheck(args) -> int:
    model, data = _load_model(args.model)
    rep = validate(model.frame, args.logic)
    formula_text = args.formula or data.get("holds")
    world = args.world or data.get("world")
    if formula_text is None or world is None:
        print("modelcheck: need a formula and a world (flags or cert fields)", file=sys.stderr)
        return _USAGE
    f = parse(formula_text)
    holds = forces(model, world, f) if rep.ok else False
    payload = {
        "frame_valid": rep.ok,
        "violations": [str(v) for v in rep.violations],
        "world": world,
        "formula": render(f),
        "forces": holds,
    }
    _emit(args, payload, f"frame {'ok' if rep.ok else 'INVALID: ' + str(rep)}; {world} forces {render(f)}: {holds}")
    return _POSITIVE if (rep.ok and holds) else _NEGATIVE


def cmd_close(args) -> int:
    model, _ = _load_model(args.frame)
    closed = close_frame(model.frame, args.logic)
    print(json.dumps(model_to_dict(VeltmanModel(closed, model.val)), indent=2, sort_keys=True))
    return _POSITIVE


def cmd_checkproof(args) -> int:
    with open(args.proof) as fh:
        proof = parse_proof(fh.read())
    ok = check_proof(proof, args.logic)
    _emit(args, {"logic": args.logic, "lines": len(proof.lines), "ok": ok}, "ok" if ok else "invalid")
    return _POSITIVE if ok else _NEGATIVE


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
        _emit(args, rep.to_dict(), f"{rep.answer}" + (f" (witness {render(rep.witness)})" if rep.witness is not None else ""))
        if rep.countermodel is not None:
            query = rep.reduction_query
            _write_cert(args, ILM, query, f"~({render(query)})", rep.countermodel[1], rep.countermodel[0])
        return {"yes": _POSITIVE, "no": _NEGATIVE}.get(rep.answer, _UNKNOWN)
    if kind == "delta1":
        rep = cls.classify_delta1(f, budget)
        _emit(args, rep.to_dict(), rep.answer)
        return {"top": _POSITIVE, "bottom": _POSITIVE, "no": _NEGATIVE}.get(rep.answer, _UNKNOWN)
    if kind == "selfprover":
        v = cls.is_self_prover(f, budget)
        _emit(args, _verdict_payload(ILM, f, v), v.kind)
        if isinstance(v, Refuted):
            query = Implies(f, Box(f))
            _write_cert(args, ILM, query, render(Neg(query)), v.world, v.model)
        return {"derivable": _POSITIVE, "refuted": _NEGATIVE}.get(v.kind, _UNKNOWN)
    if kind == "almostloeb":
        rep = cls.almost_loeb(f, budget)
        _emit(args, rep.to_dict(), str(rep.witness))
        if rep.witness == "unknown":
            return _UNKNOWN
        return _POSITIVE if rep.witness else _NEGATIVE
    rep = cls.dagger_check(f, budget)  # "dagger", the one kind left
    _emit(args, rep.to_dict(), f"dagger_holds={rep.dagger_holds} biconditional_ok={rep.biconditional_ok}")
    if rep.biconditional_ok is None:
        return _UNKNOWN
    return _POSITIVE if rep.biconditional_ok else _NEGATIVE


def cmd_rules(args) -> int:
    from . import classify as cls

    fs = [parse(t) for t in args.formulas]
    instance = (fs[:-2], *fs[-2:]) if args.rule == "v" else tuple(fs)
    rep = cls.check_rule(args.rule, instance, _budget(args))
    _emit(args, rep.to_dict(), f"agree={rep.agree}")
    if rep.agree is None:
        return _UNKNOWN
    return _POSITIVE if rep.agree else _NEGATIVE


def cmd_export_dot(args) -> int:
    model, _ = _load_model(args.model)
    sys.stdout.write(model_to_dot(model))
    return _POSITIVE


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

    sp = sub.add_parser("prove", help="decide derivability")
    sp.add_argument("formula")
    sp.add_argument("--cert", help="write the countermodel certificate here")
    common(sp)
    sp.set_defaults(fn=cmd_prove)

    sp = sub.add_parser("sat", help="decide satisfiability")
    sp.add_argument("formula")
    sp.add_argument("--cert")
    common(sp)
    sp.set_defaults(fn=cmd_sat)

    sp = sub.add_parser("countermodel", help="countermodel of a non-theorem")
    sp.add_argument("formula")
    sp.add_argument("--cert")
    common(sp)
    sp.set_defaults(fn=cmd_countermodel)

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
