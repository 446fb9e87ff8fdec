"""One pass of one workload, in a fresh interpreter.

Run from the repository root with PYTHONPATH=src; `run.py` starts it.
Every op is timed on its own and then checked outside its timer. The last
stdout line is a JSON record of the pass; the golden comparison happens in
`run.py`.

    PYTHONPATH=src python3 perfbench/worker.py --workload rules --order-seed 1
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
from time import perf_counter

import corpora
import tracer
from checks import Forcing, cert_sha, closure_defects, recheck_certificate, verdict_row
from ilkit.classify import almost_loeb, check_rule, dagger_check
from ilkit.construction import close_frame, verify_truth_lemma
from ilkit.decide import Derivable, Refuted, derivable
from ilkit.semantics import ILM, VeltmanFrame, VeltmanModel, forces, model_from_dict, validate
from ilkit.syntax import (
    And,
    BOT,
    Box,
    Diamond,
    Iff,
    Implies,
    Neg,
    Or,
    Rhd,
    Top,
    adequate_closure,
    conj,
    parse,
    render,
)
from ilkit.theory import DTheory

HERE = os.path.dirname(os.path.abspath(__file__))


class Rows:
    """Golden rows and check failures of one op."""

    def __init__(self):
        self.rows: list = []
        self.problems: list[str] = []
        self.extra: dict = {}

    def verdict(self, label, logic, query, v):
        row, bad = verdict_row(label, logic, query, v)
        self.rows.append(row)
        if bad:
            self.problems.append(bad)

    def record(self) -> dict:
        return {
            "rows": self.rows,
            "extra": self.extra,
            "problems": self.problems,
            "unknown": any(r[3] == "unknown" for r in self.rows),
        }


# --- rules: one classify.check_rule instance per op -------------------------


def rule_queries(rule, inst):
    """(lhs, rhs, side) formulas of an admissible-rule instance, as the
    rules are stated, independently of classify.check_rule."""
    if rule == "i":
        (a,) = inst
        return [Box(a)], [a], []
    if rule == "ii":
        a, b = inst
        return [Or(Box(a), Box(b))], [Box(a), Box(b)], []
    if rule == "iii":
        a, b = inst
        return [Rhd(a, b)], [Implies(a, Or(b, Diamond(b)))], []
    if rule == "iv":
        a, b = inst
        return [Rhd(a, b)], [Implies(Diamond(a), Diamond(b))], []
    if rule == "v":
        ais, a, b = inst
        return (
            [Implies(conj([Diamond(ai) for ai in ais]), Rhd(a, b))],
            [Rhd(a, b)],
            [Neg(ai) for ai in ais],
        )
    (a,) = inst
    if rule == "vi":
        return [Or(a, Diamond(a))], [Implies(Box(BOT), a)], []
    return [Rhd(Top(), a)], [Implies(Box(BOT), a)], []


def rules_op(item):
    rule, inst = item
    return check_rule(rule, inst)


def rules_check(item, rep) -> dict:
    rule, inst = item
    out = Rows()
    lhs, rhs, side = rule_queries(rule, inst)
    for tag, fs, vs in (("lhs", lhs, rep.lhs), ("rhs", rhs, rep.rhs), ("side", side, rep.side)):
        if len(fs) != len(vs):
            out.problems.append(f"{tag}: {len(vs)} verdicts for {len(fs)} queries")
            continue
        for k, (f, v) in enumerate(zip(fs, vs)):
            out.verdict(f"{tag}{k}", ILM, f, v)
    out.extra["agree"] = rep.agree
    if rep.agree is False:
        out.problems.append("agree is False")
    return out.record()


# --- tsg: almost_loeb, the two derivable checks and dagger_check ---------------


def tsg_op(f):
    rep = almost_loeb(f)
    vb = derivable(ILM, Implies(Box(BOT), f))
    vn = derivable(ILM, Neg(f))
    dag = dagger_check(f)
    return rep, vb, vn, dag


def _holds(v):
    return {"derivable": True, "refuted": False}.get(v.kind)


def _sigma_rows(out: Rows, tag: str, rep):
    out.verdict(f"{tag}.reduction", ILM, rep.reduction_query, rep.verdict)
    if rep.countermodel is not None:
        model, world = rep.countermodel
        bad = recheck_certificate(ILM, rep.reduction_query, model, world)
        if bad:
            out.problems.append(f"{tag}: countermodel fails {bad}")
    out.extra[f"{tag}.answer"] = rep.answer
    out.extra[f"{tag}.witness"] = render(rep.witness) if rep.witness is not None else None


def tsg_check(f, result) -> dict:
    rep, vb, vn, dag = result
    out = Rows()
    out.verdict("loeb.boxbot", ILM, Implies(Box(BOT), f), rep.boxbot_verdict)
    out.verdict("loeb.bottom", ILM, Neg(f), rep.bottom_verdict)
    core = And(f, Box(Neg(f)))
    if rep.witness in ("bottom", "boxbot"):
        other = BOT if rep.witness == "bottom" else Box(BOT)
        out.verdict("loeb.cert", ILM, Iff(core, other), rep.certificate)
    out.verdict("boxbot", ILM, Implies(Box(BOT), f), vb)
    out.verdict("bottom", ILM, Neg(f), vn)
    out.extra["loeb.witness"] = rep.witness
    # criterion 7's three-way check
    w = rep.witness
    if w is None:
        ok = isinstance(vb, Refuted) and isinstance(vn, Refuted)
    elif w == "bottom":
        ok = isinstance(vn, Derivable) and isinstance(rep.certificate, Derivable)
    elif w == "boxbot":
        ok = isinstance(vb, Derivable) and isinstance(rep.certificate, Derivable)
    else:
        ok = w == "unknown"
    if not ok:
        out.problems.append(f"three-way check broken (witness {w})")
    if w == "unknown":
        out.rows.append(["loeb.witness", ILM, render(f), "unknown", None])
    for tag, s in (("f_and_box_f", dag.sigma_selfprover), ("f_and_box_not_f", dag.sigma_antiprover), ("f", dag.sigma_f)):
        _sigma_rows(out, f"sigma.{tag}", s)
    out.verdict("escape", ILM, Implies(f, Diamond(Top())), dag.escape_verdict)
    # recompute the dagger biconditional from the reported parts
    a1, a2, a3 = ({"yes": True, "no": False}.get(s.answer) for s in (dag.sigma_selfprover, dag.sigma_antiprover, dag.sigma_f))
    e = _holds(dag.escape_verdict)
    if None not in (a1, a2, a3, e):
        dagger = not (a1 and a2) or a3
        rhs = (not a1 or a3) or e
        if dag.dagger_holds != dagger or dag.biconditional_ok != (dagger == rhs):
            out.problems.append("dagger report disagrees with its parts")
    out.extra["dagger_holds"] = dag.dagger_holds
    out.extra["biconditional_ok"] = dag.biconditional_ok
    if dag.biconditional_ok is False:
        out.problems.append("biconditional_ok is False")
    if dag.biconditional_ok is None:
        out.rows.append(["dagger", ILM, render(f), "unknown", None])
    return out.record()


# --- large: one `ilkit prove --json` child process per op ----------------------

_EXIT = {"derivable": 0, "refuted": 1, "unknown": 2}


def large_op(item, trace=None):
    """trace: None, or (output path prefix, keep spans) for clitrace.py."""
    logic, query, _ = item
    if trace is None:
        cmd = [sys.executable, "-m", "ilkit.cli"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), trace[0], "1" if trace[1] else "0"]
    cmd += ["prove", "--logic", logic, "--json", query]
    spawned = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=corpora.LARGE_DEADLINE_S)
        killed = False
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        killed = True
    return {"code": proc.returncode, "stdout": stdout, "stderr": stderr, "killed": killed, "spawned": spawned}


def large_check(item, res) -> dict:
    logic, query, _ = item
    f = parse(query)
    out = Rows()
    if res["killed"]:
        out.rows.append(["query", logic, render(f), "unknown", None])
        out.problems.append(f"deadline: killed after {corpora.LARGE_DEADLINE_S:g} s")
        return out.record()
    try:
        payload = json.loads(res["stdout"])
    except json.JSONDecodeError:
        out.problems.append(f"exit {res['code']}, no JSON: {res['stderr'][-300:]!r}")
        return out.record()
    kind = payload.get("verdict")
    if payload.get("query") != render(f) or payload.get("logic") != logic:
        out.problems.append("CLI echoes another query")
    if _EXIT.get(kind) != res["code"]:
        out.problems.append(f"verdict {kind} with exit code {res['code']}")
    sha = None
    if kind == "refuted":
        sha = cert_sha(payload["countermodel"], payload["world"])
        model = model_from_dict(payload["countermodel"])
        bad = recheck_certificate(logic, f, model, payload["world"])
        if bad:
            out.problems.append(f"certificate fails {bad}")
    out.rows.append(["query", logic, render(f), kind, sha])
    return out.record()


# --- frames: close, validate, force, truth lemma -------------------------------


def frames_op(item):
    logic, (worlds, R, S, val), formulas = item
    closed = close_frame(VeltmanFrame.make(worlds, R, S), logic)
    valid = validate(closed, logic).ok
    model = VeltmanModel(closed, {w: frozenset(val[w]) for w in worlds})
    table = [[forces(model, w, g) for w in worlds] for g in formulas]
    D = adequate_closure(formulas)
    nu = {w: DTheory(D, {a: forces(model, w, a) for a in D.modal_atoms}) for w in worlds}
    lemma = verify_truth_lemma(model, nu, D)
    return closed, valid, table, lemma


def frames_check(item, result) -> dict:
    logic, (worlds, R, S, val), formulas = item
    closed, valid, table, lemma = result
    out = Rows()
    if not valid:
        out.problems.append("closed frame fails validate")
    if not lemma:
        out.problems.append("truth lemma fails with labels from forcing")
    if set(closed.worlds) != set(worlds):
        out.problems.append("closure changed the worlds")
    if not (set(R) <= closed.R and set(S) <= closed.S):
        out.problems.append("closure dropped an input edge")
    defects = closure_defects(worlds, closed.R, closed.S, logic)
    if defects:
        out.problems.append(f"closed frame keeps imperfections: {defects[:3]}")
    ref = Forcing(worlds, closed.R, closed.S, val)
    bits = ["".join("1" if b else "0" for b in line) for line in table]
    want = ["".join("1" if ref(w, g) else "0" for w in worlds) for g in formulas]
    if bits != want:
        out.problems.append("forcing table differs from the reference evaluator")
    out.extra["table"] = bits
    closed_text = json.dumps([sorted(closed.R), sorted(closed.S)])
    out.extra["closed"] = hashlib.sha256(closed_text.encode()).hexdigest()
    return out.record()


# --- host speed ----------------------------------------------------------------

# Seconds between host-speed samples during a pass.
SAMPLE_EVERY_S = 0.1
# Samples a set-up-only interpreter takes after it is ready.
SETUP_SAMPLES = 10
# Samples taken before each op when no timer runs.
BURST = 4
_KERNEL_SETS = [frozenset((i % 31, i % 17, (i * 7) % 13, i % 11, (i * 5) % 23)) for i in range(2048)]


def _kernel(sets=_KERNEL_SETS) -> int:
    """A fixed ~5 ms of pure-Python set, tuple and dict work, the kind of
    work ilkit does. It does not touch ilkit."""
    table: dict = {}
    acc = 0
    for _ in range(2):
        for i, s in enumerate(sets):
            t = sets[(i * 7) & 2047]
            u = s & t
            key = (len(u), i & 63)
            acc += table.get(key, 0)
            table[key] = acc & 0xFFFF
            if s <= (t | u):
                acc += 1
    return acc


class HostSpeed:
    """Durations of the fixed kernel, with the moments they were taken.
    run.py scales each op's time by the samples near it: the host's speed
    changes by up to 2x within seconds. With `timer`, a timer signal takes
    a sample every SAMPLE_EVERY_S while a pass runs, long ops included;
    without it, `between_ops` takes BURST samples before each op.
    `clock()` is perf_counter without the time the samples took, so no op
    or span counts them. The collector is off while the kernel runs, so a
    larger heap left by ilkit does not slow the kernel."""

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.samples: list[float] = []
        self.times: list[float] = []
        self.excluded = 0.0
        self._busy = False

    def clock(self) -> float:
        return perf_counter() - self.excluded

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        entered = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            _kernel()
            self.samples.append(perf_counter() - t0)
            self.times.append(t0)
        finally:
            if collecting:
                gc.enable()
            self.excluded += perf_counter() - entered
            self._busy = False

    def between_ops(self) -> None:
        if not self.timer:
            for _ in range(BURST):
                self.sample()

    def __enter__(self):
        self.sample()
        if self.timer:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.between_ops()


WORKLOADS = {
    "rules": (lambda seed, limit: corpora.rules_corpus(seed, limit or 30), rules_op, rules_check),
    "tsg": (lambda seed, limit: corpora.tsg_corpus(seed, limit or 50), tsg_op, tsg_check),
    "large": (lambda seed, limit: corpora.large_queries()[: limit or None], large_op, large_check),
    "frames": (lambda seed, limit: corpora.frames_corpus(seed, limit or corpora.FRAMES_PER_PASS), frames_op, frames_check),
}
# Workloads whose ops share no state get a seeded op order. Ops of rules
# and tsg share decide's query cache, so their order decides which op pays
# for a shared query: they run in corpus order, the acceptance suite's.
SHUFFLED = ("large", "frames")
DEFAULT_CORPUS_SEED = {"rules": corpora.RULES_SEED, "tsg": corpora.TSG_SEED, "large": 0, "frames": corpora.FRAMES_SEED}


def op_ids(workload: str, items) -> list[str]:
    """Stable op names, used as golden keys."""
    if workload == "rules":
        seen: dict[str, int] = {}
        out = []
        for rule, _ in items:
            seen[rule] = seen.get(rule, -1) + 1
            out.append(f"{rule}.{seen[rule]}")
        return out
    return [f"{workload}.{i}" for i in range(len(items))]


def _run_op(workload, item, op_id, index, tr, clock, trace_dir, cli) -> dict:
    """Time one op, then check it outside the timer."""
    _, op, check = WORKLOADS[workload]
    if tr is not None:
        tr.active = True
        frame = tr.open("op")
    start = perf_counter()
    t0 = clock()
    try:
        if workload == "large":
            cli_trace = None if tr is None else (os.path.join(trace_dir, f"cli-{index}"), tr.keep_spans)
            result = op(item, cli_trace)
        else:
            result = op(item)
        error = None
    except Exception as e:  # an op that raises is a failed op
        result, error = None, f"{type(e).__name__}: {e}"
    t1 = clock()
    if tr is not None:
        tr.close(frame)
        tr.active = False
    if error is None:
        try:
            rec = check(item, result)
        except Exception as e:
            rec = {"rows": [], "extra": {}, "problems": [f"check raised {type(e).__name__}: {e}"], "unknown": False}
    else:
        rec = {"rows": [], "extra": {}, "problems": [error], "unknown": False}
    if workload == "large" and tr is not None and error is None and not result["killed"]:
        cli.append(_cli_trace(trace_dir, index, result["spawned"]))
    rec["id"] = op_id
    rec["ms"] = (t1 - t0) * 1000.0
    rec["start"] = start
    # a deadline kill takes the deadline's wall time, whatever the host speed
    rec["cut"] = workload == "large" and error is None and result["killed"]
    return rec


def run_pass(workload, order_seed, corpus_seed, limit, trace, trace_dir):
    items = WORKLOADS[workload][0](corpus_seed, limit)
    ids = op_ids(workload, items)
    order = list(range(len(items)))
    if workload in SHUFFLED:
        random.Random(order_seed).shuffle(order)
    if workload == "large" and trace != "none":
        # the deadline ops are cut at a wall-clock time, so their work (and
        # every count under it) differs from run to run
        order = [i for i in order if not items[i][2]]
    # A `large` op runs in a child process on the worker's CPU. Samples
    # taken while it runs would slow it, so they are taken between ops, and
    # the op is timed on the wall clock.
    speed = HostSpeed(timer=workload != "large")
    clock = speed.clock if speed.timer else perf_counter
    tr = None
    if trace != "none":
        tr = tracer.Tracer(keep_spans=trace == "full", clock=clock)
        tracer.install(tr)
    records = []
    cli = []
    ready = perf_counter()
    with speed:
        for i in order:
            speed.between_ops()
            records.append(_run_op(workload, items[i], ids[i], i, tr, clock, trace_dir, cli))
    usage = resource.RUSAGE_CHILDREN if workload == "large" else resource.RUSAGE_SELF
    out = {
        "ready": ready,
        "ops": records,
        "speed": speed.samples,
        "speed_at": speed.times,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    if tr is not None:
        out["trace"] = _trace_summary(tr, cli)
        if trace == "full":
            spans = tr.write_spans(os.path.join(trace_dir, "spans.tsv.gz"), ready)
            out["spans"] = spans + sum(data["spans"] for data in cli)
    return out


def _cli_trace(trace_dir, index, spawned):
    with open(os.path.join(trace_dir, f"cli-{index}.json")) as fh:
        data = json.load(fh)
    data["startup_s"] = data.pop("entered") - spawned
    return data


def _trace_summary(tr, cli) -> dict:
    counts = tr.counts()
    times = tr.self_times()
    for data in cli:
        for k, v in data["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in data["self_s"].items():
            times[k] = times.get(k, 0.0) + v
        times["cli.startup_s"] = times.get("cli.startup_s", 0.0) + data["startup_s"]
        times["cli.main_s"] = times.get("cli.main_s", 0.0) + data["main_s"]
    return {"counts": dict(sorted(counts.items())), "times": times}


def pin_to_one_cpu(rank: int) -> None:
    """Run this worker, and the `large` CLI children that inherit it, on
    one CPU, the rank-th highest it may use: no migrations, and the
    host-speed samples and the ops they scale see the same CPU."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0), reverse=True)
        os.sched_setaffinity(0, {cpus[rank % len(cpus)]})


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--order-seed", type=int, default=0)
    ap.add_argument("--corpus-seed", type=int, default=None)
    ap.add_argument("--limit", type=int, default=0, help="first N inputs only (smoke runs)")
    ap.add_argument("--setup-only", action="store_true", help="import and build inputs, then stop")
    ap.add_argument("--trace", choices=("none", "counts", "full"), default="none")
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--cpu", type=int, default=0, help="run on the N-th highest CPU this process may use")
    args = ap.parse_args()
    pin_to_one_cpu(args.cpu)
    seed = DEFAULT_CORPUS_SEED[args.workload] if args.corpus_seed is None else args.corpus_seed
    if args.setup_only:
        WORKLOADS[args.workload][0](seed, args.limit)
        ready = perf_counter()
        speed = HostSpeed()
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        print(json.dumps({"ready": ready, "speed": speed.samples}))
        return 0
    out = run_pass(args.workload, args.order_seed, seed, args.limit, args.trace, args.trace_dir)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
