"""In-memory span tracing of ilkit's layers, installed from outside.

`install()` wraps a fixed list of public functions of each ilkit module
and rebinds every module-level name that refers to one of them, because
ilkit imports functions by name (`from .theory import solve_theories`).
No source file changes. Each call records a span (name, start, end,
parent); a function that returns a generator is timed per `next()`.
Self time is a span's duration minus the time its child spans cover, and
is summed per function and per layer (module) as spans close.

Leaf helpers called hundreds of thousands of times per run (formula
constructors, `eval_bool`, `succ`, `crit_obligations`, the theory-query
wrappers `extend_*`, ...) stay unwrapped: their time counts as self time
of the wrapped caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import types
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("syntax", "semantics", "theory", "construction", "decide", "classify", "cli")

WRAPPED = {
    "syntax": ("parse", "adequate_closure"),
    "semantics": ("validate", "forces"),
    "theory": ("solve_theories", "enumerate_theories", "common_predecessor"),
    "construction": (
        "seed_frame",
        "close",
        "close_frame",
        "quasi_frame_violations",
        "refresh_worklist",
        "fresh_candidate_theories",
        "eliminate",
        "verify_truth_lemma",
    ),
    "decide": ("satisfiable", "derivable", "complete_frame", "countermodel"),
    "classify": (
        "check_rule",
        "classify_delta1",
        "classify_sigma1",
        "sigma1_countermodel",
        "is_self_prover",
        "is_tsg",
        "canonical_modal_dnf",
        "check_tsg_decomposition",
        "almost_loeb",
        "dagger_check",
    ),
    "cli": ("main",),
}

# Counters kept per call site: (calling module, function) pairs whose count
# the benchmark reports under the calling module's name.
CALL_SITES = {("classify", "derivable"), ("decide", "eliminate"), ("decide", "seed_frame")}

_DONE = object()


class Tracer:
    """Span store and aggregates. `active` gates recording, so that the
    benchmark's own correctness checks between ops are not traced. `clock`
    reads the time, by default perf_counter."""

    def __init__(self, keep_spans: bool = True, clock=perf_counter):
        self.keep_spans = keep_spans
        self.clock = clock
        self.active = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span index, name, start, time covered by children]
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.yielded: Counter = Counter()
        self.empty: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.first_s = 0.0
        self.extra: Counter = Counter()
        self._seen_sets: set = set()
        self._asked: set = set()

    def name_id(self, name: str) -> int:
        got = self._name_id.get(name)
        if got is None:
            got = self._name_id[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name: str) -> list:
        if self.keep_spans:
            idx = len(self.span_start)
            parent = self.stack[-1][0] if self.stack else -1
            self.span_name.append(self.name_id(name))
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
        frame = [idx, name, 0.0, 0.0]
        self.stack.append(frame)
        frame[2] = self.clock()
        return frame

    def close(self, frame: list) -> float:
        end = self.clock()
        self.stack.pop()
        dur = end - frame[2]
        own = dur - frame[3]
        self.self_s[frame[1]] += own
        if self.stack:
            self.stack[-1][3] += dur
        if frame[0] >= 0:
            self.span_start[frame[0]] = frame[2]
            self.span_end[frame[0]] = end
        return own

    def counts(self) -> dict:
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, n in self.yielded.items():
            out[f"{name}.yielded"] = n
        for name, n in self.empty.items():
            out[f"{name}.empty"] = n
        for name, n in self.extra.items():
            out[name] = n
        return dict(sorted(out.items()))

    def self_times(self) -> dict:
        out = {f"{name}.self_s": t for name, t in self.self_s.items()}
        for layer in LAYERS + ("op",):
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_s.items() if name.split(".")[0] == layer
            )
        out["theory.solve_theories.first_s"] = self.first_s
        return out

    def write_spans(self, path: str, origin: float) -> int:
        """Write spans as gzip'd TSV: name, start, end (seconds since
        origin), parent index (-1 for roots)."""
        n = len(self.span_start)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            names, starts, ends, parents = self.names, self.span_start, self.span_end, self.span_parent
            for i in range(n):
                fh.write(
                    f"{names[self.span_name[i]]}\t{starts[i] - origin:.7f}\t"
                    f"{ends[i] - origin:.7f}\t{parents[i]}\n"
                )
        return n


def _frame_key(F, item):
    """Content of a labeled frame plus the requirement asked about."""
    return (
        tuple(F.worlds),
        frozenset(F.R),
        frozenset(F.S),
        tuple(F.nu[w].key() for w in F.worlds),
        frozenset(F.edge_label.items()),
        frozenset(F.obligations.items()),
        F.exempt_root,
        item,
    )


def _make_wrapper(tr: Tracer, fn, name: str, site: str | None, decide_mod):
    is_solve = name == "theory.solve_theories"
    is_sat = name == "decide.satisfiable"
    is_query = is_sat or name == "decide.complete_frame"
    is_fresh = name == "construction.fresh_candidate_theories"
    is_qfv = name == "construction.quasi_frame_violations"

    def timed_generator(gen, first_key):
        n = 0
        while True:
            if not tr.active:
                item = next(gen, _DONE)
                if item is _DONE:
                    return
                yield item
                continue
            frame = tr.open(name)
            try:
                item = next(gen, _DONE)
            finally:
                own = tr.close(frame)
            if first_key is not None:
                tr._seen_sets.add(first_key)
                tr.first_s += own
                first_key = None
            if item is _DONE:
                if n == 0:
                    tr.empty[name] += 1
                return
            n += 1
            tr.yielded[name] += 1
            if site is not None:
                tr.yielded[site] += 1
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        tr.calls[name] += 1
        if site is not None:
            tr.calls[site] += 1
        if is_query:
            tr._asked.clear()
        if is_sat:
            budget = args[2] if len(args) > 2 else kwargs.get("budget", decide_mod.DEFAULT_BUDGET)
            observer = args[3] if len(args) > 3 else kwargs.get("observer")
            cache = getattr(decide_mod, "_sat_cache", {})
            if observer is None and (args[0], args[1], budget) in cache:
                tr.extra[f"{name}.cache_hits"] += 1
        if is_fresh:
            key = _frame_key(args[0], args[1])
            if key in tr._asked:
                tr.extra[f"{name}.repeats"] += 1
            else:
                tr._asked.add(key)
        frame = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(frame)
        if is_qfv and result:
            tr.extra[f"{name}.rejects"] += 1
        if isinstance(result, types.GeneratorType):
            first_key = None
            if is_solve:
                D, logic = args[0], args[1]
                key = (id(D), hash(D), logic)
                if key not in tr._seen_sets:
                    first_key = key
            return timed_generator(result, first_key)
        return result

    return wrapper


def install(tr: Tracer) -> None:
    """Wrap the functions in WRAPPED and rebind every module-level name, in
    ilkit and in the benchmark's own modules, that refers to an original."""
    modules = {layer: importlib.import_module(f"ilkit.{layer}") for layer in LAYERS}
    originals = {}
    for layer, names in WRAPPED.items():
        for fname in names:
            originals[id(getattr(modules[layer], fname))] = (layer, fname)
    for mod in list(sys.modules.values()):
        names = getattr(mod, "__dict__", None)
        if names is None:
            continue
        bind_layer = getattr(mod, "__name__", "").split(".")[-1]
        for attr, value in list(names.items()):
            hit = originals.get(id(value))
            if hit is None:
                continue
            layer, fname = hit
            site = f"{bind_layer}.{fname}" if (bind_layer, fname) in CALL_SITES else None
            setattr(mod, attr, _make_wrapper(tr, value, f"{layer}.{fname}", site, modules["decide"]))
