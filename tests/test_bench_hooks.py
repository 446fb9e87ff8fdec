"""The hooks the traced benchmark reads in ilkit: the wrapped functions and
the labeled-frame fields of its repeat counter. A rename or deletion
breaks the traced runs, so tier 1 checks them too."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ilkit.construction import seed_frame
from ilkit.semantics import ILM
from ilkit.syntax import adequate_closure, parse
from ilkit.theory import solve_theories


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACER = _tracer()


@pytest.mark.parametrize("layer", sorted(TRACER.WRAPPED))
def test_every_wrapped_name_resolves(layer):
    mod = importlib.import_module(f"ilkit.{layer}")
    for name in TRACER.WRAPPED[layer]:
        assert callable(getattr(mod, name, None)), f"ilkit.{layer}.{name}"


def test_frame_key_reads_a_labeled_frame():
    f = parse("~[]p & ~(p |> q)")
    D = adequate_closure([f])
    F = seed_frame(D, ILM, next(iter(solve_theories(D, ILM, [(f, True)]))))
    key = TRACER._frame_key(F, F.worklist[0])
    assert hash(key) == hash(TRACER._frame_key(F.copy(), F.worklist[0]))
