"""Workbench for the interpretability logics GL, IL and ILM: finite
Veltman semantics, decision procedures with certified countermodels, and
sentence classification."""

from .syntax import (
    AdequateSet,
    And,
    Atom,
    BOT,
    Bot,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Neg,
    Or,
    ParseError,
    Rhd,
    Top,
    adequate_closure,
    fresh_atoms,
    parse,
    render,
    subformulas,
)
from .semantics import (
    GL,
    IL,
    ILM,
    VeltmanFrame,
    VeltmanModel,
    forces,
    frame_validates,
    model_from_json,
    model_to_dot,
    model_to_json,
    validate,
)
from .theory import (
    DTheory,
    box_incl,
    common_predecessor,
    crit_succ,
    enumerate_theories,
    succ,
)
from .construction import (
    LabeledFrame,
    close,
    close_frame,
    critical_cone,
    depth,
    generalized_cone,
    verify_truth_lemma,
)
from .decide import (
    Budget,
    CertificationError,
    Derivable,
    Proof,
    ProofLine,
    Refuted,
    Unknown,
    axiom_instance,
    check_proof,
    countermodel,
    derivable,
    parse_proof,
    render_proof,
    satisfiable,
)

# classify is loaded on first use of one of its names (PEP 562), so that a
# command that classifies nothing does not pay for importing it.
_CLASSIFY = frozenset((
    "almost_loeb", "canonical_modal_dnf", "check_rule", "check_tsg_decomposition",
    "classify_delta1", "classify_sigma1", "dagger_check", "is_self_prover", "is_tsg",
    "sigma1_countermodel",
))


def __getattr__(name):
    if name in _CLASSIFY:
        from . import classify

        return getattr(classify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
