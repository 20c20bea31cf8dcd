"""The FMSA exploration framework (Figure 7 of the paper).

:class:`FunctionMergingPass` is the user-facing name of
:class:`repro.core.engine.MergeEngine`, which runs the optimization as an
explicit stage pipeline (fingerprint → candidate search → linearize →
align → codegen → profitability → commit) of individually optimized
stages.  Its merge decisions are those of the paper's plain loop,
:class:`repro.core.reference.ReferenceMergingPass`.

Per-stage wall-clock timings are recorded in the paper's Figure-13 buckets
(fingerprinting, ranking, linearization, alignment, code generation, call
updating).  ``MergeReport``, ``MergeRecord`` and ``STAGES`` live in
:mod:`repro.core.engine.report` and are re-exported here.
"""

from __future__ import annotations

from typing import Callable

from ..ir.function import Function
from .engine import MergeEngine
from .engine.report import STAGES, MergeRecord, MergeReport

__all__ = ["FunctionMergingPass", "MergeRecord", "MergeReport", "STAGES",
           "make_hotness_filter"]

#: Function Merging by Sequence Alignment, with ranked exploration.
FunctionMergingPass = MergeEngine


def make_hotness_filter(threshold: float = 0.01) -> Callable[[Function], bool]:
    """Build a hot-function predicate from attached execution profiles.

    A function is *hot* when its profile reports a relative execution weight
    above ``threshold`` (share of the program's dynamically executed
    instructions).  Functions without a profile are never hot.
    """

    def is_hot(function: Function) -> bool:
        profile = getattr(function, "profile", None)
        if profile is None:
            return False
        weight = getattr(profile, "relative_weight", None)
        if weight is None:
            return False
        return weight > threshold

    return is_hot
