"""The FMSA exploration framework (Figure 7 of the paper).

:class:`FunctionMergingPass` is the user-facing pass, a thin facade over
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

from typing import Callable, Optional

from ..ir.function import Function
from ..ir.module import Module
from ..passes.pass_manager import Pass
from ..targets.cost_model import TargetCostModel
from .codegen import MergeOptions
from .engine import MergeEngine
from .engine.report import STAGES, MergeRecord, MergeReport

__all__ = ["FunctionMergingPass", "MergeRecord", "MergeReport", "STAGES",
           "make_hotness_filter"]


class FunctionMergingPass(Pass):
    """Function Merging by Sequence Alignment, with ranked exploration."""

    name = "func-merging"

    def __init__(self, *args, **kwargs):
        """Create the pass; the arguments are exactly those of
        :class:`MergeEngine`, which documents them."""
        self.engine = MergeEngine(*args, **kwargs)

    # -- facade properties (historical public attributes) -----------------------
    @property
    def target(self) -> TargetCostModel:
        return self.engine.target

    @property
    def exploration_threshold(self) -> int:
        return self.engine.exploration_threshold

    @property
    def oracle(self) -> bool:
        return self.engine.oracle

    @property
    def options(self) -> MergeOptions:
        return self.engine.options

    @property
    def allow_deletion(self) -> bool:
        return self.engine.allow_deletion

    @property
    def hot_function_filter(self) -> Optional[Callable[[Function], bool]]:
        return self.engine.hot_function_filter

    @property
    def minimum_function_size(self) -> int:
        return self.engine.minimum_function_size

    # -- main driver --------------------------------------------------------------
    def run(self, module: Module) -> MergeReport:
        return self.engine.run(module)


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
