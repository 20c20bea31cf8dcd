"""The FMSA exploration framework (Figure 7 of the paper).

:class:`FunctionMergingPass` is the user-facing pass.  Since the staged
engine refactor it is a thin facade over
:class:`repro.core.engine.MergeEngine`, which runs the same optimization as
an explicit stage pipeline (fingerprint → candidate search → linearize →
align → codegen → profitability → commit) with swappable, individually
optimized stages.  The pass keeps its historical constructor and report
shape; merge decisions are identical to the pre-engine implementation.

Per-stage wall-clock timings are recorded (fingerprinting, ranking,
linearization, alignment, code generation, call updating) so the evaluation
harness can reproduce the paper's compile-time breakdown (Figure 13).
``MergeReport``, ``MergeRecord`` and ``STAGES`` now live in
:mod:`repro.core.engine.report` and are re-exported here unchanged.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

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

    def __init__(self, target: Optional[TargetCostModel] = None,
                 exploration_threshold: int = 1,
                 oracle: bool = False,
                 options: Optional[MergeOptions] = None,
                 allow_deletion: bool = True,
                 hot_function_filter: Optional[Callable[[Function], bool]] = None,
                 minimum_function_size: int = 1,
                 searcher: Union[str, object] = "indexed",
                 keyed_alignment: bool = True,
                 alignment_kernel: Optional[str] = None,
                 alignment_cache: Union[bool, int, object] = True,
                 alignment_cache_path: Optional[str] = None,
                 alignment_cache_max_generations: Optional[int] = None,
                 alignment_cache_resident: bool = False,
                 jobs: Optional[int] = None,
                 executor: Union[str, object] = "auto",
                 batch_size: Optional[int] = None,
                 adaptive_batch: Optional[bool] = None,
                 incremental_callgraph: bool = True,
                 oracle_prune: bool = True,
                 incremental_fingerprints: bool = True,
                 verify_fingerprints: Optional[bool] = None,
                 sanitize: Optional[bool] = None,
                 sanitizer: Optional[object] = None,
                 fault_plan: Optional[object] = None,
                 retry_policy: Optional[object] = None):
        """Create the pass.

        Args:
            target: code-size cost model (defaults to x86-64).
            exploration_threshold: how many ranked candidates to evaluate per
                function before giving up (the paper's ``t``).
            oracle: evaluate *all* candidates and commit the best profitable
                one - the exhaustive strategy the paper uses as an upper
                bound (quadratic, very slow).
            options: code-generation options.
            allow_deletion: permit deleting originals whose call sites can
                all be redirected.
            hot_function_filter: optional predicate; functions for which it
                returns True are excluded from merging (profile-guided mode
                used in Section V-D to protect hot code).
            minimum_function_size: functions with fewer instructions are not
                considered (they cannot possibly yield a profit).
            searcher: candidate-search strategy (``"indexed"``, ``"linear"``
                or a searcher instance); all yield identical rankings.
            keyed_alignment: use the fast integer-key alignment kernels
                (identical alignments, fewer predicate evaluations).
            alignment_kernel: alignment algorithm override (any
                ``ALGORITHMS`` name, ``"nw-numpy"`` for the vectorized NumPy
                backend, ``"nw-native"`` for the C extension, or
                ``"auto"``); defaults
                to ``REPRO_ALIGN_KERNEL`` and then to
                ``options.alignment_algorithm``.  Bit-identical decisions
                for every kernel.
            alignment_cache: content-addressed memoisation of keyed
                alignments (default on; int = LRU capacity; an
                :class:`AlignmentCache` instance is adopted as-is - the
                long-lived-host seam).
            alignment_cache_resident: treat the cache as owned by a
                long-lived host (daemon): runs neither clear it nor
                load/save snapshots around it (see :class:`MergeEngine`).
            alignment_cache_path: snapshot file for cross-run persistence
                of the alignment cache (default: the ``REPRO_ALIGN_CACHE``
                environment variable).  Runs sharing a path warm-start from
                and save back to it; decisions are bit-identical either
                way (see :class:`MergeEngine`).
            alignment_cache_max_generations: compaction horizon for shared
                snapshots - entries unreferenced for this many consecutive
                load generations are aged out at save time (default: the
                ``REPRO_ALIGN_CACHE_MAX_GEN`` environment variable, then
                32; 0 disables).
            jobs / executor / batch_size / adaptive_batch: plan/commit
                scheduler knobs - how many worker processes, through which
                executor (``"process"`` offloads the alignment DPs to a
                worker pool as pure data; default:
                ``REPRO_ENGINE_EXECUTOR``, then auto), in what
                batches, and whether the batch size retunes itself from
                observed conflict rates (see
                :class:`repro.core.engine.MergeScheduler`).  Merge
                decisions are identical for every setting.
            incremental_callgraph: maintain the call graph incrementally
                across commits instead of rebuilding it (default True).
            oracle_prune: skip provably unprofitable candidates in oracle
                mode using the profit-bound index (default True).
            incremental_fingerprints / verify_fingerprints: compute merged
                functions' fingerprints from the alignment columns instead
                of rescanning bodies, optionally cross-checked against a
                rescan after every commit (see :class:`MergeEngine`).
            sanitize / sanitizer: run (or inject) the static-analysis
                sanitizer - verifier v2 plus the merge-correctness linter -
                at stage boundaries (default: the ``REPRO_SANITIZE``
                environment variable; see :class:`MergeEngine`).
            fault_plan / retry_policy: resilience knobs - deterministic
                fault injection and the offload retry/deadline/fallback
                policy (defaults: the ``REPRO_FAULTS`` / ``REPRO_RETRY_*``
                environment variables; see :class:`MergeEngine` and
                :mod:`repro.resilience`).
        """
        self.engine = MergeEngine(
            target=target, exploration_threshold=exploration_threshold,
            oracle=oracle, options=options, allow_deletion=allow_deletion,
            hot_function_filter=hot_function_filter,
            minimum_function_size=minimum_function_size,
            searcher=searcher, keyed_alignment=keyed_alignment,
            alignment_kernel=alignment_kernel, alignment_cache=alignment_cache,
            alignment_cache_path=alignment_cache_path,
            alignment_cache_max_generations=alignment_cache_max_generations,
            alignment_cache_resident=alignment_cache_resident,
            jobs=jobs, executor=executor, batch_size=batch_size,
            adaptive_batch=adaptive_batch,
            incremental_callgraph=incremental_callgraph,
            oracle_prune=oracle_prune,
            incremental_fingerprints=incremental_fingerprints,
            verify_fingerprints=verify_fingerprints,
            sanitize=sanitize, sanitizer=sanitizer,
            fault_plan=fault_plan, retry_policy=retry_policy)

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
