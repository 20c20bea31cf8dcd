"""The merge engine's pipeline stages.

Each stage wraps one phase of the FMSA optimization - fingerprint, candidate
search, linearize, align, codegen, profitability, commit - as a strategy
object with its own statistics.  Stages hold the per-run caches (fingerprint
index, linearization/key cache) and the swappable strategy (the alignment
kernel), so optimizing or replacing one phase never touches the
driver loop in :class:`~repro.core.engine.engine.MergeEngine`.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Optional, Tuple

from ...ir.callgraph import CallGraph
from ...ir.function import Function
from ...ir.module import Module
from ...passes.reg2mem import demote_phis
from ..alignment import (ALGORITHMS, AlignmentResult, ScoringScheme, align,
                         needleman_wunsch_keyed, ops_string, result_from_ops)
from ..native import (KEYED_NATIVE_KERNELS, NATIVE_KERNELS,
                      PURE_PYTHON_FALLBACKS, native_available, require_native)
from ..codegen import MergeOptions, MergeResult, merge_cost, merge_functions
from ..equivalence import EquivalenceKeyInterner, entries_equivalent
from ..fingerprint import Fingerprint
from ..linearizer import LinearizedFunction, linearize_with_keys
from ..profitability import MergeEvaluation, evaluate_merge
from ..ranking import RankedCandidate
from ..thunks import AppliedMerge, apply_merge
from ...resilience import InjectedFault, degradation_event, fault_triggered
from .align_cache import AlignmentCache
from .base import Stage

#: Environment knob selecting the alignment kernel for every engine that
#: does not pass one explicitly (the CI matrix leg runs the whole suite on
#: the native kernel this way).  Accepts any ``ALGORITHMS`` name,
#: ``"nw-native"`` or ``"auto"``.
ALIGN_KERNEL_ENV = "REPRO_ALIGN_KERNEL"


def resolve_alignment_kernel(kernel: Optional[str], algorithm: str) -> str:
    """Resolve the alignment algorithm an :class:`AlignmentStage` runs.

    Priority: the explicit ``kernel`` argument, then the
    ``REPRO_ALIGN_KERNEL`` environment variable, then ``algorithm`` (the
    historical ``MergeOptions.alignment_algorithm``).  ``"auto"`` picks the
    native C kernel when it is available, else ``algorithm`` - or the pure
    ``needleman-wunsch`` kernel when ``algorithm`` is not a pure algorithm
    itself (``MergeOptions(alignment_algorithm="auto")``).

    Requesting the native kernel explicitly (argument or options) when the
    extension is unavailable raises an ImportError naming the build
    requirements; requesting it through the *environment* downgrades to the
    pure-Python kernel with a warning instead, so a globally exported knob
    never breaks compiler-less checkouts.
    """
    explicit = kernel is not None
    if kernel is None:
        kernel = os.environ.get(ALIGN_KERNEL_ENV, "").strip() or None
        if kernel is None:
            kernel = algorithm
            explicit = True
    if kernel == "auto":
        if native_available():
            return "nw-native"
        return algorithm if algorithm in ALGORITHMS else "needleman-wunsch"
    if kernel not in ALGORITHMS and kernel not in NATIVE_KERNELS:
        raise ValueError(f"unknown alignment kernel {kernel!r}; available: "
                         f"{sorted({*ALGORITHMS, *NATIVE_KERNELS})} "
                         f"(or 'auto')")
    if kernel in NATIVE_KERNELS and not native_available():
        if explicit:
            require_native(kernel)  # raises, naming the build requirements
        fallback = PURE_PYTHON_FALLBACKS[kernel]
        warnings.warn(
            f"{ALIGN_KERNEL_ENV}={kernel} requested but the _nw_native C "
            f"extension is not available; falling back to the {fallback!r} "
            f"kernel (identical alignments)", RuntimeWarning, stacklevel=2)
        return fallback
    return kernel


class PreprocessStage(Stage):
    """Phi demotion: the code generator assumes phi-demoted input."""

    name = "preprocess"
    legacy_stage = None  # the original pass did not time this

    def run(self, module: Module) -> None:
        def demote_all():
            for function in module.defined_functions():
                demote_phis(function)
        self.timed(demote_all)


class FingerprintStage(Stage):
    """Maintains the per-function summaries derived from fingerprints: the
    candidate searcher's index and (in oracle mode) the profit-bound index.

    Both react to the same invalidation events - a commit removes exactly the
    two consumed originals and adds the merged function - so the commit path
    never recomputes summaries of functions a merge did not touch.  Every
    fingerprint comes from one scan of the body (:meth:`Fingerprint.of`),
    the merged function's included.
    """

    name = "fingerprint"
    legacy_stage = "fingerprinting"

    def __init__(self, searcher, profit_bounds=None):
        super().__init__()
        self.searcher = searcher
        self.profit_bounds = profit_bounds

    def _add(self, functions: List[Function]) -> None:
        for function in functions:
            self.searcher.add_fingerprint(Fingerprint.of(function))
        if self.profit_bounds is not None:
            self.profit_bounds.add_functions(functions)

    def add_functions(self, functions: List[Function]) -> None:
        self.stats.bump("functions", len(functions))
        self.timed(self._add, functions)

    def add_merged(self, function: Function) -> None:
        """Fingerprint and index a just-committed merged function."""
        self.stats.bump("functions")
        self.timed(self._add, [function])

    def restore_function(self, function: Function, fp: Fingerprint,
                         order: Optional[int] = None) -> None:
        """Re-index a previously-consumed source function (session rollback).

        ``fp`` is the pristine source fingerprint and ``order`` the searcher
        iteration position the function held before it was consumed, so a
        subsequent candidate query ranks it exactly as a cold run would.
        """
        self.stats.bump("functions")

        def _do() -> None:
            self.searcher.add_fingerprint(fp, order=order)
            if self.profit_bounds is not None:
                self.profit_bounds.add_function(function)

        self.timed(_do)

    def _remove(self, name: str) -> None:
        self.searcher.remove_function(name)
        if self.profit_bounds is not None:
            self.profit_bounds.remove_function(name)

    def remove_function(self, name: str) -> None:
        self.timed(self._remove, name)

    def refresh_profit_bounds(self, functions: List[Function]) -> None:
        """Recompute profit bounds for functions whose bodies a commit
        rewrote (call sites widened, converts inserted - their costs grew).

        Only the profit-bound index is refreshed: the searcher keeps the
        historical behaviour of ranking rewritten callers by their original
        fingerprints, and the profit bound must stay an upper bound on the
        *live* bodies the profitability stage will actually cost.
        """
        if self.profit_bounds is not None and functions:
            self.timed(self.profit_bounds.add_functions, functions)

    def clear(self) -> None:
        self.searcher.clear()
        if self.profit_bounds is not None:
            self.profit_bounds.clear()


class CandidateSearchStage(Stage):
    """Answers top-``t`` candidate queries against the fingerprint index.

    Besides ``candidates`` it counts, per query, the pairs the searcher
    scored (``pairs_scored``) and the candidates its pair-score memo
    answered (``pair_memo_hits``).
    """

    name = "candidate-search"
    legacy_stage = "ranking"

    def __init__(self, searcher):
        super().__init__()
        self.searcher = searcher

    def query(self, name: str, limit: int) -> List[RankedCandidate]:
        searcher = self.searcher
        scored, hits = searcher.pairs_scored, searcher.pair_memo_hits
        candidates = self.timed(searcher.rank_candidates, name, limit)
        stats = self.stats
        stats.bump("candidates", len(candidates))
        stats.bump("pairs_scored", searcher.pairs_scored - scored)
        stats.bump("pair_memo_hits", searcher.pair_memo_hits - hits)
        return candidates


class LinearizeStage(Stage):
    """Linearizes functions and precomputes integer equivalence keys, cached
    per function; one shared key interner makes keys comparable across
    functions."""

    name = "linearize"
    legacy_stage = "linearization"

    def __init__(self, traversal: str = "rpo"):
        super().__init__()
        self.traversal = traversal
        self.interner = EquivalenceKeyInterner()
        # name -> (body token, linearization).  The token identifies the body
        # the entry was computed from (the entry block's object id: cached
        # linearizations keep their instructions - and through instruction
        # parents the blocks - alive, so the id cannot be recycled while the
        # entry lives).  A session transplanting a rolled-back body into the
        # same Function object therefore can never resurrect a stale
        # linearization even if an invalidate call is missed.
        self._cache: Dict[str, tuple] = {}

    @staticmethod
    def _body_token(function: Function) -> Optional[int]:
        return id(function.blocks[0]) if function.blocks else None

    def get(self, function: Function) -> LinearizedFunction:
        return self.timed(self._get, function)

    def _get(self, function: Function) -> LinearizedFunction:
        token = self._body_token(function)
        slot = self._cache.get(function.name)
        if slot is not None and slot[0] != token:
            self.stats.bump("stale_evicted")
            slot = None
        if slot is None:
            cached = linearize_with_keys(function, self.traversal, self.interner)
            self._cache[function.name] = (token, cached)
            self.stats.bump("linearized")
        else:
            cached = slot[1]
            self.stats.bump("cache_hits")
        return cached

    def invalidate(self, name: str) -> None:
        self._cache.pop(name, None)

    def clear(self) -> None:
        self._cache.clear()
        self.interner = EquivalenceKeyInterner()


class AlignmentStage(Stage):
    """Runs the sequence-alignment kernel on two linearized functions.

    The selected algorithm is dispatched to its fast integer-key kernel when
    one exists; results are identical to the predicate-based algorithms,
    only cheaper per cell (``hirschberg`` has no keyed kernel and runs the
    structural equivalence predicate).  ``kernel``
    overrides the algorithm name (falling back to the ``REPRO_ALIGN_KERNEL``
    environment variable, then to ``algorithm``); ``nw-native`` runs the C
    extension behind :mod:`repro.core.native`.

    When a :class:`~repro.core.engine.align_cache.AlignmentCache` is
    attached, keyed alignments are memoised by linearization content: a
    cache hit skips the DP entirely and rehydrates the stored alignment
    shape against this pair's entries (bit-identical to recomputation, see
    the cache module docstring).  The cache key is the pair's *canonical*
    digests plus the scoring scheme - interner-independent, and shared
    across kernels because every keyed kernel produces identical results.
    """

    name = "align"
    legacy_stage = "alignment"

    #: Keyed kernels by algorithm name (all produce results identical to the
    #: predicate-based algorithm of the same name).
    KEYED_KERNELS = {
        "needleman-wunsch": needleman_wunsch_keyed,
        "nw": needleman_wunsch_keyed,
    }
    KEYED_KERNELS.update(KEYED_NATIVE_KERNELS)

    def __init__(self, scoring: ScoringScheme = ScoringScheme(),
                 algorithm: str = "needleman-wunsch",
                 kernel: Optional[str] = None,
                 cache: Optional[AlignmentCache] = None):
        super().__init__()
        self.scoring = scoring
        self.algorithm = resolve_alignment_kernel(kernel, algorithm)
        self.cache = cache
        self._scoring_key = (scoring.match, scoring.mismatch, scoring.gap)
        #: Kernel-ladder transitions (``degradation_event`` dicts): a keyed
        #: kernel that raises mid-pair downgrades native -> pure
        #: (sticky for the rest of the run).  Bit-identity is free - every
        #: keyed kernel produces the same alignments by construction.
        self.degradations: List[dict] = []

    @property
    def uses_cache(self) -> bool:
        """True when this stage's configuration actually consults the
        cache: a cache is attached *and* the algorithm has a keyed kernel
        (the generic predicate path never reads it)."""
        return self.cache is not None and self.algorithm in self.KEYED_KERNELS

    @property
    def scoring_key(self) -> tuple:
        """The ``(match, mismatch, gap)`` triple as used in cache keys."""
        return self._scoring_key

    def align_pair(self, lin1: LinearizedFunction,
                   lin2: LinearizedFunction) -> AlignmentResult:
        return self.timed(self._align, lin1, lin2)

    def _align(self, lin1: LinearizedFunction, lin2: LinearizedFunction):
        self.stats.bump("cells", len(lin1.entries) * len(lin2.entries))
        if self.algorithm in self.KEYED_KERNELS:
            cache = self.cache
            if cache is None:
                self.stats.bump("keyed")
                return self._solve_keyed(lin1, lin2)
            # canonical (interner-independent) digests, no kernel: every
            # keyed kernel is bit-identical by construction, so entries
            # transfer across kernel configs, interners and runs
            key = (lin1.canonical_digest(), lin2.canonical_digest(),
                   self._scoring_key)
            cached = cache.get(key)
            if cached is not None:
                self.stats.bump("cache_hits")
                return result_from_ops(cached[0], cached[1],
                                       lin1.entries, lin2.entries)
            self.stats.bump("keyed")
            result = self._solve_keyed(lin1, lin2)
            cache.put(key, ops_string(result.entries), result.score)
            return result
        self.stats.bump("generic")
        return align(lin1.entries, lin2.entries, entries_equivalent,
                     self.scoring, self.algorithm)

    def _solve_keyed(self, lin1: LinearizedFunction,
                     lin2: LinearizedFunction) -> AlignmentResult:
        """Run the keyed kernel, degrading down the ladder when it raises.

        A crashing native kernel (a broken build or the
        ``align.kernel_crash`` injection) downgrades *sticky* to the
        next tier of identical behaviour and the pair is re-solved there;
        only the pure-Python tier, which has no rung below it, re-raises.
        Each transition lands in :attr:`degradations` and warns once.
        """
        while True:
            kernel = self.KEYED_KERNELS[self.algorithm]
            try:
                if fault_triggered("align.kernel_crash"):
                    raise InjectedFault("align.kernel_crash")
                return kernel(lin1.entries, lin2.entries,
                              lin1.keys, lin2.keys, self.scoring)
            except Exception as error:
                # the ladder is native -> pure; the pure tier has no rung
                fallback = PURE_PYTHON_FALLBACKS.get(self.algorithm)
                if fallback is None:
                    raise
                warnings.warn(
                    f"alignment kernel {self.algorithm!r} failed "
                    f"({type(error).__name__}: {error}); degrading to the "
                    f"{fallback!r} kernel (identical alignments)",
                    RuntimeWarning, stacklevel=2)
                self.degradations.append(degradation_event(
                    "align-kernel", self.algorithm, fallback,
                    f"{type(error).__name__}: {error}"))
                self.stats.bump("kernel_degradations")
                self.algorithm = fallback


class CodegenStage(Stage):
    """Code generation for one aligned pair.

    :meth:`generate` is the per-candidate step: it runs the code
    generator's decision walk into the counting sink and returns
    ``(size_merged, merged_param_count)`` with no IR built.
    :meth:`materialize` runs the same walk into the IR sink; the engine
    calls it only for the candidate it commits to.
    """

    name = "codegen"
    legacy_stage = "codegen"

    def __init__(self, options: MergeOptions, target):
        super().__init__()
        self.options = options
        self.target = target

    def generate(self, function1: Function, function2: Function,
                 alignment: AlignmentResult) -> Tuple[int, int]:
        return self.timed(merge_cost, function1, function2, self.target,
                          self.options, alignment)

    def materialize(self, function1: Function, function2: Function,
                    alignment: AlignmentResult) -> MergeResult:
        self.stats.bump("materialized")
        return self.timed(merge_functions, function1, function2,
                          self.options, alignment)


class ProfitabilityStage(Stage):
    """Evaluates the code-size profit of a costed merge candidate."""

    name = "profitability"
    # the original pass accounted profitability inside the codegen bucket
    legacy_stage = "codegen"

    def __init__(self, target, allow_deletion: bool):
        super().__init__()
        self.target = target
        self.allow_deletion = allow_deletion

    def evaluate(self, function1: Function, function2: Function,
                 cost: Tuple[int, int], call_graph: CallGraph) -> MergeEvaluation:
        """``cost`` is :meth:`CodegenStage.generate`'s
        ``(size_merged, merged_param_count)``."""
        evaluation = self.timed(evaluate_merge, function1, function2, *cost,
                                self.target, call_graph, self.allow_deletion)
        self.stats.bump("profitable" if evaluation.profitable else "unprofitable")
        return evaluation


class CommitStage(Stage):
    """Applies a profitable merge to the module; :func:`apply_merge`
    maintains the call graph in place, so no O(module) rebuilds happen."""

    name = "commit"
    legacy_stage = "updating_calls"

    def __init__(self, allow_deletion: bool):
        super().__init__()
        self.allow_deletion = allow_deletion

    def apply(self, module: Module, result: MergeResult,
              call_graph: CallGraph) -> AppliedMerge:
        self.stats.bump("merges")
        return self.timed(apply_merge, module, result, call_graph,
                          self.allow_deletion)
