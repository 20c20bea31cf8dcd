"""Compilation pipeline used by the experiments (Figure 9 of the paper).

The paper compiles every translation unit with ``-Os``, links the IR and
applies function merging followed by further code-size optimizations during
monolithic LTO, then lowers to an object file.  Our equivalent pipeline is:

1. *pre* passes over the linked module: DCE + CFG simplification (the -Os
   emulation);
2. the selected function-merging technique (none / Identical / SOA / FMSA),
   always preceded by Identical merging for SOA and FMSA exactly as in the
   paper's setup;
3. *post* cleanup passes (DCE, dead-function elimination, CFG simplification);
4. "backend": the target cost model measures the final code size, and the
   printer/verifier walk stands in for instruction selection when measuring
   baseline compile time.

Every step is timed so that the compile-time experiments (Figures 12 and 13)
can be derived from the same runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..baselines.identical import IdenticalFunctionMergingPass
from ..baselines.soa import StructuralFunctionMergingPass
from ..core.codegen import MergeOptions
from ..core.engine import MergeSession
from ..core.engine.engine import check_serial_call_shape
from ..core.pass_ import FunctionMergingPass, MergeReport, make_hotness_filter
from ..ir.module import Module
from ..ir.printer import function_to_str
from ..ir.verifier import verify_module
from ..passes.dce import DeadCodeElimination, DeadFunctionElimination
from ..passes.pass_manager import Pass
from ..passes.simplify_cfg import SimplifyCFG
from ..targets.cost_model import TargetCostModel, get_target


#: Modelled throughput of a production compiler's whole pipeline, in IR
#: instructions per second.  Used to derive a *modelled* baseline compile
#: time for the normalisation in Figure 12: our Python "backend" is orders of
#: magnitude cheaper than clang's -Os + LTO + instruction selection, so
#: normalising against it alone would exaggerate the merging overhead.  The
#: constant is in the right order of magnitude for clang -Os on commodity
#: hardware; EXPERIMENTS.md discusses the sensitivity.
MODELED_BACKEND_THROUGHPUT = 4000.0


#: Labels of the configurations evaluated in the paper's figures.
def technique_label(technique: str, threshold: int = 1, oracle: bool = False) -> str:
    if technique != "fmsa":
        return technique
    if oracle:
        return "fmsa[oracle]"
    return f"fmsa[t={threshold}]"


@dataclass
class CompilationResult:
    """Outcome of compiling one benchmark module with one configuration."""

    benchmark: str
    technique: str
    target: str
    size_baseline: int
    size_after: int
    merge_count: int
    merge_time: float
    baseline_time: float
    stage_times: Dict[str, float] = field(default_factory=dict)
    rank_positions: List[int] = field(default_factory=list)
    function_count: int = 0
    min_function_size: int = 0
    avg_function_size: float = 0.0
    max_function_size: int = 0
    normalized_runtime: float = 1.0
    #: Number of IR instructions in the module before merging; used to model
    #: the compile time of a production backend (see
    #: :data:`MODELED_BACKEND_THROUGHPUT`).
    instruction_count: int = 0
    merge_report: Optional[object] = None

    @property
    def reduction_percent(self) -> float:
        """Object-size reduction relative to the non-merging baseline."""
        if self.size_baseline <= 0:
            return 0.0
        return 100.0 * (self.size_baseline - self.size_after) / self.size_baseline

    @property
    def measured_normalized_compile_time(self) -> float:
        """Compile time normalised to this repository's own (very cheap)
        baseline pipeline - an upper bound on the overhead ratio."""
        if self.baseline_time <= 0:
            return 1.0
        return (self.baseline_time + self.merge_time) / self.baseline_time

    @property
    def modeled_baseline_time(self) -> float:
        """Modelled compile time of a production compiler for this module."""
        return max(self.baseline_time,
                   self.instruction_count / MODELED_BACKEND_THROUGHPUT)

    @property
    def normalized_compile_time(self) -> float:
        """Compile time normalised to the modelled production baseline; this
        is the quantity comparable to Figure 12 of the paper."""
        baseline = self.modeled_baseline_time
        if baseline <= 0:
            return 1.0
        return (baseline + self.merge_time) / baseline


def _run_cleanup(module: Module) -> None:
    DeadCodeElimination().run(module)
    DeadFunctionElimination().run(module)
    SimplifyCFG().run(module)
    DeadCodeElimination().run(module)


def _function_size_stats(module: Module) -> tuple:
    sizes = [f.instruction_count() for f in module.defined_functions()]
    if not sizes:
        return 0, 0, 0.0, 0
    return len(sizes), min(sizes), sum(sizes) / len(sizes), max(sizes)


def _backend_emulation(module: Module, target: TargetCostModel) -> int:
    """Stand-in for instruction selection / encoding: verify, print and cost
    every function.  Only its wall-clock time matters (baseline compile
    time); the return value is the module size."""
    verify_module(module)
    for function in module.defined_functions():
        function_to_str(function)
    return target.module_cost(module)


def estimate_runtime_overhead(report: Optional[MergeReport],
                              profiles: Dict[str, object]) -> float:
    """Profile-weighted dynamic-overhead model (Figure 14).

    For every committed merge, each original contributes
    ``call_count * extra_dynamic_ops`` additional executed instructions
    (selects, func_id branches and thunk calls on its hot path).  The result
    is the program's normalised runtime: 1.0 means no overhead.
    """
    total_dynamic = sum(getattr(p, "dynamic_instructions", 0) for p in profiles.values())
    if not report or total_dynamic <= 0:
        return 1.0
    extra = 0.0
    for record in report.merges:
        for name in (record.function1, record.function2):
            profile = profiles.get(name)
            if profile is None:
                continue
            extra += profile.call_count * record.extra_dynamic_ops
    return 1.0 + extra / total_dynamic


def open_compile_session(module: Module, *,
                         target: str = "x86-64",
                         threshold: int = 1,
                         oracle: bool = False,
                         exclude_hot: bool = False,
                         hot_threshold: float = 0.01,
                         merge_options: Optional[MergeOptions] = None,
                         alignment_kernel: Optional[str] = None,
                         jobs: Optional[int] = None,
                         executor: str = "auto",
                         sanitize: Optional[bool] = None,
                         fault_plan=None) -> MergeSession:
    """Open a long-lived incremental merge session over ``module``.

    Runs the same *pre* passes ``compile_module`` applies (DCE + CFG
    simplification), then opens a :class:`repro.core.MergeSession` with the
    FMSA engine configuration the given knobs select.  The returned session
    holds the merged module; feed it :class:`repro.core.ModuleEdit` scripts
    via :meth:`MergeSession.update` and each update re-merges by replanning
    only the edit-affected slice, bit-identical to recompiling the edited
    module from scratch.  A long-lived Python process (an IDE plugin, a
    watch-mode build) opens one session, calls ``update`` per edit and
    ``close`` at the end.

    Unlike ``compile_module(technique="fmsa")`` this does not run the
    Identical-merging pre-pass (its rewrites are not replayable through the
    session's edit model) and applies no *post* cleanup; compare against
    cold ``MergeEngine`` runs, not full ``compile_module`` results.

    The session aligns every candidate pair directly, with no alignment
    cache.  ``jobs`` and ``executor`` accept only ``None``/``1`` and
    ``"auto"``/``"serial"``: merging is serial, and the two parameters
    remain only for callers that pin that configuration explicitly.
    """
    check_serial_call_shape(jobs, executor)
    cost_model = get_target(target)
    DeadCodeElimination().run(module)
    SimplifyCFG().run(module)
    hot_filter = make_hotness_filter(hot_threshold) if exclude_hot else None
    fmsa = FunctionMergingPass(
        target=cost_model, exploration_threshold=threshold, oracle=oracle,
        options=merge_options or MergeOptions(),
        hot_function_filter=hot_filter,
        alignment_kernel=alignment_kernel, sanitize=sanitize,
        fault_plan=fault_plan)
    return MergeSession(fmsa.engine, module)


def compile_module(module: Module, technique: str, *,
                   benchmark: str = "",
                   target: str = "x86-64",
                   threshold: int = 1,
                   oracle: bool = False,
                   exclude_hot: bool = False,
                   hot_threshold: float = 0.01,
                   merge_options: Optional[MergeOptions] = None,
                   run_identical_first: bool = True,
                   alignment_kernel: Optional[str] = None,
                   jobs: Optional[int] = None,
                   executor: str = "auto",
                   merge_pass: Optional[Pass] = None,
                   sanitize: Optional[bool] = None,
                   fault_plan=None
                   ) -> CompilationResult:
    """Run the full pipeline on ``module`` with one configuration.

    ``technique`` is one of ``"baseline"``, ``"identical"``, ``"soa"`` or
    ``"fmsa"``.  The module is modified in place; callers that want to
    compare techniques must regenerate the module per configuration (the
    workload generators are deterministic, so this is cheap and exact).

    ``alignment_kernel`` selects the merge engine's DP backend (e.g.
    ``"nw-numpy"`` for the vectorized one); every choice produces identical
    merge decisions and only changes the stage timings.  ``jobs`` and
    ``executor`` accept only ``None``/``1`` and ``"auto"``/``"serial"``
    (anything else raises ValueError): merging is serial, and the two
    parameters remain only for callers that pin that configuration
    explicitly.

    A fresh pass aligns every candidate pair directly, with no alignment
    cache: a cold compile never repeats a pair, so a cache key would cost
    more than the DP it could skip.

    ``merge_pass`` injects a pre-built merging pass for ``technique="fmsa"``
    instead of constructing a :class:`FunctionMergingPass` from the knobs
    above; the paper-figure harness runs
    :class:`~repro.core.reference.ReferenceMergingPass` this way.  The
    knobs that would configure a fresh pass (threshold, oracle, kernel,
    ...) are ignored when a pass is injected; decisions depend only on the
    pass's own configuration, so the reference pass and the equivalent
    cold knobs produce bit-identical results.

    ``sanitize`` (default: the ``REPRO_SANITIZE`` environment variable)
    runs the static-analysis sanitizer - verifier v2 plus the
    merge-correctness linter (:mod:`repro.analysis`) - after every commit
    and at the end of the merge run, raising
    :class:`~repro.analysis.AnalysisError` on any violation.  Decisions
    are bit-identical with it on or off.  Ignored when ``merge_pass`` is
    injected (the pass's own engine configuration wins).

    ``fault_plan`` (default: the ``REPRO_FAULTS`` environment variable)
    configures deterministic fault injection in the merge engine
    (:mod:`repro.resilience`).  Runs that complete are bit-identical to
    fault-free runs; like ``sanitize``, it is ignored when ``merge_pass``
    is injected.
    """
    check_serial_call_shape(jobs, executor)
    cost_model = get_target(target)
    profiles = {f.name: f.profile for f in module.defined_functions()
                if getattr(f, "profile", None) is not None}

    # --- pre passes + backend emulation: the baseline compile time -------------
    start = time.perf_counter()
    DeadCodeElimination().run(module)
    SimplifyCFG().run(module)
    size_baseline = _backend_emulation(module, cost_model)
    baseline_time = time.perf_counter() - start
    instruction_count = module.instruction_count()

    function_count, min_size, avg_size, max_size = _function_size_stats(module)

    # --- merging ------------------------------------------------------------------
    merge_report: Optional[MergeReport] = None
    merge_count = 0
    stage_times: Dict[str, float] = {}
    rank_positions: List[int] = []
    merge_start = time.perf_counter()

    if technique != "baseline":
        if technique == "identical" or run_identical_first:
            identical_report = IdenticalFunctionMergingPass().run(module)
            if technique == "identical":
                merge_count = identical_report.merge_count
            else:
                merge_count += identical_report.merge_count
        if technique == "soa":
            soa_report = StructuralFunctionMergingPass(cost_model).run(module)
            merge_count += soa_report.merge_count
        elif technique == "fmsa":
            if merge_pass is not None:
                fmsa = merge_pass
            else:
                hot_filter = make_hotness_filter(hot_threshold) if exclude_hot else None
                fmsa = FunctionMergingPass(
                    target=cost_model, exploration_threshold=threshold, oracle=oracle,
                    options=merge_options or MergeOptions(),
                    hot_function_filter=hot_filter,
                    alignment_kernel=alignment_kernel, sanitize=sanitize,
                    fault_plan=fault_plan)
            merge_report = fmsa.run(module)
            merge_count += merge_report.merge_count
            stage_times = merge_report.stage_times
            rank_positions = merge_report.rank_positions
    merge_time = time.perf_counter() - merge_start

    # --- post cleanup + final size ----------------------------------------------------
    _run_cleanup(module)
    size_after = cost_model.module_cost(module)

    return CompilationResult(
        benchmark=benchmark or module.name,
        technique=technique_label(technique, threshold, oracle),
        target=target,
        size_baseline=size_baseline,
        size_after=size_after,
        merge_count=merge_count,
        merge_time=merge_time,
        baseline_time=baseline_time,
        stage_times=stage_times,
        rank_positions=rank_positions,
        function_count=function_count,
        min_function_size=min_size,
        avg_function_size=avg_size,
        max_function_size=max_size,
        normalized_runtime=estimate_runtime_overhead(merge_report, profiles),
        instruction_count=instruction_count,
        merge_report=merge_report,
    )
