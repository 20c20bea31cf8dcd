"""Experiment drivers reproducing every table and figure of the paper.

The heavy lifting happens once in :func:`evaluate_suite`, which compiles
every benchmark of a suite under every configuration (baseline, Identical,
SOA, FMSA at several exploration thresholds, optionally the oracle and the
profile-guided "no hot functions" variant).  The ``figure*`` / ``table*``
functions are cheap views over that evaluation that render the same rows and
series the paper reports:

=============  ==========================================================
Experiment     Content
=============  ==========================================================
``figure8``    CDF of the rank position of committed candidates
``figure10``   SPEC object-size reduction per technique (Intel & ARM)
``table1``     SPEC function statistics and merge-operation counts
``figure11``   MiBench object-size reduction (Intel)
``table2``     MiBench function statistics and merge-operation counts
``figure12``   compile-time overhead normalised to the baseline
``figure13``   compile-time breakdown per optimization stage (FMSA t=1)
``figure14``   normalised runtime (profile-weighted dynamic-cost model)
=============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.pass_ import make_hotness_filter
from ..core.reference import ReferenceMergingPass
from ..targets.cost_model import get_target
from ..workloads.mibench import build_mibench_benchmark, mibench_benchmark_names
from ..workloads.spec2006 import build_spec_benchmark, spec_benchmark_names
from .pipeline import CompilationResult, compile_module, technique_label
from .reporting import arithmetic_mean, ascii_table, bar_chart, cdf_table, to_csv


# ---------------------------------------------------------------------------
# Suite evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvaluationSettings:
    """Knobs controlling how much work an evaluation run does."""

    suite: str = "spec"
    benchmarks: Optional[List[str]] = None
    scale: float = 0.01
    cap: int = 40
    thresholds: Tuple[int, ...] = (1, 5, 10)
    include_oracle: bool = False
    include_hot_exclusion: bool = False
    targets: Tuple[str, ...] = ("x86-64", "arm-thumb")
    seed: int = 0


@dataclass
class SuiteEvaluation:
    """All compilation results for one suite, keyed by
    (benchmark, target, technique label)."""

    settings: EvaluationSettings
    benchmarks: List[str] = field(default_factory=list)
    configurations: List[str] = field(default_factory=list)
    results: Dict[Tuple[str, str, str], CompilationResult] = field(default_factory=dict)

    def result(self, benchmark: str, target: str, technique: str) -> CompilationResult:
        return self.results[(benchmark, target, technique)]

    def reduction(self, benchmark: str, target: str, technique: str) -> float:
        """Object-size reduction of a technique relative to the baseline
        configuration of the same benchmark and target."""
        baseline = self.result(benchmark, target, "baseline").size_after
        final = self.result(benchmark, target, technique).size_after
        if baseline <= 0:
            return 0.0
        return 100.0 * (baseline - final) / baseline

    def mean_reduction(self, target: str, technique: str) -> float:
        return arithmetic_mean([self.reduction(b, target, technique)
                                for b in self.benchmarks])


def _benchmark_builder(suite: str):
    if suite == "spec":
        return build_spec_benchmark, spec_benchmark_names()
    if suite == "mibench":
        return build_mibench_benchmark, mibench_benchmark_names()
    raise ValueError(f"unknown suite {suite!r} (expected 'spec' or 'mibench')")


def _configurations(settings: EvaluationSettings) -> List[Dict]:
    configs: List[Dict] = [
        {"technique": "baseline"},
        {"technique": "identical"},
        {"technique": "soa"},
    ]
    for threshold in settings.thresholds:
        configs.append({"technique": "fmsa", "threshold": threshold})
    if settings.include_oracle:
        configs.append({"technique": "fmsa", "oracle": True})
    if settings.include_hot_exclusion:
        configs.append({"technique": "fmsa", "threshold": settings.thresholds[0],
                        "exclude_hot": True})
    return configs


def _config_label(config: Dict) -> str:
    label = technique_label(config["technique"], config.get("threshold", 1),
                            config.get("oracle", False))
    if config.get("exclude_hot"):
        label += ",nohot"
    return label


def evaluate_suite(settings: Optional[EvaluationSettings] = None,
                   **overrides) -> SuiteEvaluation:
    """Compile every benchmark of a suite under every configuration.

    Accepts either an :class:`EvaluationSettings` or keyword overrides, e.g.
    ``evaluate_suite(suite="mibench", scale=0.5, thresholds=(1,))``.

    FMSA configurations run :class:`ReferenceMergingPass`, the paper's
    plain exploration loop: the compile-time figures (12 and 13)
    characterize the paper's algorithm - linear candidate scans, the
    predicate aligner, a call-graph rebuild per commit - not this
    repository's optimized engine, whose merge decisions are identical
    (``perfbench/run.py`` times the engine).
    """
    if settings is None:
        settings = EvaluationSettings(**overrides)
    builder, all_names = _benchmark_builder(settings.suite)
    names = settings.benchmarks or all_names
    configs = _configurations(settings)

    evaluation = SuiteEvaluation(settings, benchmarks=list(names),
                                 configurations=[_config_label(c) for c in configs])

    for benchmark in names:
        for target in settings.targets:
            for config in configs:
                generated = builder(benchmark, scale=settings.scale,
                                    cap=settings.cap, seed=settings.seed)
                threshold = config.get("threshold", 1)
                oracle = config.get("oracle", False)
                merge_pass = None
                if config["technique"] == "fmsa":
                    merge_pass = ReferenceMergingPass(
                        target=get_target(target),
                        exploration_threshold=threshold, oracle=oracle,
                        hot_function_filter=(make_hotness_filter()
                                             if config.get("exclude_hot")
                                             else None))
                result = compile_module(
                    generated.module, config["technique"],
                    benchmark=benchmark, target=target,
                    threshold=threshold, oracle=oracle,
                    merge_pass=merge_pass)
                result.technique = _config_label(config)
                evaluation.results[(benchmark, target, result.technique)] = result
    return evaluation


# ---------------------------------------------------------------------------
# Report views
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    """A rendered experiment: headers + rows + free-form notes."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    notes: str = ""

    def render(self) -> str:
        table = ascii_table(self.headers, self.rows, title=self.name)
        return table + ("\n" + self.notes if self.notes else "")

    def csv(self) -> str:
        return to_csv(self.headers, self.rows)


def _merge_techniques(evaluation: SuiteEvaluation) -> List[str]:
    return [c for c in evaluation.configurations if c != "baseline"]


def figure10(evaluation: SuiteEvaluation, target: str = "x86-64") -> ExperimentReport:
    """Object-size reduction per benchmark and technique (Figure 10/11)."""
    techniques = _merge_techniques(evaluation)
    headers = ["benchmark"] + techniques
    rows: List[List[object]] = []
    for benchmark in evaluation.benchmarks:
        row: List[object] = [benchmark]
        for technique in techniques:
            row.append(f"{evaluation.reduction(benchmark, target, technique):.1f}")
        rows.append(row)
    mean_row: List[object] = ["MEAN"]
    for technique in techniques:
        mean_row.append(f"{evaluation.mean_reduction(target, technique):.1f}")
    rows.append(mean_row)
    suite = evaluation.settings.suite
    name = (f"Figure 10 ({target}): object-size reduction (%) over baseline"
            if suite == "spec" else
            f"Figure 11 ({target}): object-size reduction (%) over baseline")
    return ExperimentReport(name, headers, rows)


def figure11(evaluation: SuiteEvaluation, target: str = "x86-64") -> ExperimentReport:
    """MiBench variant of the size-reduction table (Figure 11)."""
    report = figure10(evaluation, target)
    report.name = f"Figure 11 ({target}): MiBench object-size reduction (%)"
    return report


def table1(evaluation: SuiteEvaluation, target: str = "x86-64") -> ExperimentReport:
    """Function statistics and merge-operation counts (Tables I and II)."""
    techniques = [c for c in _merge_techniques(evaluation) if not c.endswith("nohot")]
    headers = ["benchmark", "#Fns", "Min/Avg/Max size"] + [f"#{t}" for t in techniques]
    rows: List[List[object]] = []
    for benchmark in evaluation.benchmarks:
        base = evaluation.result(benchmark, target, "baseline")
        row: List[object] = [
            benchmark, base.function_count,
            f"{base.min_function_size}/{base.avg_function_size:.1f}/{base.max_function_size}"]
        for technique in techniques:
            row.append(evaluation.result(benchmark, target, technique).merge_count)
        rows.append(row)
    label = "Table I" if evaluation.settings.suite == "spec" else "Table II"
    return ExperimentReport(f"{label}: function statistics and merge operations",
                            headers, rows)


def table2(evaluation: SuiteEvaluation, target: str = "x86-64") -> ExperimentReport:
    return table1(evaluation, target)


def figure12(evaluation: SuiteEvaluation, target: str = "x86-64") -> ExperimentReport:
    """Compile-time overhead normalised to the non-merging baseline."""
    techniques = _merge_techniques(evaluation)
    headers = ["benchmark"] + techniques
    rows: List[List[object]] = []
    for benchmark in evaluation.benchmarks:
        row: List[object] = [benchmark]
        for technique in techniques:
            result = evaluation.result(benchmark, target, technique)
            row.append(f"{result.normalized_compile_time:.2f}")
        rows.append(row)
    mean_row: List[object] = ["MEAN"]
    for technique in techniques:
        mean_row.append(f"{arithmetic_mean([evaluation.result(b, target, technique).normalized_compile_time for b in evaluation.benchmarks]):.2f}")
    rows.append(mean_row)
    notes = ("note: normalisation uses a modelled production-compiler baseline "
             "(module instructions / MODELED_BACKEND_THROUGHPUT, see "
             "repro.evaluation.pipeline); the paper normalises against a full "
             "clang+LTO build.  The ordering across configurations (identical "
             "< soa < fmsa[t=1] < fmsa[t=10] << oracle) is the comparable "
             "quantity.")
    return ExperimentReport(f"Figure 12 ({target}): normalised compile time",
                            headers, rows, notes)


def figure13(evaluation: SuiteEvaluation, target: str = "x86-64",
             technique: Optional[str] = None) -> ExperimentReport:
    """Per-stage compile-time breakdown for FMSA (Figure 13, t=1)."""
    technique = technique or next(
        (c for c in evaluation.configurations if c.startswith("fmsa[t=")), None)
    if technique is None:
        raise ValueError("no FMSA configuration in this evaluation")
    stages = ["fingerprinting", "ranking", "linearization", "alignment",
              "codegen", "updating_calls"]
    headers = ["benchmark"] + stages
    rows: List[List[object]] = []
    totals = {stage: 0.0 for stage in stages}
    for benchmark in evaluation.benchmarks:
        result = evaluation.result(benchmark, target, technique)
        total = sum(result.stage_times.get(stage, 0.0) for stage in stages) or 1.0
        row: List[object] = [benchmark]
        for stage in stages:
            share = 100.0 * result.stage_times.get(stage, 0.0) / total
            totals[stage] += result.stage_times.get(stage, 0.0)
            row.append(f"{share:.1f}")
        rows.append(row)
    grand_total = sum(totals.values()) or 1.0
    rows.append(["OVERALL"] + [f"{100.0 * totals[s] / grand_total:.1f}" for s in stages])
    return ExperimentReport(
        f"Figure 13 ({target}, {technique}): compile-time breakdown (%)",
        headers, rows)


def figure8(evaluation: SuiteEvaluation, target: str = "x86-64",
            technique: Optional[str] = None, max_position: int = 10) -> ExperimentReport:
    """CDF of the rank position of committed merge candidates (Figure 8)."""
    if technique is None:
        fmsa_configs = [c for c in evaluation.configurations
                        if c.startswith("fmsa[t=") and "," not in c]
        technique = fmsa_configs[-1] if fmsa_configs else None
    if technique is None:
        raise ValueError("no FMSA configuration in this evaluation")
    positions: List[int] = []
    for benchmark in evaluation.benchmarks:
        positions.extend(evaluation.result(benchmark, target, technique).rank_positions)
    rows = [[position, f"{coverage:.1f}"]
            for position, coverage in cdf_table(positions, max_position)]
    return ExperimentReport(
        f"Figure 8 ({technique}): CDF of profitable-candidate rank position "
        f"({len(positions)} merges)",
        ["position", "coverage (%)"], rows)


def figure14(evaluation: SuiteEvaluation, target: str = "x86-64") -> ExperimentReport:
    """Normalised runtime from the profile-weighted dynamic-cost model."""
    techniques = _merge_techniques(evaluation)
    headers = ["benchmark"] + techniques
    rows: List[List[object]] = []
    for benchmark in evaluation.benchmarks:
        row: List[object] = [benchmark]
        for technique in techniques:
            result = evaluation.result(benchmark, target, technique)
            row.append(f"{result.normalized_runtime:.3f}")
        rows.append(row)
    mean_row: List[object] = ["MEAN"]
    for technique in techniques:
        mean_row.append(f"{arithmetic_mean([evaluation.result(b, target, technique).normalized_runtime for b in evaluation.benchmarks]):.3f}")
    rows.append(mean_row)
    notes = ("runtime is modelled as profile-weighted dynamic instructions; "
             "Identical/SOA introduce no guarded code in this model and report 1.0, "
             "matching the paper's statistically-insignificant baseline impact.")
    return ExperimentReport(f"Figure 14 ({target}): normalised runtime",
                            headers, rows, notes)


def reduction_bar_chart(evaluation: SuiteEvaluation, technique: str,
                        target: str = "x86-64") -> str:
    """A quick textual bar chart of per-benchmark reductions."""
    labels = list(evaluation.benchmarks)
    values = [evaluation.reduction(b, target, technique) for b in labels]
    return bar_chart(labels, values,
                     title=f"{technique} reduction on {target}", unit="%")


def run_all_experiments(spec_settings: Optional[EvaluationSettings] = None,
                        mibench_settings: Optional[EvaluationSettings] = None
                        ) -> Dict[str, ExperimentReport]:
    """Run both suites and produce every report of the paper's evaluation."""
    spec_settings = spec_settings or EvaluationSettings(
        suite="spec", include_hot_exclusion=True)
    mibench_settings = mibench_settings or EvaluationSettings(
        suite="mibench", targets=("x86-64",), thresholds=(1, 10))

    spec_eval = evaluate_suite(spec_settings)
    mibench_eval = evaluate_suite(mibench_settings)

    reports: Dict[str, ExperimentReport] = {
        "figure8": figure8(spec_eval),
        "figure10_intel": figure10(spec_eval, "x86-64"),
        "table1": table1(spec_eval),
        "figure11": figure11(mibench_eval, "x86-64"),
        "table2": table2(mibench_eval),
        "figure12": figure12(spec_eval),
        "figure13": figure13(spec_eval),
        "figure14": figure14(spec_eval),
    }
    if "arm-thumb" in spec_settings.targets:
        reports["figure10_arm"] = figure10(spec_eval, "arm-thumb")
    return reports
