"""Ablation benchmarks for the design choices called out in DESIGN.md.

* alignment algorithm: Needleman-Wunsch (quadratic space) vs Hirschberg
  (linear space) - same optimal score, different time/memory trade-off
  (Section III-C notes other algorithms could be used);
* select-minimising parameter pairing (Section III-E, "up to 7%");
* exploration threshold sweep including the exhaustive oracle (Section IV);
* linearization traversal order (Section III-B).
"""

import pytest

from repro.core import (FunctionMergingPass, MergeOptions, align, estimate_profit,
                        linearize, merge_functions)
from repro.core.equivalence import entries_equivalent
from repro.targets import get_target
from repro.workloads import build_spec_benchmark, case_study_module

TARGET = get_target("x86-64")


def _rijndael_pair():
    module = case_study_module("rijndael")
    return (module.get_function("encrypt_block"), module.get_function("decrypt_block"))


class TestAlignmentAlgorithmAblation:
    @pytest.mark.parametrize("algorithm", ["needleman-wunsch", "hirschberg"])
    def test_alignment_algorithm(self, benchmark, algorithm):
        first, second = _rijndael_pair()
        entries1, entries2 = linearize(first), linearize(second)
        result = benchmark(align, entries1, entries2, entries_equivalent,
                           algorithm=algorithm)
        assert result.match_count > 0

    def test_both_algorithms_give_equally_good_merges(self, benchmark):
        first, second = _rijndael_pair()

        def run():
            sizes = {}
            for algorithm in ("needleman-wunsch", "hirschberg"):
                options = MergeOptions(alignment_algorithm=algorithm)
                merged = merge_functions(first, second, options).merged
                sizes[algorithm] = TARGET.function_cost(merged)
            return sizes

        sizes = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n  merged sizes by algorithm: {sizes}")
        ratio = sizes["hirschberg"] / sizes["needleman-wunsch"]
        assert 0.9 <= ratio <= 1.1


class TestParameterPairingAblation:
    def test_smart_pairing_not_worse(self, benchmark):
        """Section III-E: choosing parameter pairs that minimise selects is
        worth up to 7% on individual benchmarks."""

        def run():
            sizes = {}
            for smart in (True, False):
                generated = build_spec_benchmark("482.sphinx3", scale=0.05, cap=16)
                options = MergeOptions(smart_parameter_pairing=smart)
                pass_ = FunctionMergingPass(TARGET, exploration_threshold=1,
                                            options=options)
                pass_.run(generated.module)
                sizes["smart" if smart else "naive"] = TARGET.module_cost(generated.module)
            return sizes

        sizes = benchmark.pedantic(run, rounds=1, iterations=1)
        print(f"\n  module size with smart/naive parameter pairing: {sizes}")
        assert sizes["smart"] <= sizes["naive"] * 1.02


class TestExplorationThresholdAblation:
    def test_threshold_sweep(self, benchmark):
        """Higher thresholds may find more reduction but cost more time; the
        oracle is the upper bound (Figures 10 and 12)."""

        def run():
            outcome = {}
            for label, kwargs in [("t=1", dict(exploration_threshold=1)),
                                  ("t=5", dict(exploration_threshold=5)),
                                  ("t=10", dict(exploration_threshold=10)),
                                  ("oracle", dict(oracle=True))]:
                generated = build_spec_benchmark("447.dealII", scale=0.03, cap=16)
                pass_ = FunctionMergingPass(TARGET, **kwargs)
                report = pass_.run(generated.module)
                outcome[label] = (TARGET.module_cost(generated.module),
                                  report.merge_count, report.total_time)
            return outcome

        outcome = benchmark.pedantic(run, rounds=1, iterations=1)
        print()
        for label, (size, merges, seconds) in outcome.items():
            print(f"  {label:<7} size={size:<6} merges={merges:<3} time={seconds * 1000:.0f}ms")
        assert outcome["t=10"][0] <= outcome["t=1"][0]
        assert outcome["oracle"][0] <= outcome["t=10"][0] * 1.05
        assert outcome["oracle"][2] >= outcome["t=1"][2]


class TestLinearizationOrderAblation:
    @pytest.mark.parametrize("traversal", ["rpo", "layout", "dfs"])
    def test_traversal_order(self, benchmark, traversal):
        """The traversal order affects effectiveness, not correctness
        (Section III-B); RPO is the paper's choice."""
        first, second = _rijndael_pair()
        options = MergeOptions(traversal=traversal)

        result = benchmark(merge_functions, first, second, options)

        evaluation = estimate_profit(result, TARGET)
        print(f"\n  traversal={traversal}: merged cost {evaluation.size_merged}, "
              f"delta {evaluation.delta}")
        assert evaluation.size_merged > 0
