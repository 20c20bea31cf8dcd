"""Figure 10: object-size reduction on the SPEC CPU2006 model.

Regenerates, for both targets (Intel x86-64 and ARM Thumb), the per-benchmark
code-size reduction of Identical, SOA and FMSA (t = 1, 5, 10, optionally the
oracle) relative to the non-merging baseline, plus the suite means reported
in the paper (Intel: 1.4% / 2.5% / 6.0-6.3%).
"""

from benchmarks.conftest import emit
from repro.evaluation import figure10


def test_figure10_intel(benchmark, spec_evaluation):
    report = benchmark.pedantic(figure10, args=(spec_evaluation, "x86-64"),
                                rounds=1, iterations=1)
    emit(report)
    techniques = report.headers[1:]
    means = {t: float(v) for t, v in zip(techniques, report.rows[-1][1:])}
    fmsa = max(v for t, v in means.items() if t.startswith("fmsa"))
    assert fmsa > means["identical"]
    assert fmsa > means["soa"]
    # headline claim: FMSA is >= 2x better than the state of the art
    assert means["soa"] == 0 or fmsa / means["soa"] >= 1.5


def test_figure10_arm(benchmark, spec_evaluation):
    report = benchmark.pedantic(figure10, args=(spec_evaluation, "arm-thumb"),
                                rounds=1, iterations=1)
    emit(report)
    techniques = report.headers[1:]
    means = {t: float(v) for t, v in zip(techniques, report.rows[-1][1:])}
    fmsa = max(v for t, v in means.items() if t.startswith("fmsa"))
    assert fmsa > means["soa"] > 0 or fmsa > means["identical"]
