"""End-to-end integration tests across the whole stack.

These exercise the full path the README advertises: mini-C source ->
IR -> -Os-style cleanup -> function merging (all three techniques) ->
size measurement -> execution, checking both the paper's qualitative claims
and semantic preservation.
"""

from repro.baselines import IdenticalFunctionMergingPass, StructuralFunctionMergingPass
from repro.core import FunctionMergingPass
from repro.evaluation import compile_module
from repro.frontend import compile_source
from repro.interp import Interpreter, standard_externals
from repro.ir import verify_or_raise
from repro.targets import get_target
from repro.workloads import build_spec_benchmark

PROGRAM = """
// a small "templated" program: three families of similar functions
struct vec { int x; int y; int z; };

int dot_scaled(struct vec *a, struct vec *b, int scale) {
    return (a->x * b->x + a->y * b->y + a->z * b->z) * scale;
}

int dot_offset(struct vec *a, struct vec *b, int offset) {
    return a->x * b->x + a->y * b->y + a->z * b->z + offset;
}

int clamp_int(int v, int lo, int hi) {
    if (v < lo) return lo;
    if (v > hi) return hi;
    return v;
}

long clamp_long(long v, long lo, long hi) {
    if (v < lo) return lo;
    if (v > hi) return hi;
    return v;
}

int checksum(int *data, int n) {
    int acc = 7;
    for (int i = 0; i < n; i++) {
        acc = acc * 31 + data[i];
        acc = clamp_int(acc, -100000, 100000);
    }
    return acc;
}

int main(int n) {
    struct vec a; struct vec b;
    a.x = n; a.y = n + 1; a.z = 2;
    b.x = 3; b.y = 4; b.z = 5;
    int data[6];
    for (int i = 0; i < 6; i++) data[i] = i * n;
    int total = dot_scaled(&a, &b, 2) + dot_offset(&a, &b, 9);
    total = total + checksum(data, 6) + (int)clamp_long(total, 0, 500);
    return clamp_int(total, -100000, 100000);
}
"""

INPUTS = [[0], [1], [7], [42]]


def _reference_results():
    module = compile_source(PROGRAM)
    interp = Interpreter(module, standard_externals())
    return [interp.run("main", args) for args in INPUTS]


class TestMiniCProgramEndToEnd:
    def test_fmsa_pass_preserves_program_behaviour(self):
        expected = _reference_results()
        module = compile_source(PROGRAM)
        target = get_target("x86-64")
        before = target.module_cost(module)
        report = FunctionMergingPass(target, exploration_threshold=10).run(module)
        verify_or_raise(module)
        after = target.module_cost(module)
        assert report.merge_count >= 1
        assert after < before
        interp = Interpreter(module, standard_externals())
        assert [interp.run("main", args) for args in INPUTS] == expected

    def test_all_three_techniques_keep_semantics(self):
        expected = _reference_results()
        for technique in ("identical", "soa", "fmsa"):
            module = compile_source(PROGRAM)
            if technique == "identical":
                IdenticalFunctionMergingPass().run(module)
            elif technique == "soa":
                StructuralFunctionMergingPass().run(module)
            else:
                FunctionMergingPass().run(module)
            verify_or_raise(module)
            interp = Interpreter(module, standard_externals())
            assert [interp.run("main", args) for args in INPUTS] == expected, technique

    def test_fmsa_merges_more_than_baselines_on_this_program(self):
        module_identical = compile_source(PROGRAM)
        module_soa = compile_source(PROGRAM)
        module_fmsa = compile_source(PROGRAM)
        identical = IdenticalFunctionMergingPass().run(module_identical).merge_count
        soa = StructuralFunctionMergingPass().run(module_soa).merge_count
        fmsa = FunctionMergingPass(exploration_threshold=10).run(module_fmsa).merge_count
        assert fmsa >= max(identical, soa)
        assert fmsa >= 1


class TestSyntheticBenchmarkEndToEnd:
    def test_pipeline_orders_techniques_as_in_figure10(self):
        sizes = {}
        for technique, kwargs in [("baseline", {}), ("identical", {}), ("soa", {}),
                                  ("fmsa", {"threshold": 1})]:
            generated = build_spec_benchmark("447.dealII", scale=0.05, cap=20)
            result = compile_module(generated.module, technique, **kwargs)
            sizes[result.technique] = result.size_after
            verify_or_raise(generated.module)
        assert sizes["identical"] <= sizes["baseline"]
        assert sizes["soa"] <= sizes["identical"]
        assert sizes["fmsa[t=1]"] < sizes["soa"]

    def test_module_verifies_after_every_technique(self):
        for technique in ("identical", "soa", "fmsa"):
            generated = build_spec_benchmark("471.omnetpp", scale=0.02, cap=14)
            compile_module(generated.module, technique)
            verify_or_raise(generated.module)
