"""Tests for the benchmark suite models and the mini-C case studies."""

import pytest

from repro.baselines import structurally_similar
from repro.core import merge_functions, estimate_profit
from repro.ir import verify_or_raise
from repro.targets import X86_64
from repro.workloads import (CASE_STUDY_PAIRS, MIBENCH_BENCHMARKS, SPEC_BENCHMARKS,
                             build_mibench_benchmark, build_spec_benchmark,
                             case_study_module, libquantum_module,
                             mibench_benchmark_names, rijndael_module,
                             spec_benchmark_names, sphinx_module)


class TestSuiteConfigs:
    def test_all_19_spec_benchmarks_modelled(self):
        assert len(SPEC_BENCHMARKS) == 19
        assert "462.libquantum" in spec_benchmark_names()
        assert "483.xalancbmk" in spec_benchmark_names()

    def test_all_23_mibench_benchmarks_modelled(self):
        assert len(MIBENCH_BENCHMARKS) == 23
        assert "rijndael" in mibench_benchmark_names()

    def test_table1_statistics_recorded(self):
        by_name = {b.name: b for b in SPEC_BENCHMARKS}
        assert by_name["483.xalancbmk"].functions == 14191
        assert by_name["470.lbm"].functions == 17
        assert by_name["401.bzip2"].avg_size == 206

    def test_similarity_mix_calibration(self):
        by_name = {b.name: b for b in SPEC_BENCHMARKS}
        # templated C++ benchmarks have identical-share, libquantum does not
        assert by_name["447.dealII"].identical_share > 0.1
        assert by_name["462.libquantum"].identical_share == 0.0
        assert by_name["462.libquantum"].partial_share > 0.3
        assert by_name["470.lbm"].partial_share == 0.0


class TestGeneratedBenchmarks:
    def test_spec_benchmark_generates_verified_module(self):
        generated = build_spec_benchmark("462.libquantum", scale=0.1, cap=20)
        verify_or_raise(generated.module)
        assert generated.module.defined_functions()
        assert generated.partial_members

    def test_generation_is_deterministic(self):
        a = build_spec_benchmark("433.milc", scale=0.05, cap=15)
        b = build_spec_benchmark("433.milc", scale=0.05, cap=15)
        assert (sorted(f.name for f in a.module.functions)
                == sorted(f.name for f in b.module.functions))
        assert a.module.instruction_count() == b.module.instruction_count()

    def test_cap_limits_function_count(self):
        generated = build_spec_benchmark("483.xalancbmk", scale=1.0, cap=12)
        # cap + helper declarations + driver
        assert len(generated.module.defined_functions()) <= 14

    def test_lbm_has_no_mergeable_families(self):
        generated = build_spec_benchmark("470.lbm", scale=1.0, cap=20)
        assert not generated.identical_members
        assert not generated.structural_members
        assert not generated.partial_members

    def test_profiles_attached_and_hot_candidates_marked(self):
        generated = build_spec_benchmark("433.milc", scale=0.1, cap=20)
        functions = generated.module.defined_functions()
        assert any(getattr(f, "profile", None) is not None for f in functions)
        assert generated.hot_functions
        hot = generated.hot_functions[0]
        assert hot in (generated.partial_members + generated.structural_members
                       + generated.identical_members)

    def test_mibench_benchmark_generates(self):
        generated = build_mibench_benchmark("bitcount")
        verify_or_raise(generated.module)
        unknown = pytest.raises(KeyError, build_mibench_benchmark, "doesnotexist")
        assert unknown

    def test_rijndael_special_case_has_large_pair(self):
        generated = build_mibench_benchmark("rijndael")
        verify_or_raise(generated.module)
        encrypt = generated.module.get_function("rijndael_encrypt")
        decrypt = generated.module.get_function("rijndael_decrypt")
        assert encrypt.instruction_count() > 100
        # the pair dominates the module, like in the paper (~70% of the code)
        total = sum(f.instruction_count() for f in generated.module.defined_functions())
        pair = encrypt.instruction_count() + decrypt.instruction_count()
        assert pair / total > 0.5

    def test_unknown_spec_benchmark_rejected(self):
        with pytest.raises(KeyError):
            build_spec_benchmark("499.nonexistent")


class TestCaseStudies:
    def test_modules_compile_and_verify(self):
        for name in CASE_STUDY_PAIRS:
            module = case_study_module(name)
            verify_or_raise(module)
            for function_name in CASE_STUDY_PAIRS[name]:
                assert module.get_function(function_name) is not None

    def test_unknown_case_study_rejected(self):
        with pytest.raises(KeyError):
            case_study_module("doom")

    def test_sphinx_pair_differs_in_signature(self):
        module = sphinx_module()
        f1, f2 = (module.get_function(n) for n in CASE_STUDY_PAIRS["sphinx"])
        assert f1.function_type != f2.function_type
        assert not structurally_similar(f1, f2)

    def test_libquantum_pair_differs_in_cfg(self):
        module = libquantum_module()
        f1, f2 = (module.get_function(n) for n in CASE_STUDY_PAIRS["libquantum"])
        assert f1.function_type == f2.function_type
        assert len(f1.blocks) != len(f2.blocks)

    @pytest.mark.parametrize("name", sorted(CASE_STUDY_PAIRS))
    def test_fmsa_merges_every_case_study_profitably(self, name):
        module = case_study_module(name)
        f1, f2 = (module.get_function(n) for n in CASE_STUDY_PAIRS[name])
        result = merge_functions(f1, f2)
        verify_or_raise(result.merged)
        evaluation = estimate_profit(result, X86_64)
        assert evaluation.profitable, f"{name} should merge profitably"

    def test_rijndael_pair_reduction_matches_paper_shape(self):
        # the paper reports a 42% reduction in IR instructions for the pair;
        # our synthetic kernels should land in the same ballpark (> 25%)
        module = rijndael_module()
        f1, f2 = (module.get_function(n) for n in CASE_STUDY_PAIRS["rijndael"])
        result = merge_functions(f1, f2)
        combined = f1.instruction_count() + f2.instruction_count()
        reduction = 1.0 - result.merged.instruction_count() / combined
        assert reduction > 0.25


class TestCrossProcessDeterminism:
    """Generated modules depend only on the benchmark name and seed, never
    on the interpreter's per-process string-hash randomization."""

    CHILD = (
        "import hashlib\n"
        "from repro.ir.printer import module_to_str\n"
        "from repro.workloads import build_mibench_benchmark, build_spec_benchmark\n"
        "modules = [build_spec_benchmark('462.libquantum').module,\n"
        "           build_mibench_benchmark('rijndael').module,\n"
        "           build_mibench_benchmark('gsm').module]\n"
        "for module in modules:\n"
        "    text = module_to_str(module).encode('utf-8')\n"
        "    print(module.name, hashlib.sha256(text).hexdigest())\n"
    )

    def _digests(self, hash_seed):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run([sys.executable, "-c", self.CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_modules_identical_under_two_hash_seeds(self):
        first = self._digests(1)
        assert len(first) == 3
        assert first == self._digests(2)
