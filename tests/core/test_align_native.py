"""Property tests for the native (C) alignment kernels.

The contract mirrors :mod:`tests.core.test_align_numpy`: *bit-identical
output*.  For every pair of sequences and every scoring scheme,
``nw-native`` must return the same score and the same entry list - same
tie-breaking included - as the pure-Python :func:`needleman_wunsch`.  The extension-absent behaviour (a clear error
naming the build requirements for explicit requests, a warned downgrade to
the NumPy or pure tier for the environment knob) is tested by simulating a
failed build, mirroring the NumPy-absent leg.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionMergingPass, ReferenceMergingPass
from repro.core import native as native_mod
from repro.core.align_np import numpy_available
from repro.core.alignment import (ALGORITHMS, ScoringScheme, align,
                                  needleman_wunsch, needleman_wunsch_keyed)
from repro.core.engine.stages import AlignmentStage, resolve_alignment_kernel
from repro.core.native import (native_available,
                               needleman_wunsch_native,
                               needleman_wunsch_native_keyed)
from repro.ir import Module, verify_or_raise
from repro.workloads import FamilySpec, FunctionSpec, make_family

requires_native = pytest.mark.skipif(
    not native_available(), reason="native extension not buildable here")
short_text = st.text(alphabet="ABCD", max_size=14)
scorings = st.builds(ScoringScheme,
                     match=st.integers(1, 3),
                     mismatch=st.integers(-3, 0),
                     gap=st.integers(-3, 0))


def entry_pairs(result):
    return [(e.left, e.right) for e in result.entries]


def assert_same(got, want):
    assert got.score == want.score
    assert entry_pairs(got) == entry_pairs(want)


def build_module(seed=7, families=4, clones=2):
    module = Module(f"native_{seed}")
    rng = random.Random(seed)
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + (index + seed) % 3,
            instructions_per_block=4 + ((index + seed) % 4) * 2,
            call_ratio=0.3, memory_ratio=0.2,
            returns_float=bool((index + seed) % 5 == 1),
            seed=100 + 13 * seed + index)
        make_family(module, spec,
                    FamilySpec(identical=1, structural=clones, partial=1), rng)
    return module


def decisions(report):
    return [(m.function1, m.function2, m.merged_name, m.rank_position, m.delta)
            for m in report.merges]


# -- exact parity with the pure-Python kernels --------------------------------

@requires_native
@settings(max_examples=100, deadline=None)
@given(short_text, short_text, scorings)
def test_native_full_matches_nw_entries_and_score(seq1, seq2, scoring):
    want = needleman_wunsch(seq1, seq2, scoring=scoring)
    assert_same(needleman_wunsch_native(seq1, seq2, scoring=scoring), want)


@requires_native
@settings(max_examples=100, deadline=None)
@given(short_text, short_text, scorings)
def test_native_keyed_matches_keyed_kernel(seq1, seq2, scoring):
    keys1 = [ord(c) for c in seq1]
    keys2 = [ord(c) for c in seq2]
    want = needleman_wunsch_keyed(seq1, seq2, keys1, keys2, scoring)
    got = needleman_wunsch_native_keyed(seq1, seq2, keys1, keys2, scoring)
    assert_same(got, want)
    assert_same(got, needleman_wunsch(seq1, seq2, scoring=scoring))


@requires_native
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=12),
       st.lists(st.integers(0, 3), max_size=12), scorings)
def test_solve_keyed_native_matches_pure_solver(keys1, keys2, scoring):
    # the C solve_keyed entry point behind the keyed native kernel, over
    # integer keys alone (the entries are just positions)
    seq1, seq2 = range(len(keys1)), range(len(keys2))
    want = needleman_wunsch_keyed(seq1, seq2, keys1, keys2, scoring)
    assert_same(needleman_wunsch_native_keyed(seq1, seq2, keys1, keys2,
                                              scoring), want)


@requires_native
@pytest.mark.parametrize("seq1,seq2", [("", ""), ("", "ABC"), ("ABC", ""),
                                       ("A", "A"), ("A", "B"),
                                       ("AAAA", "AAAA")])
def test_native_degenerate_sequences(seq1, seq2):
    want = needleman_wunsch(seq1, seq2)
    keys1, keys2 = [ord(c) for c in seq1], [ord(c) for c in seq2]
    assert_same(needleman_wunsch_native(seq1, seq2), want)
    assert_same(needleman_wunsch_native_keyed(seq1, seq2, keys1, keys2), want)


@requires_native
def test_never_equivalent_keys_never_match():
    # never-equivalent entries get a fresh negative key each (the
    # interner's rule), so they match nothing, not even each other; the
    # native kernel must score them as mismatches, the same as the pure
    # kernel does
    k1, k2 = [-1, 0], [-2, 0]
    want = needleman_wunsch_keyed("AB", "AB", k1, k2)
    assert_same(needleman_wunsch_native_keyed("AB", "AB", k1, k2), want)


@requires_native
def test_huge_scores_fall_back_to_pure_and_still_match():
    # weights too large for the int64 guard: the native wrappers must
    # degrade to the pure kernel, not overflow
    scoring = ScoringScheme(match=2**61, mismatch=-2**61, gap=-2**61)
    want = needleman_wunsch("ABCA", "ABDA", scoring=scoring)
    keys1, keys2 = [ord(c) for c in "ABCA"], [ord(c) for c in "ABDA"]
    assert_same(needleman_wunsch_native_keyed("ABCA", "ABDA", keys1, keys2,
                                              scoring), want)
    # keys outside int64 take the same fallback
    big = [2**70, 2**70 + 1]
    want_big = needleman_wunsch_keyed("AB", "AB", big, big)
    assert_same(needleman_wunsch_native_keyed("AB", "AB", big, big), want_big)


@requires_native
def test_front_door_dispatches_native_algorithms():
    want = needleman_wunsch("ABCA", "ABDA")
    assert_same(align("ABCA", "ABDA", algorithm="nw-native"), want)
    assert "nw-native" in ALGORITHMS


@requires_native
def test_scores_are_plain_ints():
    result = needleman_wunsch_native_keyed("ABC", "ABD", [1, 2, 3], [1, 2, 4])
    assert type(result.score) is int


# -- kernel resolution: explicit / env / auto ---------------------------------

@requires_native
def test_stage_kernel_argument_selects_native():
    assert AlignmentStage(kernel="nw-native").algorithm == "nw-native"


@requires_native
def test_env_knob_selects_native_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_ALIGN_KERNEL", "nw-native")
    assert AlignmentStage().algorithm == "nw-native"


@requires_native
def test_auto_resolves_to_native_when_available():
    assert resolve_alignment_kernel("auto", "needleman-wunsch") == "nw-native"


# -- engine parity ------------------------------------------------------------

@requires_native
class TestNativeEngineParity:
    """The native-kernel engine reproduces the reference pass bit for bit."""

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 10_000))
    def test_parity_on_randomized_modules(self, seed):
        reference = ReferenceMergingPass(
            exploration_threshold=2).run(build_module(seed))
        module = build_module(seed)
        report = FunctionMergingPass(
            exploration_threshold=2, alignment_kernel="nw-native").run(module)
        assert decisions(report) == decisions(reference)
        verify_or_raise(module)


# -- behaviour without the extension ------------------------------------------

class TestWithoutNative:
    """Simulate an environment where the extension cannot be built."""

    @pytest.fixture(autouse=True)
    def no_native(self, monkeypatch):
        monkeypatch.setattr(native_mod, "_native", False)
        monkeypatch.setattr(native_mod, "_load_error", "simulated: no C "
                            "compiler in this environment")
        # isolate from an ambient REPRO_ALIGN_KERNEL (the CI native leg
        # exports one); env-sourced requests downgrade instead of raising
        monkeypatch.delenv("REPRO_ALIGN_KERNEL", raising=False)

    def test_kernel_call_raises_naming_the_build(self):
        with pytest.raises(ImportError, match="compil"):
            needleman_wunsch_native_keyed("AB", "AB", [1, 2], [1, 2])
        with pytest.raises(ImportError, match="compil"):
            align("AB", "AB", algorithm="nw-native")

    def test_explicit_stage_request_raises(self):
        with pytest.raises(ImportError, match="compil"):
            AlignmentStage(kernel="nw-native")
        with pytest.raises(ImportError, match="compil"):
            AlignmentStage(algorithm="nw-native")

    def test_env_request_warns_and_downgrades(self, monkeypatch):
        monkeypatch.setenv("REPRO_ALIGN_KERNEL", "nw-native")
        with pytest.warns(RuntimeWarning, match="falling back"):
            stage = AlignmentStage()
        # the downgrade lands on the NumPy twin when available, pure else
        want = "nw-numpy" if numpy_available() else "needleman-wunsch"
        assert stage.algorithm == want

    def test_auto_skips_the_native_tier(self):
        want = "nw-numpy" if numpy_available() else "needleman-wunsch"
        assert resolve_alignment_kernel("auto", "needleman-wunsch") == want

    def test_engine_still_runs_and_decisions_match(self):
        reference = ReferenceMergingPass(exploration_threshold=2).run(build_module(3))
        report = FunctionMergingPass(
            exploration_threshold=2).run(build_module(3))
        assert decisions(report) == decisions(reference)

    def test_env_disable_knob_reports_unavailable(self, monkeypatch):
        # REPRO_NATIVE=0 must read as "not available" even where a compiler
        # exists; resolution then skips the native tier (monkeypatch restores
        # the probe state afterwards)
        monkeypatch.setattr(native_mod, "_native", None)  # force re-probe
        monkeypatch.setenv(native_mod.NATIVE_ENV, "0")
        assert not native_mod.native_available()
