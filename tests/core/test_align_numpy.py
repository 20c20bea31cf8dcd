"""Property tests for the NumPy alignment backend.

The contract of :mod:`repro.core.align_np` is *bit-identical output*: for
every pair of sequences and every scoring scheme, the vectorized kernels
return the same score and the same entry list - same tie-breaking included - as the
pure-Python :func:`needleman_wunsch`.  The NumPy-absent behaviour (a clear
error naming the ``fast`` extra for explicit requests, a warned pure-Python
downgrade for the environment knob) is tested by simulating a failed
import.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import align_np
from repro.core.align_np import (needleman_wunsch_numpy,
                                 needleman_wunsch_numpy_keyed,
                                 numpy_available)
from repro.core.alignment import (ALGORITHMS, ScoringScheme, align,
                                  needleman_wunsch, needleman_wunsch_keyed)
from repro.core.engine.stages import AlignmentStage, resolve_alignment_kernel

requires_numpy = pytest.mark.skipif(not numpy_available(),
                                    reason="NumPy not installed")

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


# -- exact parity with the pure-Python kernels --------------------------------

@requires_numpy
@settings(max_examples=100, deadline=None)
@given(short_text, short_text, scorings)
def test_numpy_full_matches_nw_entries_and_score(seq1, seq2, scoring):
    want = needleman_wunsch(seq1, seq2, scoring=scoring)
    assert_same(needleman_wunsch_numpy(seq1, seq2, scoring=scoring), want)


@requires_numpy
@settings(max_examples=100, deadline=None)
@given(short_text, short_text, scorings)
def test_numpy_keyed_matches_keyed_kernel(seq1, seq2, scoring):
    keys1 = [ord(c) for c in seq1]
    keys2 = [ord(c) for c in seq2]
    want = needleman_wunsch_keyed(seq1, seq2, keys1, keys2, scoring)
    got = needleman_wunsch_numpy_keyed(seq1, seq2, keys1, keys2, scoring)
    assert_same(got, want)
    assert_same(got, needleman_wunsch(seq1, seq2, scoring=scoring))


@requires_numpy
@pytest.mark.parametrize("seq1,seq2", [("", ""), ("", "ABC"), ("ABC", ""),
                                       ("A", "A"), ("A", "B"),
                                       ("AAAA", "AAAA")])
def test_numpy_degenerate_sequences(seq1, seq2):
    want = needleman_wunsch(seq1, seq2)
    keys1, keys2 = [ord(c) for c in seq1], [ord(c) for c in seq2]
    assert_same(needleman_wunsch_numpy(seq1, seq2), want)
    assert_same(needleman_wunsch_numpy_keyed(seq1, seq2, keys1, keys2), want)


@requires_numpy
def test_front_door_dispatches_numpy_algorithms():
    want = needleman_wunsch("ABCA", "ABDA")
    assert_same(align("ABCA", "ABDA", algorithm="nw-numpy"), want)
    assert "nw-numpy" in ALGORITHMS


@requires_numpy
def test_scores_are_plain_ints():
    result = needleman_wunsch_numpy_keyed("ABC", "ABD", [1, 2, 3], [1, 2, 4])
    assert type(result.score) is int


# -- kernel resolution: explicit / env / auto ---------------------------------

@requires_numpy
def test_stage_kernel_argument_overrides_algorithm():
    stage = AlignmentStage(kernel="nw-numpy", algorithm="needleman-wunsch")
    assert stage.algorithm == "nw-numpy"


@requires_numpy
def test_env_knob_selects_kernel(monkeypatch):
    monkeypatch.setenv("REPRO_ALIGN_KERNEL", "nw-numpy")
    assert AlignmentStage().algorithm == "nw-numpy"
    # an explicit kernel still wins over the environment
    assert AlignmentStage(
        kernel="needleman-wunsch").algorithm == "needleman-wunsch"


def test_auto_kernel_resolution(monkeypatch):
    from repro.core import native
    if native.native_available():
        assert resolve_alignment_kernel("auto", "needleman-wunsch") == \
            "nw-native"
    monkeypatch.setattr(native, "_native", False)  # simulate no extension
    if numpy_available():
        assert resolve_alignment_kernel("auto", "needleman-wunsch") == "nw-numpy"
    monkeypatch.setattr(align_np, "_numpy", False)
    assert resolve_alignment_kernel("auto", "needleman-wunsch") == \
        "needleman-wunsch"


#: What the unknown-kernel error must list: every remaining algorithm.
REMAINING_KERNELS = ("['hirschberg', 'needleman-wunsch', 'nw', 'nw-native', "
                     "'nw-numpy']")


def test_unknown_kernel_rejected(monkeypatch):
    # the nw-banded* and nw-wavefront-numpy names belong to removed kernels
    for kernel in ("nw-gpu", "nw-banded", "nw-banded-numpy",
                   "nw-wavefront-numpy", "nw-banded-native"):
        with pytest.raises(ValueError, match="unknown alignment kernel"):
            AlignmentStage(kernel=kernel)
        monkeypatch.setenv("REPRO_ALIGN_KERNEL", kernel)
        with pytest.raises(ValueError) as excinfo:
            AlignmentStage()
        assert REMAINING_KERNELS in str(excinfo.value)


# -- behaviour without NumPy --------------------------------------------------

class TestWithoutNumpy:
    """Simulate an environment where the ``fast`` extra is not installed."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(align_np, "_numpy", False)
        # isolate from an ambient REPRO_ALIGN_KERNEL (the CI numpy leg
        # exports one); env-sourced requests downgrade instead of raising
        monkeypatch.delenv("REPRO_ALIGN_KERNEL", raising=False)

    def test_kernel_call_raises_naming_the_extra(self):
        with pytest.raises(ImportError, match="fast"):
            needleman_wunsch_numpy_keyed("AB", "AB", [1, 2], [1, 2])
        with pytest.raises(ImportError, match="repro\\[fast\\]"):
            align("AB", "AB", algorithm="nw-numpy")

    def test_explicit_stage_request_raises(self):
        with pytest.raises(ImportError, match="fast"):
            AlignmentStage(kernel="nw-numpy")
        with pytest.raises(ImportError, match="fast"):
            AlignmentStage(algorithm="nw-numpy")

    def test_env_request_warns_and_downgrades(self, monkeypatch):
        monkeypatch.setenv("REPRO_ALIGN_KERNEL", "nw-numpy")
        with pytest.warns(RuntimeWarning, match="falling back"):
            stage = AlignmentStage()
        assert stage.algorithm == "needleman-wunsch"

    def test_pure_python_engine_still_runs(self):
        import random

        from repro.core import FunctionMergingPass
        from repro.ir import Module
        from repro.workloads import FamilySpec, FunctionSpec, make_family

        module = Module("no_numpy")
        make_family(module, FunctionSpec("f", seed=1),
                    FamilySpec(identical=1), random.Random(0))
        report = FunctionMergingPass().run(module)
        assert report.merge_count >= 1
