"""Property-based tests (hypothesis) for the alignment algorithms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ScoringScheme, hirschberg, needleman_wunsch,
                        needleman_wunsch_keyed)

short_text = st.text(alphabet="ABCD", max_size=14)
tiny_text = st.text(alphabet="AB", max_size=7)


def entry_pairs(result):
    return [(e.left, e.right) for e in result.entries]


def brute_force_score(seq1, seq2, scoring=ScoringScheme()):
    """Exponential reference: the optimal global alignment score."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def best(i, j):
        if i == len(seq1):
            return (len(seq2) - j) * scoring.gap
        if j == len(seq2):
            return (len(seq1) - i) * scoring.gap
        diagonal = best(i + 1, j + 1) + (
            scoring.match if seq1[i] == seq2[j] else scoring.mismatch)
        up = best(i + 1, j) + scoring.gap
        left = best(i, j + 1) + scoring.gap
        return max(diagonal, up, left)

    return best(0, 0)


@settings(max_examples=60, deadline=None)
@given(tiny_text, tiny_text)
def test_nw_score_is_optimal(seq1, seq2):
    assert needleman_wunsch(seq1, seq2).score == brute_force_score(seq1, seq2)


@settings(max_examples=80, deadline=None)
@given(short_text, short_text)
def test_alignment_preserves_both_sequences(seq1, seq2):
    entries = needleman_wunsch(seq1, seq2).entries
    assert "".join(e.left for e in entries if e.left is not None) == seq1
    assert "".join(e.right for e in entries if e.right is not None) == seq2


@settings(max_examples=80, deadline=None)
@given(short_text, short_text)
def test_every_column_is_match_or_one_sided(seq1, seq2):
    for entry in needleman_wunsch(seq1, seq2).entries:
        if entry.is_match:
            assert entry.left == entry.right  # default equivalence is equality
        else:
            assert (entry.left is None) != (entry.right is None)


@settings(max_examples=80, deadline=None)
@given(short_text, short_text)
def test_alignment_length_bounds(seq1, seq2):
    entries = needleman_wunsch(seq1, seq2).entries
    # every column consumes at least one element, and no element is dropped
    assert max(len(seq1), len(seq2)) <= len(entries) <= len(seq1) + len(seq2)


@settings(max_examples=60, deadline=None)
@given(short_text, short_text)
def test_hirschberg_matches_needleman_wunsch_score(seq1, seq2):
    assert hirschberg(seq1, seq2).score == needleman_wunsch(seq1, seq2).score


@settings(max_examples=60, deadline=None)
@given(short_text)
def test_self_alignment_is_all_matches(seq):
    result = needleman_wunsch(seq, seq)
    assert result.match_count == len(seq)
    assert result.gap_count == 0


@settings(max_examples=60, deadline=None)
@given(short_text, short_text)
def test_alignment_is_symmetric_in_score(seq1, seq2):
    assert (needleman_wunsch(seq1, seq2).score
            == needleman_wunsch(seq2, seq1).score)


# -- keyed kernel: exact parity with the predicate DP ------------------------

@settings(max_examples=80, deadline=None)
@given(short_text, short_text)
def test_keyed_kernel_matches_predicate_nw(seq1, seq2):
    keys1 = [ord(c) for c in seq1]
    keys2 = [ord(c) for c in seq2]
    full = needleman_wunsch(seq1, seq2)
    keyed = needleman_wunsch_keyed(seq1, seq2, keys1, keys2)
    assert keyed.score == full.score
    assert entry_pairs(keyed) == entry_pairs(full)


@settings(max_examples=60, deadline=None)
@given(short_text)
def test_hirschberg_threads_score_out_of_divide_and_conquer(seq):
    # self-alignment: optimal score is len(seq) matches, no rescoring pass
    result = hirschberg(seq, seq)
    assert result.score == len(seq)

