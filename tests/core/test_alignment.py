"""Unit tests for the sequence alignment algorithms (on plain sequences)."""

import pytest

from repro.core import ScoringScheme, align, hirschberg, needleman_wunsch
from repro.core.alignment import AlignedEntry, alignment_score


def left_string(entries):
    return "".join(e.left for e in entries if e.left is not None)


def right_string(entries):
    return "".join(e.right for e in entries if e.right is not None)


class TestNeedlemanWunsch:
    def test_identical_sequences_fully_match(self):
        result = needleman_wunsch("GATTACA", "GATTACA")
        assert result.match_count == 7
        assert result.gap_count == 0
        assert result.score == 7

    def test_empty_sequences(self):
        assert needleman_wunsch("", "").entries == []
        only_left = needleman_wunsch("AB", "")
        assert all(e.is_left_only for e in only_left.entries)
        only_right = needleman_wunsch("", "AB")
        assert all(e.is_right_only for e in only_right.entries)

    def test_classic_example(self):
        result = needleman_wunsch("GCATGCG", "GATTACA")
        # optimal score for match=1, mismatch=-1, gap=-1 is 0
        assert result.score == 0

    def test_preserves_input_subsequences(self):
        seq1, seq2 = "ABCDEF", "ABXDEF"
        entries = needleman_wunsch(seq1, seq2).entries
        assert left_string(entries) == seq1
        assert right_string(entries) == seq2

    def test_insertion_detected_as_gap(self):
        entries = needleman_wunsch("ABCDEF", "ABCXDEF").entries
        gaps = [e for e in entries if not e.is_match]
        assert len(gaps) == 1
        assert gaps[0].is_right_only and gaps[0].right == "X"

    def test_mismatches_expanded_to_gap_pairs(self):
        entries = needleman_wunsch("AXB", "AYB").entries
        assert all(e.is_match or e.left is None or e.right is None for e in entries)
        kinds = [(e.left, e.right) for e in entries if not e.is_match]
        assert (None, "Y") in kinds and ("X", None) in kinds

    def test_match_ratio(self):
        result = needleman_wunsch("AAAA", "AABA")
        assert 0.0 < result.match_ratio() <= 1.0
        assert needleman_wunsch("", "").match_ratio() == 0.0

    def test_custom_equivalence_predicate(self):
        result = needleman_wunsch("abc", "ABC",
                                  equivalent=lambda a, b: a.lower() == b.lower())
        assert result.match_count == 3

    def test_scoring_scheme_changes_alignment(self):
        # with a huge gap penalty, mismatching diagonals are preferred over gaps
        harsh_gaps = ScoringScheme(match=2, mismatch=-1, gap=-10)
        result = needleman_wunsch("ABCD", "AXCD", scoring=harsh_gaps)
        assert result.score == 3 * 2 - 1

    def test_invalid_scoring_scheme(self):
        with pytest.raises(ValueError):
            ScoringScheme(match=0)


class TestHirschberg:
    def test_same_score_as_needleman_wunsch(self):
        pairs = [("GATTACA", "GCATGCG"), ("ABCDEF", "ABDF"), ("", "ABC"),
                 ("AAAA", "AAAA"), ("ABCABC", "CBACBA")]
        for seq1, seq2 in pairs:
            nw = needleman_wunsch(seq1, seq2)
            hb = hirschberg(seq1, seq2)
            assert hb.score == nw.score, (seq1, seq2)

    def test_preserves_subsequences(self):
        seq1, seq2 = "KITTEN", "SITTING"
        entries = hirschberg(seq1, seq2).entries
        assert left_string(entries) == seq1
        assert right_string(entries) == seq2

    def test_identical_sequences(self):
        result = hirschberg("MERGE", "MERGE")
        assert result.match_count == 5


class TestAlignFrontDoor:
    def test_algorithm_selection(self):
        assert align("AB", "AB", algorithm="nw").match_count == 2
        assert align("AB", "AB", algorithm="hirschberg").match_count == 2
        with pytest.raises(ValueError):
            align("AB", "AB", algorithm="smith-waterman-nonexistent")

    def test_alignment_score_helper(self):
        entries = [AlignedEntry("A", "A"), AlignedEntry("B", None), AlignedEntry(None, "C")]
        assert alignment_score(entries) == 1 - 1 - 1


class TestAlignedEntryFlags:
    """The kind flags are fixed at construction; they must agree with the
    ``left``/``right`` definition they replaced."""

    @pytest.mark.parametrize("left,right", [
        ("A", "A"), ("A", "B"), ("A", None), (None, "B"), (0, 0), ("", None),
    ])
    def test_flags_agree_with_sides(self, left, right):
        entry = AlignedEntry(left, right)
        assert entry.is_match == (left is not None and right is not None)
        assert entry.is_left_only == (right is None)
        assert entry.is_right_only == (left is None)

    def test_flags_of_every_column_of_real_alignments(self):
        for algorithm in ("needleman-wunsch", "hirschberg"):
            for entry in align("ABCDXEF", "ABQDEFGH", algorithm=algorithm).entries:
                assert entry.is_match == (entry.left is not None
                                          and entry.right is not None)
                assert entry.is_left_only == (entry.right is None)
                assert entry.is_right_only == (entry.left is None)

    def test_equality_compares_both_sides(self):
        assert AlignedEntry("A", None) == AlignedEntry("A", None)
        assert AlignedEntry("A", None) != AlignedEntry(None, "A")
        assert AlignedEntry("A", "B") != AlignedEntry("A", "C")
        assert AlignedEntry("A", "B") != ("A", "B")
        with pytest.raises(TypeError):
            hash(AlignedEntry("A", "B"))
