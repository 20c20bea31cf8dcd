"""Sequence alignment (Section III-C of the paper).

The aligner is generic: it works over any two Python sequences plus an
equivalence predicate, which lets the same code align linearized IR entries
(the real use), plain strings (tests) or anything else.

Algorithms provided:

* :func:`needleman_wunsch` — the paper's choice: optimal global alignment by
  dynamic programming, O(n·m) time and space.
* :func:`hirschberg` — the same optimal score in O(n·m) time but linear
  space, provided as the memory-friendly alternative the paper alludes to
  ("other algorithms could also be used with different performance and memory
  usage trade-offs").
* :func:`needleman_wunsch_keyed` — the fast kernel over precomputed integer
  equivalence keys (see :mod:`repro.core.equivalence`); the per-cell
  predicate becomes an int compare and equal keys share memoised
  equivalence rows.
* :func:`align` — front door choosing an algorithm by name.

The result is a list of :class:`AlignedEntry`.  Mismatched (diagonal but
non-equivalent) positions are expanded into two one-sided entries so that
consumers only ever see *matches* and *gaps*, which mirrors how the merger's
code generator treats non-equivalent code (guarded by the function
identifier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

EquivalenceFn = Callable[[T, T], bool]


@dataclass(frozen=True)
class ScoringScheme:
    """Scoring weights for matches, mismatches and gaps.

    The paper uses "a standard scoring scheme ... that rewards matches and
    equally penalizes mismatches and gaps"; those are the defaults here.
    """

    match: int = 1
    mismatch: int = -1
    gap: int = -1

    def __post_init__(self):
        if self.match <= 0:
            raise ValueError("match score must be positive")


class AlignedEntry(Generic[T]):
    """One column of the alignment: a matched pair or a one-sided gap.

    The kind flags are fixed at construction; nothing reassigns ``left`` or
    ``right`` afterwards.
    """

    __slots__ = ("left", "right", "is_match", "is_left_only", "is_right_only")

    def __init__(self, left: Optional[T], right: Optional[T]):
        self.left = left
        self.right = right
        self.is_left_only = right is None
        self.is_right_only = left is None
        self.is_match = left is not None and right is not None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.left, self.right) == (other.left, other.right)  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "match" if self.is_match else ("left" if self.is_left_only else "right")
        return f"<AlignedEntry {kind}>"


class AlignmentResult(Generic[T]):
    """Alignment plus its score and simple quality statistics."""

    def __init__(self, entries: List[AlignedEntry[T]], score: int):
        self.entries = entries
        self.score = score

    @property
    def match_count(self) -> int:
        return sum(1 for e in self.entries if e.is_match)

    @property
    def gap_count(self) -> int:
        return sum(1 for e in self.entries if not e.is_match)

    def match_ratio(self) -> float:
        """Fraction of alignment columns that are matches (0 when empty)."""
        if not self.entries:
            return 0.0
        return self.match_count / len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _default_equivalence(a: T, b: T) -> bool:
    return a == b


def ops_string(entries: List[AlignedEntry[T]]) -> str:
    """Serialize alignment columns to the compact ``m``/``l``/``r`` op
    string (match / left-gap / right-gap per column).

    The op string plus the score is an alignment's *shape* - everything the
    DP decided, with no references to the concrete sequence elements.  It is
    the currency of the content-addressed alignment cache (a hit rehydrates
    the stored shape against the requesting pair's entry lists).
    """
    return "".join(
        "m" if e.is_match else ("l" if e.is_left_only else "r")
        for e in entries)


def result_from_ops(ops: str, score: int, seq1: Sequence[T],
                    seq2: Sequence[T]) -> AlignmentResult[T]:
    """Rebuild an :class:`AlignmentResult` for a concrete pair from its
    shape (op string + score): the inverse of :func:`ops_string`.

    This is how cached and native alignments come back to life:
    the shape carries everything the DP decided, the sequences supply the
    concrete elements.  Raises ValueError when the ops are not over the
    ``m``/``l``/``r`` alphabet or do not consume the sequences exactly (a
    corrupt or mismatched shape).
    """
    entries: List[AlignedEntry[T]] = []
    i = j = 0
    for op in ops:
        if op == "m":
            entries.append(AlignedEntry(seq1[i], seq2[j]))
            i += 1
            j += 1
        elif op == "l":
            entries.append(AlignedEntry(seq1[i], None))
            i += 1
        elif op == "r":
            entries.append(AlignedEntry(None, seq2[j]))
            j += 1
        else:
            raise ValueError(f"unknown alignment op {op!r} in shape")
    if i != len(seq1) or j != len(seq2):
        raise ValueError("alignment shape does not cover the sequences "
                         f"({i}/{len(seq1)}, {j}/{len(seq2)})")
    return AlignmentResult(entries, score)


# -- packed tracebacks -------------------------------------------------------
#
# The fast fills (native C, packed NumPy) do not keep the score
# matrix for a Python traceback; they record one *move* per DP cell in a
# uint8 matrix, chosen during the fill with the exact preference order of
# :func:`_traceback` (diagonal - match or mismatch - then the seq1-side gap,
# then the seq2-side gap).  That is ~8x less peak memory than the int64
# score matrix, and the decode below is shared by every packed backend so
# tie-breaking is defined in exactly one place.

#: Packed move codes (shared with ``_nw_native.c``).
MOVE_MATCH = 0
MOVE_MISMATCH = 1
MOVE_UP = 2    #: gap in seq2 - consumes seq1[i-1], emits ``l``
MOVE_LEFT = 3  #: gap in seq1 - consumes seq2[j-1], emits ``r``


def moves_to_ops(moves, n: int, m: int) -> str:
    """Decode a packed ``(n, m)`` move matrix into the forward op string.

    ``moves[i][j]`` (0-based) is the move recorded for DP cell
    ``(i+1, j+1)``; boundary cells have no recorded move (``i == 0`` forces
    ``r``, ``j == 0`` forces ``l``, the implicit gap runs of the DP).
    Mismatch diagonals expand to ``l`` then ``r`` in forward order,
    mirroring :func:`_traceback`'s two one-sided entries.
    """
    out: List[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i == 0:
            out.append("r")
            j -= 1
            continue
        if j == 0:
            out.append("l")
            i -= 1
            continue
        move = moves[i - 1][j - 1]
        if move == MOVE_MATCH:
            out.append("m")
            i -= 1
            j -= 1
        elif move == MOVE_MISMATCH:
            out.append("r")
            out.append("l")
            i -= 1
            j -= 1
        elif move == MOVE_UP:
            out.append("l")
            i -= 1
        else:
            out.append("r")
            j -= 1
    out.reverse()
    return "".join(out)


# ---------------------------------------------------------------------------
# Needleman-Wunsch
# ---------------------------------------------------------------------------

def needleman_wunsch(seq1: Sequence[T], seq2: Sequence[T],
                     equivalent: EquivalenceFn = _default_equivalence,
                     scoring: ScoringScheme = ScoringScheme()) -> AlignmentResult[T]:
    """Optimal global alignment via the Needleman-Wunsch DP.

    Builds the full (n+1)x(m+1) similarity matrix, then traces back from the
    bottom-right corner maximising the total score.  Diagonal moves over
    non-equivalent elements (mismatches) are emitted as two one-sided
    entries; see the module docstring.
    """
    n, m = len(seq1), len(seq2)
    # memoise pairwise equivalence (the predicate can be expensive for IR)
    eq_row = [[False] * m for _ in range(n)]
    for i in range(n):
        a = seq1[i]
        row = eq_row[i]
        for j in range(m):
            row[j] = equivalent(a, seq2[j])
    score = _nw_fill(n, m, eq_row, scoring)
    entries = _traceback(seq1, seq2, score, eq_row, scoring)
    return AlignmentResult(entries, score[n][m])


def _keyed_eq_rows(keys1: Sequence[int], keys2: Sequence[int]) -> List[List[bool]]:
    """Equivalence rows from integer keys; rows are shared between equal keys
    (a linearized function typically has far fewer distinct keys than
    entries, so this computes u·m int compares instead of n·m)."""
    cache: dict = {}
    rows: List[List[bool]] = []
    for key in keys1:
        row = cache.get(key)
        if row is None:
            row = [key == other for other in keys2]
            cache[key] = row
        rows.append(row)
    return rows


def needleman_wunsch_keyed(seq1: Sequence[T], seq2: Sequence[T],
                           keys1: Sequence[int], keys2: Sequence[int],
                           scoring: ScoringScheme = ScoringScheme()) -> AlignmentResult[T]:
    """Needleman-Wunsch over precomputed equivalence keys.

    ``keys1[i] == keys2[j]`` must hold exactly when ``seq1[i]`` and
    ``seq2[j]`` are equivalent; the result is then identical (entries and
    score) to :func:`needleman_wunsch` with the corresponding predicate.
    """
    n, m = len(seq1), len(seq2)
    eq_row = _keyed_eq_rows(keys1, keys2)
    score = _nw_fill(n, m, eq_row, scoring)
    entries = _traceback(seq1, seq2, score, eq_row, scoring)
    return AlignmentResult(entries, score[n][m])


def _nw_fill(n: int, m: int, eq_row, scoring: ScoringScheme):
    """Fill the full (n+1)x(m+1) NW score matrix from equivalence rows."""
    gap = scoring.gap
    match, mismatch = scoring.match, scoring.mismatch
    score = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        score[i][0] = i * gap
    row0 = score[0]
    for j in range(1, m + 1):
        row0[j] = j * gap
    for i in range(1, n + 1):
        prev_row = score[i - 1]
        row = score[i]
        eqs = eq_row[i - 1]
        for j in range(1, m + 1):
            diag = prev_row[j - 1] + (match if eqs[j - 1] else mismatch)
            up = prev_row[j] + gap
            left = row[j - 1] + gap
            best = diag
            if up > best:
                best = up
            if left > best:
                best = left
            row[j] = best
    return score


def _traceback(seq1: Sequence[T], seq2: Sequence[T], score, eq_row,
               scoring: ScoringScheme) -> List[AlignedEntry[T]]:
    gap = scoring.gap
    entries: List[AlignedEntry[T]] = []
    i, j = len(seq1), len(seq2)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            is_eq = eq_row[i - 1][j - 1]
            diag_score = score[i - 1][j - 1] + (scoring.match if is_eq else scoring.mismatch)
            if score[i][j] == diag_score:
                if is_eq:
                    entries.append(AlignedEntry(seq1[i - 1], seq2[j - 1]))
                else:
                    # expand a mismatch into two one-sided entries
                    entries.append(AlignedEntry(None, seq2[j - 1]))
                    entries.append(AlignedEntry(seq1[i - 1], None))
                i -= 1
                j -= 1
                continue
        if i > 0 and score[i][j] == score[i - 1][j] + gap:
            entries.append(AlignedEntry(seq1[i - 1], None))
            i -= 1
            continue
        # must be a left gap
        entries.append(AlignedEntry(None, seq2[j - 1]))
        j -= 1
    entries.reverse()
    return entries


# ---------------------------------------------------------------------------
# Hirschberg (linear space, same optimal score)
# ---------------------------------------------------------------------------

def _nw_score_lastrow(seq1: Sequence[T], seq2: Sequence[T],
                      equivalent: EquivalenceFn,
                      scoring: ScoringScheme) -> List[int]:
    """Last row of the NW score matrix, computed in O(m) space."""
    gap = scoring.gap
    m = len(seq2)
    prev = [j * gap for j in range(m + 1)]
    for i in range(1, len(seq1) + 1):
        cur = [i * gap] + [0] * m
        a = seq1[i - 1]
        for j in range(1, m + 1):
            diag = prev[j - 1] + (scoring.match if equivalent(a, seq2[j - 1]) else scoring.mismatch)
            up = prev[j] + gap
            left = cur[j - 1] + gap
            cur[j] = max(diag, up, left)
        prev = cur
    return prev


def hirschberg(seq1: Sequence[T], seq2: Sequence[T],
               equivalent: EquivalenceFn = _default_equivalence,
               scoring: ScoringScheme = ScoringScheme()) -> AlignmentResult[T]:
    """Hirschberg's divide-and-conquer alignment: optimal score, linear space.

    The optimal score is threaded out of the divide-and-conquer itself: at
    every split the best combined forward/backward last-row value *is* the
    optimal score of the subproblem, so no extra full-sequence scoring pass
    is needed.  (A naive per-entry rescoring would differ anyway, because
    mismatch columns are expanded into gap pairs.)
    """

    def solve(s1: Sequence[T], s2: Sequence[T]) -> Tuple[List[AlignedEntry[T]], int]:
        if len(s1) == 0:
            return [AlignedEntry(None, b) for b in s2], len(s2) * scoring.gap
        if len(s2) == 0:
            return [AlignedEntry(a, None) for a in s1], len(s1) * scoring.gap
        if len(s1) == 1 or len(s2) == 1:
            result = needleman_wunsch(s1, s2, equivalent, scoring)
            return result.entries, result.score
        mid = len(s1) // 2
        score_left = _nw_score_lastrow(s1[:mid], s2, equivalent, scoring)
        score_right = _nw_score_lastrow(list(reversed(s1[mid:])), list(reversed(s2)),
                                        equivalent, scoring)
        # find the split point of seq2 maximising the combined score
        best_j, best_val = 0, None
        m = len(s2)
        for j in range(m + 1):
            val = score_left[j] + score_right[m - j]
            if best_val is None or val > best_val:
                best_val = val
                best_j = j
        left_entries, _ = solve(s1[:mid], s2[:best_j])
        right_entries, _ = solve(s1[mid:], s2[best_j:])
        # best_val is the optimum for (s1, s2): the two halves sum to it
        return left_entries + right_entries, best_val

    entries, score = solve(list(seq1), list(seq2))
    return AlignmentResult(entries, score)


def alignment_score(entries: List[AlignedEntry[T]],
                    equivalent: EquivalenceFn = _default_equivalence,
                    scoring: ScoringScheme = ScoringScheme()) -> int:
    """Score an existing alignment under a scoring scheme.

    Since mismatches are expanded into gap pairs by construction, columns are
    either matches (both sides present and equivalent) or gaps.
    """
    total = 0
    for entry in entries:
        if entry.is_match:
            total += scoring.match if equivalent(entry.left, entry.right) else scoring.mismatch
        else:
            total += scoring.gap
    return total


def _nw_numpy(seq1: Sequence[T], seq2: Sequence[T],
              equivalent: EquivalenceFn = _default_equivalence,
              scoring: ScoringScheme = ScoringScheme()) -> AlignmentResult[T]:
    """Registry thunk for the NumPy backend (:mod:`repro.core.align_np`).

    Importing :mod:`repro.core.alignment` must not import NumPy - the
    vectorized kernel lives behind the optional ``fast`` extra - so the
    registry holds this late-binding wrapper; calling it without NumPy
    raises an ImportError naming the extra.
    """
    from . import align_np
    return align_np.needleman_wunsch_numpy(seq1, seq2, equivalent, scoring)


def _nw_native(seq1: Sequence[T], seq2: Sequence[T],
               equivalent: EquivalenceFn = _default_equivalence,
               scoring: ScoringScheme = ScoringScheme()) -> AlignmentResult[T]:
    """Registry thunk for the C-extension backend (:mod:`repro.core.native`).

    Same late-binding discipline as :func:`_nw_numpy`: importing this module
    never imports (or builds) the extension; calling the thunk without it
    raises an ImportError naming the build requirements.
    """
    from . import native
    return native.needleman_wunsch_native(seq1, seq2, equivalent, scoring)


#: Registry of alignment algorithms: the predicate-based references and one
#: Needleman-Wunsch per backend tier.  ``nw-numpy`` requires the optional
#: ``fast`` extra (NumPy), ``nw-native`` the ``_nw_native`` C extension
#: (built with the ``fast`` extra when a compiler is present, or on
#: demand); both produce bit-identical results to ``needleman-wunsch``.
ALGORITHMS = {
    "needleman-wunsch": needleman_wunsch,
    "nw": needleman_wunsch,
    "hirschberg": hirschberg,
    "nw-numpy": _nw_numpy,
    "nw-native": _nw_native,
}


def align(seq1: Sequence[T], seq2: Sequence[T],
          equivalent: EquivalenceFn = _default_equivalence,
          scoring: ScoringScheme = ScoringScheme(),
          algorithm: str = "needleman-wunsch") -> AlignmentResult[T]:
    """Align two sequences with the named algorithm."""
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(f"unknown alignment algorithm {algorithm!r}; "
                         f"available: {sorted(set(ALGORITHMS))}") from None
    return fn(seq1, seq2, equivalent, scoring)
