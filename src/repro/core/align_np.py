"""NumPy-vectorized Needleman-Wunsch kernels (the ``nw-numpy`` tier).

The pure-Python kernels in :mod:`repro.core.alignment` fill the DP matrix
one cell at a time.  Scores in a Needleman-Wunsch row depend on the previous
row (diagonal and up moves) and, within the row, only through runs of gap
moves - so a whole row can be computed with three vectorized steps:

1. ``cand = max(prev[:-1] + sub, prev[1:] + gap)`` - the diagonal and up
   moves, elementwise over the row;
2. the in-row gap closure ``row[j] = max_{k <= j} cand[k] + (j - k) * gap``,
   which is a running maximum of ``cand - j*gap`` (``np.maximum.accumulate``)
   shifted back by ``+ j*gap``;
3. nothing else - step 2 already includes ``k = j`` (no gap moves).

Equivalence comes in as boolean rows over the precomputed integer
equivalence keys (see :mod:`repro.core.equivalence`) for the keyed kernels,
or predicate evaluations for the generic front door.  The fill uses a
**packed traceback**: instead of keeping the whole int64 score matrix
alive for a Python traceback, each row records one ``uint8`` move per cell
(~8x less peak memory), chosen with the exact equality tests the
pure-Python traceback would apply to the same integers - so entries and
tie-breaking are bit-identical to
:func:`~repro.core.alignment.needleman_wunsch` by construction.  The moves
are decoded by the shared :func:`repro.core.alignment.moves_to_ops`
routine (one tie-breaking definition for every packed backend, native C
included).

NumPy is an optional dependency (the ``fast`` extra).  Importing this module
never imports NumPy; the kernels import it lazily on first use and raise an
:class:`ImportError` naming the extra when it is missing.  Callers that want
a silent downgrade instead (e.g. the ``REPRO_ALIGN_KERNEL`` environment
knob) can test :func:`numpy_available` first - the engine's
``AlignmentStage`` does exactly that.

A practical note on when the vectorized kernels pay off: each row costs a
handful of NumPy calls, so for tiny sequences (tens of entries) the
per-call overhead can eat the win; for the hundreds-of-entries functions
where alignment time actually hurts, the O(m)-wide vector operations beat
the pure-Python inner loop by an order of magnitude.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .alignment import (AlignmentResult, EquivalenceFn, ScoringScheme,
                        MOVE_LEFT, MOVE_MATCH, MOVE_MISMATCH, MOVE_UP,
                        _default_equivalence, moves_to_ops,
                        needleman_wunsch_keyed, result_from_ops)

T = TypeVar("T")

#: Kernel names served by this module.
NUMPY_KERNELS = ("nw-numpy",)

#: Pure-Python algorithm each NumPy kernel downgrades to (identical results).
PURE_PYTHON_FALLBACKS = {"nw-numpy": "needleman-wunsch"}

_numpy = None  # unresolved; False once an import attempt failed


def _import_numpy():
    """Import NumPy once, caching the failure as well as the success."""
    global _numpy
    if _numpy is None:
        try:
            import numpy
        except ImportError:
            _numpy = False
        else:
            _numpy = numpy
    return _numpy if _numpy else None


def numpy_available() -> bool:
    """True when the NumPy backend can actually run."""
    return _import_numpy() is not None


def require_numpy(kernel: str):
    """Return the NumPy module or raise an ImportError naming the extra."""
    np = _import_numpy()
    if np is None:
        raise ImportError(
            f"alignment kernel {kernel!r} requires NumPy, which is not "
            f"installed; install the 'fast' extra (pip install repro[fast]) "
            f"or select a pure-Python kernel such as "
            f"{PURE_PYTHON_FALLBACKS.get(kernel, 'needleman-wunsch')!r}")
    return np


# ---------------------------------------------------------------------------
# Full-matrix fill
# ---------------------------------------------------------------------------

def _nw_fill_moves_numpy(np, n: int, m: int, eq_row_of,
                         scoring: ScoringScheme):
    """Vectorized NW fill with a packed traceback: two rolling int64 rows
    plus a ``uint8`` move per cell instead of the full score matrix.

    ``eq_row_of(i)`` returns the boolean equivalence row of ``seq1[i]``
    against all of ``seq2`` (0-based).  The recorded move per cell is
    decided by the same equality tests the pure-Python traceback applies -
    diagonal first (``row == prev_diag + sub``), then the seq1-side gap
    (``row == prev + gap``), else the seq2-side gap - so decoding the moves
    with :func:`~repro.core.alignment.moves_to_ops` reproduces
    ``_traceback`` exactly.  Returns ``(moves, score)``.
    """
    gap, match, mismatch = scoring.gap, scoring.match, scoring.mismatch
    gj = np.arange(m + 1, dtype=np.int64) * gap
    prev = gj.copy()
    row = np.empty(m + 1, dtype=np.int64)
    moves = np.empty((n, m), dtype=np.uint8)
    for i in range(1, n + 1):
        eq = eq_row_of(i - 1)
        sub = np.where(eq, np.int64(match), np.int64(mismatch))
        diag = prev[:m] + sub
        up = prev[1:] + gap
        # diagonal and up candidates, then the in-row gap closure
        # row[j] = gj[j] + cummax(row - gj)[j]
        np.maximum(diag, up, out=row[1:])
        row[0] = i * gap
        np.subtract(row, gj, out=row)
        np.maximum.accumulate(row, out=row)
        np.add(row, gj, out=row)
        # the traceback's move decision, made at fill time: diagonal wins
        # ties, then the seq1-side gap, else the seq2-side (in-row) gap
        final = row[1:]
        moves[i - 1] = np.where(
            final == diag,
            np.where(eq, np.uint8(MOVE_MATCH), np.uint8(MOVE_MISMATCH)),
            np.where(final == up, np.uint8(MOVE_UP), np.uint8(MOVE_LEFT)))
        prev, row = row, prev
    return moves, int(prev[m])


def _int_keys(np, keys: Sequence[int]):
    """Keys as an int64 array, or None when they do not fit (falls back to
    the pure-Python kernel; interned keys always fit in practice)."""
    try:
        arr = np.asarray(keys if isinstance(keys, (list, tuple)) else list(keys),
                         dtype=np.int64)
    except (OverflowError, ValueError, TypeError):
        return None
    return arr


def needleman_wunsch_numpy_keyed(seq1: Sequence[T], seq2: Sequence[T],
                                 keys1: Sequence[int], keys2: Sequence[int],
                                 scoring: ScoringScheme = ScoringScheme()
                                 ) -> AlignmentResult[T]:
    """Vectorized NW over integer equivalence keys; identical entries and
    score to :func:`~repro.core.alignment.needleman_wunsch_keyed`."""
    np = require_numpy("nw-numpy")
    k1 = _int_keys(np, keys1)
    k2 = _int_keys(np, keys2)
    if k1 is None or k2 is None:
        return needleman_wunsch_keyed(seq1, seq2, keys1, keys2, scoring)
    n, m = len(seq1), len(seq2)
    moves, score = _nw_fill_moves_numpy(np, n, m, lambda i: k1[i] == k2,
                                        scoring)
    return result_from_ops(moves_to_ops(moves, n, m), score, seq1, seq2)


def needleman_wunsch_numpy(seq1: Sequence[T], seq2: Sequence[T],
                           equivalent: EquivalenceFn = _default_equivalence,
                           scoring: ScoringScheme = ScoringScheme()
                           ) -> AlignmentResult[T]:
    """Vectorized NW behind the generic predicate interface.

    The predicate is still evaluated n*m times (same as the pure kernel);
    only the DP arithmetic is vectorized.  Prefer the keyed variant, which
    replaces the predicate sweep with per-row key compares.
    """
    np = require_numpy("nw-numpy")
    n, m = len(seq1), len(seq2)
    eq = np.empty((n, m), dtype=bool)
    for i in range(n):
        a = seq1[i]
        eq[i] = [equivalent(a, b) for b in seq2]
    moves, score = _nw_fill_moves_numpy(np, n, m, lambda i: eq[i], scoring)
    return result_from_ops(moves_to_ops(moves, n, m), score, seq1, seq2)


#: Keyed kernels by algorithm name, for the AlignmentStage dispatch table.
KEYED_NUMPY_KERNELS = {"nw-numpy": needleman_wunsch_numpy_keyed}
