/* Native Needleman-Wunsch alignment kernel (the "nw-native" tier).
 *
 * Implements the keyed NW DP fill *and* traceback over integer equivalence
 * keys.  The contract is bit-identical output: for any
 * key sequences and scoring scheme, the returned (ops, score) shape equals
 * `ops_string(...)` / score of `needleman_wunsch_keyed` in
 * repro.core.alignment - same tie-breaking included.
 *
 * Tie-breaking is reproduced by construction rather than by re-walking
 * score equalities: the fill records one packed move per cell (uint8),
 * chosen with the exact preference order of the Python traceback - diagonal
 * (match or mismatch) first, then the seq1-gap "up" move, then the seq2-gap
 * "left" move.  A recorded diagonal means diag >= up && diag >= left, which
 * is precisely the condition under which the Python traceback's equality
 * test `score[i][j] == diag` fires; likewise for up vs left.  Mismatch
 * diagonals expand to the forward op pair "l","r", matching
 * `_traceback`'s two one-sided entries.
 *
 * Score arithmetic is int64.  The Python wrapper (repro.core.native) refuses
 * pairs whose worst-case score magnitude could overflow and falls back to
 * the pure kernel, so the C side never needs checked arithmetic.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

/* Packed traceback move codes, one per DP cell (decoded by traceback_ops). */
#define MV_MATCH 0
#define MV_MISMATCH 1
#define MV_UP 2   /* gap in seq2: consumes seq1[i-1], emits 'l' */
#define MV_LEFT 3 /* gap in seq1: consumes seq2[j-1], emits 'r' */

static int64_t *
keys_to_array(PyObject *seq, Py_ssize_t *len_out)
{
    PyObject *fast = PySequence_Fast(seq, "keys must be a sequence");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    int64_t *arr = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (arr == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        int overflow = 0;
        long long value = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (overflow != 0) {
            PyErr_SetString(PyExc_OverflowError,
                            "equivalence key does not fit in int64");
            PyMem_Free(arr);
            Py_DECREF(fast);
            return NULL;
        }
        if (value == -1 && PyErr_Occurred()) {
            PyMem_Free(arr);
            Py_DECREF(fast);
            return NULL;
        }
        arr[i] = (int64_t)value;
    }
    Py_DECREF(fast);
    *len_out = n;
    return arr;
}

static uint8_t *
alloc_moves(Py_ssize_t n, Py_ssize_t m)
{
    if (n > 0 && m > 0 && (size_t)n > (size_t)PY_SSIZE_T_MAX / (size_t)m) {
        PyErr_NoMemory();
        return NULL;
    }
    size_t cells = (size_t)n * (size_t)m;
    uint8_t *moves = PyMem_Malloc(cells > 0 ? cells : 1);
    if (moves == NULL)
        PyErr_NoMemory();
    return moves;
}

/* Decode the packed move matrix into the forward "m"/"l"/"r" op string,
 * walking back from (n, m) exactly as the Python traceback does.  Boundary
 * rows/columns have no recorded moves: i == 0 forces 'r', j == 0 forces
 * 'l', matching the implicit gap runs of the full DP. */
static PyObject *
traceback_ops(const uint8_t *moves, Py_ssize_t n, Py_ssize_t m)
{
    Py_ssize_t cap = n + m;
    char *buf = PyMem_Malloc((size_t)(cap > 0 ? cap : 1));
    if (buf == NULL)
        return PyErr_NoMemory();
    Py_ssize_t p = cap;
    Py_ssize_t i = n, j = m;
    while (i > 0 || j > 0) {
        if (i == 0) {
            buf[--p] = 'r';
            j--;
            continue;
        }
        if (j == 0) {
            buf[--p] = 'l';
            i--;
            continue;
        }
        switch (moves[(size_t)(i - 1) * (size_t)m + (size_t)(j - 1)]) {
        case MV_MATCH:
            buf[--p] = 'm';
            i--;
            j--;
            break;
        case MV_MISMATCH:
            /* the Python traceback appends the right-gap entry, then the
             * left-gap entry, then reverses - forward order "l","r" */
            buf[--p] = 'r';
            buf[--p] = 'l';
            i--;
            j--;
            break;
        case MV_UP:
            buf[--p] = 'l';
            i--;
            break;
        default: /* MV_LEFT */
            buf[--p] = 'r';
            j--;
            break;
        }
    }
    PyObject *ops = PyUnicode_FromStringAndSize(buf + p, cap - p);
    PyMem_Free(buf);
    return ops;
}

/* Full fill over integer keys: rolling two-row scores, one packed move per
 * cell.  Returns 0 and writes the final score; -1 on allocation failure. */
static int
fill_moves_keyed(const int64_t *k1, Py_ssize_t n, const int64_t *k2,
                 Py_ssize_t m, int64_t match, int64_t mismatch, int64_t gap,
                 uint8_t *moves, int64_t *score_out)
{
    int64_t *base = PyMem_Malloc(((size_t)m + 1) * 2 * sizeof(int64_t));
    if (base == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int64_t *prev = base;
    int64_t *cur = base + (m + 1);
    for (Py_ssize_t j = 0; j <= m; j++)
        prev[j] = (int64_t)j * gap;
    for (Py_ssize_t i = 1; i <= n; i++) {
        cur[0] = (int64_t)i * gap;
        const int64_t key = k1[i - 1];
        uint8_t *mrow = moves + (size_t)(i - 1) * (size_t)m;
        for (Py_ssize_t j = 1; j <= m; j++) {
            int is_eq = (key == k2[j - 1]);
            int64_t best = prev[j - 1] + (is_eq ? match : mismatch);
            uint8_t mv = is_eq ? MV_MATCH : MV_MISMATCH;
            int64_t up = prev[j] + gap;
            if (up > best) {
                best = up;
                mv = MV_UP;
            }
            int64_t left = cur[j - 1] + gap;
            if (left > best) {
                best = left;
                mv = MV_LEFT;
            }
            cur[j] = best;
            mrow[j - 1] = mv;
        }
        int64_t *tmp = prev;
        prev = cur;
        cur = tmp;
    }
    *score_out = prev[m];
    PyMem_Free(base);
    return 0;
}

static PyObject *
nw_solve_keyed(PyObject *self, PyObject *args)
{
    PyObject *keys1_obj, *keys2_obj;
    long long match, mismatch, gap;
    if (!PyArg_ParseTuple(args, "OOLLL", &keys1_obj, &keys2_obj, &match,
                          &mismatch, &gap))
        return NULL;
    Py_ssize_t n = 0, m = 0;
    int64_t *k1 = keys_to_array(keys1_obj, &n);
    if (k1 == NULL)
        return NULL;
    int64_t *k2 = keys_to_array(keys2_obj, &m);
    if (k2 == NULL) {
        PyMem_Free(k1);
        return NULL;
    }
    uint8_t *moves = alloc_moves(n, m);
    if (moves == NULL) {
        PyMem_Free(k1);
        PyMem_Free(k2);
        return NULL;
    }
    int64_t score = 0;
    int status;
    Py_BEGIN_ALLOW_THREADS
    status = fill_moves_keyed(k1, n, k2, m, match, mismatch, gap, moves,
                              &score);
    Py_END_ALLOW_THREADS
    PyMem_Free(k1);
    PyMem_Free(k2);
    if (status != 0) {
        PyMem_Free(moves);
        return NULL;
    }
    PyObject *ops = traceback_ops(moves, n, m);
    PyMem_Free(moves);
    if (ops == NULL)
        return NULL;
    return Py_BuildValue("(NL)", ops, (long long)score);
}

static PyMethodDef nw_native_methods[] = {
    {"solve_keyed", nw_solve_keyed, METH_VARARGS,
     "solve_keyed(keys1, keys2, match, mismatch, gap) -> (ops, score)\n\n"
     "Full keyed Needleman-Wunsch: fill + packed traceback, bit-identical\n"
     "to repro.core.alignment.needleman_wunsch_keyed's shape."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef nw_native_module = {
    PyModuleDef_HEAD_INIT,
    "_nw_native",
    "Native keyed Needleman-Wunsch DP (fill + packed traceback),\n"
    "bit-identical to repro.core.alignment.needleman_wunsch_keyed.",
    -1,
    nw_native_methods,
};

PyMODINIT_FUNC
PyInit__nw_native(void)
{
    return PyModule_Create(&nw_native_module);
}
