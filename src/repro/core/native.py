"""Native (C extension) Needleman-Wunsch kernels: the ``nw-native`` tier.

The DP fill *and* traceback run inside :mod:`repro.core._nw_native`, a
dependency-free CPython extension compiled from ``_nw_native.c``.  The
contract is the same as for the NumPy backend - *bit-identical output* to
the pure-Python kernels (entries, scores and op strings, tie-breaking
included) - but the fill is a plain C loop over ``int64`` scores with a
packed ``uint8`` move matrix, roughly an order of magnitude faster than the
row-vectorized NumPy fill and ~8x leaner than a full score matrix held for
the Python traceback.

Availability is best-effort, never load-bearing:

1. an installed extension (``pip install repro[fast]`` with a C compiler
   present builds it via ``setup.py``; the build is marked *optional*, so a
   missing compiler degrades the install instead of failing it);
2. otherwise a **build-on-demand** path compiles ``_nw_native.c`` with the
   system C compiler into a per-user cache directory and loads the shared
   object from there (sub-second, happens once per source revision);
3. otherwise - no compiler, sandboxed filesystem, exotic platform - the
   native tier is simply unavailable: :func:`native_available` returns
   False, explicit requests raise an ImportError naming the build
   requirements, and environment-variable requests downgrade to the NumPy
   or pure-Python kernels with a warning (see
   ``repro.core.engine.stages.resolve_alignment_kernel``).

Setting ``REPRO_NATIVE=0`` disables the native tier outright (CI uses this
to pin the compiler-less degradation path); ``REPRO_NATIVE_BUILD_DIR``
overrides the build cache directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
import tempfile
from typing import List, Optional, Sequence, TypeVar

from .alignment import (AlignmentResult, EquivalenceFn, ScoringScheme,
                        _default_equivalence, needleman_wunsch_keyed,
                        result_from_ops)

T = TypeVar("T")

#: Kernel names served by this module.
NATIVE_KERNELS = ("nw-native",)

#: Env knob disabling the native tier ("0"/"off"/"no"/"false", any case).
NATIVE_ENV = "REPRO_NATIVE"

#: Env knob overriding the build-on-demand cache directory.
NATIVE_BUILD_DIR_ENV = "REPRO_NATIVE_BUILD_DIR"

#: Pure-Python algorithm each native kernel downgrades to (identical
#: results); when NumPy is available the resolver prefers its tier instead
#: (see :func:`native_fallback`).
PURE_PYTHON_FALLBACKS = {"nw-native": "needleman-wunsch"}

#: NumPy twin of each native kernel, preferred for the downgrade when the
#: ``fast`` extra is installed.
NUMPY_FALLBACKS = {"nw-native": "nw-numpy"}

_native = None  # unresolved; False once loading failed (or was disabled)
_load_error: Optional[str] = None

#: Largest worst-case |score| the C kernels may see; the int64 fill has no
#: overflow checks, so pairs that could exceed this fall back to the
#: arbitrary-precision pure kernels.  (Default weights need sequences of
#: ~10**18 entries to get anywhere near it.)
_SCORE_LIMIT = 2 ** 62


def _disabled_by_env() -> bool:
    value = os.environ.get(NATIVE_ENV, "").strip().lower()
    return value in ("0", "off", "no", "false")


def _find_compiler() -> Optional[str]:
    import shutil
    cc = os.environ.get("CC")
    if cc and shutil.which(cc.split()[0]):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _build_dir() -> str:
    override = os.environ.get(NATIVE_BUILD_DIR_ENV)
    if override:
        os.makedirs(override, exist_ok=True)
        return override
    uid = os.getuid() if hasattr(os, "getuid") else "all"
    path = os.path.join(tempfile.gettempdir(), f"repro-nw-native-{uid}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    return path


def _build_on_demand():
    """Compile ``_nw_native.c`` with the system compiler and load the result.

    The output filename carries a hash of the source and the ABI-unique
    ``EXT_SUFFIX`` (e.g. ``.cpython-311-x86_64-linux-gnu.so``), so a cached
    build is reused only for the exact source revision and interpreter ABI
    that produced it; the write is a tmp-file + ``os.replace`` so concurrent
    builders race benignly.
    """
    import hashlib
    import importlib.util

    src = os.path.join(os.path.dirname(__file__), "_nw_native.c")
    with open(src, "rb") as handle:
        source = handle.read()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.blake2b(source, digest_size=8).hexdigest()
    out = os.path.join(_build_dir(), f"_nw_native-{digest}{suffix}")
    if not os.path.exists(out):
        cc = _find_compiler()
        if cc is None:
            raise RuntimeError("no C compiler found (tried $CC, cc, gcc, "
                               "clang)")
        include = sysconfig.get_path("include")
        cmd = cc.split() + ["-O2", "-fPIC", "-shared"]
        if sys.platform == "darwin":
            cmd += ["-undefined", "dynamic_lookup"]
        tmp = f"{out}.tmp.{os.getpid()}"
        cmd += [f"-I{include}", src, "-o", tmp]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise RuntimeError(
                f"C compiler failed ({' '.join(cmd[:1])} exit "
                f"{proc.returncode}): {proc.stderr.strip()[:500]}")
        os.replace(tmp, out)
    spec = importlib.util.spec_from_file_location("repro.core._nw_native",
                                                  out)
    if spec is None or spec.loader is None:
        raise RuntimeError(f"cannot load built extension from {out}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_native():
    """Load the C extension once, caching failure as well as success."""
    global _native, _load_error
    if _native is None:
        if _disabled_by_env():
            _native = False
            _load_error = f"disabled via {NATIVE_ENV}"
            return None
        try:
            from . import _nw_native as module  # type: ignore[attr-defined]
            _native = module
            return _native
        except ImportError:
            pass
        try:
            _native = _build_on_demand()
        except Exception as exc:  # noqa: BLE001 - any failure means "absent"
            _native = False
            _load_error = str(exc)
    return _native if _native else None


def native_available() -> bool:
    """True when the native alignment kernels can actually run."""
    return _load_native() is not None


def require_native(kernel: str):
    """Return the extension module or raise an ImportError naming the build
    requirements (mirrors :func:`repro.core.align_np.require_numpy`)."""
    module = _load_native()
    if module is None:
        detail = f" ({_load_error})" if _load_error else ""
        raise ImportError(
            f"alignment kernel {kernel!r} requires the repro._nw_native C "
            f"extension, which is not available{detail}; install with a C "
            f"compiler present (pip install repro[fast]) or select the "
            f"{NUMPY_FALLBACKS.get(kernel, 'nw-numpy')!r} / "
            f"{PURE_PYTHON_FALLBACKS.get(kernel, 'needleman-wunsch')!r} "
            f"kernels instead")
    return module


def native_fallback(kernel: str) -> str:
    """Best still-available kernel to downgrade an env-requested native
    kernel to: the NumPy twin when the ``fast`` extra is importable, else
    the pure-Python algorithm.  Results are bit-identical either way."""
    from .align_np import numpy_available
    if numpy_available():
        return NUMPY_FALLBACKS.get(kernel, "nw-numpy")
    return PURE_PYTHON_FALLBACKS.get(kernel, "needleman-wunsch")


def _fits_native(n: int, m: int, scoring: ScoringScheme) -> bool:
    """Worst-case |score| bound check for the unchecked int64 C fill."""
    heaviest = max(abs(scoring.match), abs(scoring.mismatch),
                   abs(scoring.gap))
    return heaviest * (n + m + 2) < _SCORE_LIMIT


def _as_key_list(keys: Sequence[int]) -> List[int]:
    return keys if isinstance(keys, list) else list(keys)


# ---------------------------------------------------------------------------
# Keyed kernels (the hot path: integer equivalence keys in, shape out)
# ---------------------------------------------------------------------------

def needleman_wunsch_native_keyed(seq1: Sequence[T], seq2: Sequence[T],
                                  keys1: Sequence[int], keys2: Sequence[int],
                                  scoring: ScoringScheme = ScoringScheme()
                                  ) -> AlignmentResult[T]:
    """Native NW over integer equivalence keys; identical entries and score
    to :func:`~repro.core.alignment.needleman_wunsch_keyed`.

    Keys or scores that cannot live in int64 (never the case for interned
    keys and sane scoring weights) fall back to the pure kernel.
    """
    native = require_native("nw-native")
    n, m = len(seq1), len(seq2)
    if not _fits_native(n, m, scoring):
        return needleman_wunsch_keyed(seq1, seq2, keys1, keys2, scoring)
    try:
        ops, score = native.solve_keyed(_as_key_list(keys1),
                                        _as_key_list(keys2),
                                        scoring.match, scoring.mismatch,
                                        scoring.gap)
    except (OverflowError, TypeError):
        return needleman_wunsch_keyed(seq1, seq2, keys1, keys2, scoring)
    return result_from_ops(ops, score, seq1, seq2)


# ---------------------------------------------------------------------------
# Generic predicate front doors (registry entries)
# ---------------------------------------------------------------------------

def needleman_wunsch_native(seq1: Sequence[T], seq2: Sequence[T],
                            equivalent: EquivalenceFn = _default_equivalence,
                            scoring: ScoringScheme = ScoringScheme()
                            ) -> AlignmentResult[T]:
    """Native NW behind the generic predicate interface.

    The predicate sweep still happens in Python (n*m calls, same as the
    pure kernel); only the DP fill and traceback run natively, over a
    packed equivalence byte matrix.
    """
    native = require_native("nw-native")
    n, m = len(seq1), len(seq2)
    if not _fits_native(n, m, scoring):
        from .alignment import needleman_wunsch
        return needleman_wunsch(seq1, seq2, equivalent, scoring)
    eq = bytearray(n * m)
    pos = 0
    for i in range(n):
        a = seq1[i]
        for b in seq2:
            if equivalent(a, b):
                eq[pos] = 1
            pos += 1
    ops, score = native.solve_matrix(bytes(eq), n, m, scoring.match,
                                     scoring.mismatch, scoring.gap)
    return result_from_ops(ops, score, seq1, seq2)


# ---------------------------------------------------------------------------
# Dispatch tables
# ---------------------------------------------------------------------------

#: Keyed kernels by algorithm name, for the AlignmentStage dispatch table.
KEYED_NATIVE_KERNELS = {"nw-native": needleman_wunsch_native_keyed}
