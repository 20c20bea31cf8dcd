"""Static analysis over the repro IR.

A reusable dataflow layer (dominator tree, reachability, def-use chains,
liveness — :mod:`repro.analysis.dataflow`) with per-function result caching,
and three clients built on top of it:

* :mod:`repro.analysis.verifier2` — the dataflow-based verifier: per-opcode
  type checking, dominance-aware def-before-use (including the merged
  functions' *gated* dominance under function-id predicates), CFG pred/succ
  consistency and unreachable-block detection;
* :mod:`repro.analysis.merge_lint` — merge-correctness linting of committed
  merges (thunk signatures, discriminator well-formedness, call-graph
  reconciliation);
* :mod:`repro.analysis.sanitizer` — the ``REPRO_SANITIZE=1`` engine hook
  running both at stage boundaries.

``repro-lint`` (:mod:`repro.analysis.cli`) exposes the stack for offline
workload auditing.
"""

from .dataflow import (AnalysisCache, DefUseChains, DominatorTree,
                       FunctionAnalysis, Liveness)
from .diagnostics import (AnalysisDiagnostic, AnalysisError, errors_of,
                          format_diagnostics, warnings_of)
from .merge_lint import lint_callgraph, lint_commit, lint_module
from .sanitizer import Sanitizer
from .verifier2 import (Verifier, verify_function_v2, verify_module_or_raise,
                        verify_module_v2)

__all__ = [
    "AnalysisCache",
    "AnalysisDiagnostic",
    "AnalysisError",
    "DefUseChains",
    "DominatorTree",
    "FunctionAnalysis",
    "Liveness",
    "Sanitizer",
    "Verifier",
    "errors_of",
    "format_diagnostics",
    "lint_callgraph",
    "lint_commit",
    "lint_module",
    "verify_function_v2",
    "verify_module_or_raise",
    "verify_module_v2",
    "warnings_of",
]
