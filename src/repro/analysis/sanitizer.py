"""Engine-wide sanitizer: verifier + merge lint at stage boundaries.

With ``REPRO_SANITIZE=1`` (or ``sanitize=True`` anywhere in the stack) the
engine routes every structural boundary through one :class:`Sanitizer`:

* after each committed merge (``after_commit``) — verifier v2 over the
  functions the commit touched plus the merge-correctness linter;
* for every candidate the engine costs (``check_merge_cost``) — the
  merged body is built as well, and its cost and parameter count must
  equal what the IR-free counting walk reported;
* at the end of an engine run (``after_run``) — whole-module verification
  and call-graph reconciliation;
* after a session rollback (``after_rollback``) — the restored module must
  re-verify *and* print bit-identically to the shadow copy it was restored
  from.

A violation is always an engine bug, so every check raises
:class:`AnalysisError` carrying the offending diagnostics.  The sanitizer
keeps cheap counters (runs, violations, wall-clock) that the engine folds
into ``MergeReport.scheduler_stats``.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional

from ..ir.callgraph import CallGraph
from ..ir.function import Function
from ..ir.module import Module
from ..ir.printer import function_to_str
from .dataflow import AnalysisCache
from .diagnostics import AnalysisDiagnostic, AnalysisError, error, errors_of
from .merge_lint import lint_commit, lint_module
from .verifier2 import Verifier


class Sanitizer:
    """Runs the analysis stack at engine stage boundaries.

    One instance lives for the duration of an engine and reuses one
    :class:`AnalysisCache`, so repeated checks of untouched functions hit
    cached dataflow results.
    """

    def __init__(self):
        self.cache = AnalysisCache()
        self.verifier = Verifier(cache=self.cache)
        self.runs = 0
        self.violations = 0
        self.wall_seconds = 0.0

    # -- bookkeeping ---------------------------------------------------------
    def invalidate(self, name: str) -> None:
        """Drop cached dataflow results for ``name`` (fired from the same
        seams that invalidate the engine's linearization cache)."""
        self.cache.invalidate(name)

    def _finish(self, diagnostics: List[AnalysisDiagnostic], started: float,
                context: str) -> List[AnalysisDiagnostic]:
        self.runs += 1
        self.wall_seconds += time.perf_counter() - started
        bad = errors_of(diagnostics)
        if bad:
            self.violations += len(bad)
            raise AnalysisError(diagnostics, context=context)
        return diagnostics

    def stats(self) -> dict:
        stats = {
            "sanitize_runs": self.runs,
            "sanitize_violations": self.violations,
            "sanitize_wall_seconds": round(self.wall_seconds, 6),
        }
        stats.update(self.cache.stats())
        return stats

    # -- stage boundaries ----------------------------------------------------
    def after_commit(self, module: Module, result, applied,
                     call_graph: Optional[CallGraph] = None
                     ) -> List[AnalysisDiagnostic]:
        """Verify the functions a commit touched and lint the merge itself."""
        started = time.perf_counter()
        diagnostics: List[AnalysisDiagnostic] = []
        touched = {applied.merged_name}
        touched.update(applied.rewritten_callers)
        for name, disposition in zip((applied.function1, applied.function2),
                                     applied.disposition):
            if disposition == "thunk":
                touched.add(name)
        for name in sorted(touched):
            function = module.get_function(name)
            if function is not None:
                diagnostics.extend(self.verifier.verify_function(function))
        diagnostics.extend(lint_commit(module, result, applied, call_graph))
        return self._finish(diagnostics, started,
                            f"after commit of {applied.merged_name}")

    def check_merge_cost(self, name1: str, name2: str,
                         counted: Optional[tuple], built: Optional[tuple]
                         ) -> List[AnalysisDiagnostic]:
        """Compare a candidate's counted cost with its built one.

        Both are ``(size_merged, merged_param_count)``, or ``None`` when
        code generation raised ``CodegenError``.  The engine costs every
        candidate without building IR; under the sanitizer it also builds
        each one and checks the two agree.
        """
        started = time.perf_counter()
        diagnostics: List[AnalysisDiagnostic] = []
        if counted != built:
            diagnostics.append(error(
                "sanitizer.cost-divergence", name1, name2,
                f"counted merge cost {counted} differs from the cost "
                f"{built} of the built merged body"))
        return self._finish(diagnostics, started,
                            f"cost check of {name1} + {name2}")

    def after_run(self, module: Module,
                  call_graph: Optional[CallGraph] = None
                  ) -> List[AnalysisDiagnostic]:
        """Whole-module check at the end of an engine run."""
        started = time.perf_counter()
        diagnostics = self.verifier.verify_module(module)
        diagnostics.extend(lint_module(module, call_graph))
        return self._finish(diagnostics, started, "after engine run")

    def after_rollback(self, module: Module, shadow: Module,
                       names: Optional[Iterable[str]] = None
                       ) -> List[AnalysisDiagnostic]:
        """Check a session rollback: the restored functions must verify and
        must print bit-identically to the shadow module they were restored
        from.  ``names`` restricts the comparison (defaults to every shadow
        function)."""
        started = time.perf_counter()
        diagnostics: List[AnalysisDiagnostic] = []
        if names is None:
            names = [f.name for f in shadow.functions]
        for name in names:
            want = shadow.get_function(name)
            have = module.get_function(name)
            if want is None:
                continue
            if have is None:
                diagnostics.append(error(
                    "sanitizer.rollback-divergence", name, "module",
                    "function present in the shadow module is missing after "
                    "rollback"))
                continue
            diagnostics.extend(self.verifier.verify_function(have))
            if _render(have) != _render(want):
                diagnostics.append(error(
                    "sanitizer.rollback-divergence", name, "body",
                    "rolled-back body is not bit-identical to the shadow "
                    "module"))
        return self._finish(diagnostics, started, "after session rollback")


def _render(function: Function) -> str:
    if function.is_declaration:
        return f"declare {function.name}"
    return function_to_str(function)

