"""Structured diagnostics for the static-analysis layer.

Everything the analysis package reports — verifier v2 findings, merge-lint
violations, sanitizer failures — is an :class:`AnalysisDiagnostic`: a small
frozen record with a severity, a dotted rule id, and a location.  Tools can
filter by rule or severity, serialize to JSON (``repro-lint --json``), or
render the classic one-line-per-finding text form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

#: Diagnostic severities, most severe first.  ``error`` findings fail
#: ``verify_module_or_raise`` and the sanitizer; ``warning`` findings are
#: reported but never fatal (e.g. unreachable-but-well-formed blocks).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class AnalysisDiagnostic:
    """One analysis finding.

    ``rule`` is a stable dotted identifier (``"verifier.use-before-def"``,
    ``"mergelint.thunk-arity"``, ...) so callers can assert on or suppress
    specific findings without string-matching messages.
    """

    severity: str
    rule: str
    function: str
    location: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:  # pragma: no cover - defensive
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def format(self) -> str:
        where = self.function or "<module>"
        if self.location:
            where = f"{where}/{self.location}"
        return f"{self.severity}: [{self.rule}] {where}: {self.message}"

    def to_dict(self) -> Dict[str, str]:
        return {
            "severity": self.severity,
            "rule": self.rule,
            "function": self.function,
            "location": self.location,
            "message": self.message,
        }


def error(rule: str, function: str, location: str, message: str) -> AnalysisDiagnostic:
    return AnalysisDiagnostic("error", rule, function, location, message)


def warning(rule: str, function: str, location: str, message: str) -> AnalysisDiagnostic:
    return AnalysisDiagnostic("warning", rule, function, location, message)


def errors_of(diagnostics: Iterable[AnalysisDiagnostic]) -> List[AnalysisDiagnostic]:
    return [d for d in diagnostics if d.is_error]


def warnings_of(diagnostics: Iterable[AnalysisDiagnostic]) -> List[AnalysisDiagnostic]:
    return [d for d in diagnostics if not d.is_error]


def format_diagnostics(diagnostics: Iterable[AnalysisDiagnostic]) -> str:
    return "\n".join(d.format() for d in diagnostics)


class AnalysisError(Exception):
    """Raised when error-severity diagnostics reach a raising entry point
    (``verify_module_or_raise``, the sanitizer)."""

    def __init__(self, diagnostics: Iterable[AnalysisDiagnostic], context: str = ""):
        self.diagnostics: List[AnalysisDiagnostic] = list(diagnostics)
        bad = errors_of(self.diagnostics)
        head = f"{len(bad)} analysis error(s)"
        if context:
            head += f" ({context})"
        super().__init__(head + ":\n" + format_diagnostics(self.diagnostics))
