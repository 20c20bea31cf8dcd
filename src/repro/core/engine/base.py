"""Stage infrastructure for the merge engine.

Every pipeline stage is a small strategy object carrying its own
:class:`StageStats` (wall-clock time, call count, free-form counters).  The
engine aggregates the per-stage numbers into the legacy Figure-13 buckets of
:class:`~repro.core.engine.report.MergeReport` via each stage's
``legacy_stage`` attribute, while the fine-grained stats remain available in
``MergeReport.stage_stats``.

Every stage runs on the calling thread, so stage *seconds* are wall-clock
time of that thread.  A pass is not thread-safe: use one per thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class StageStats:
    """Timing and counters of one pipeline stage."""

    name: str
    seconds: float = 0.0
    calls: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def account(self, seconds: float) -> None:
        """Record one timed call."""
        self.seconds += seconds
        self.calls += 1

    def as_dict(self) -> Dict[str, float]:
        data: Dict[str, float] = {"seconds": self.seconds, "calls": float(self.calls)}
        for key, value in self.counters.items():
            data[key] = float(value)
        return data


class Stage:
    """Base class of the engine's pipeline stages.

    Attributes:
        name: the stage's own (fine-grained) name.
        legacy_stage: which bucket of ``MergeReport.stage_times`` this
            stage's time is accounted to, or ``None`` for time that the
            original pass did not attribute to any bucket.
    """

    name: str = "stage"
    legacy_stage: Optional[str] = None

    def __init__(self):
        self.stats = StageStats(self.name)

    def reset(self) -> None:
        self.stats = StageStats(self.name)

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` and account its wall-clock time to this stage."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stats.account(time.perf_counter() - start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.stats.seconds * 1000:.2f}ms/{self.stats.calls}>"
