"""A minimal pass manager.

Passes are callables over a :class:`~repro.ir.module.Module` (module passes)
or over a :class:`~repro.ir.function.Function` (function passes, adapted to
module scope by :class:`FunctionPassAdapter`).  The manager records per-pass
wall-clock timings which the evaluation harness reuses for the
compilation-time experiments (Figures 12 and 13).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..ir.function import Function
from ..ir.module import Module


class Pass:
    """Base class for module passes."""

    #: Short identifier used in reports and timing breakdowns.
    name: str = "pass"

    def run(self, module: Module):
        raise NotImplementedError

    def __call__(self, module: Module):
        return self.run(module)


class FunctionPass(Pass):
    """Base class for passes that operate one function at a time."""

    def run_on_function(self, function: Function) -> bool:
        """Process one function; return True if it was modified."""
        raise NotImplementedError

    def run(self, module: Module) -> bool:
        changed = False
        for function in module.defined_functions():
            changed |= bool(self.run_on_function(function))
        return changed


class PassManager:
    """Runs a sequence of passes over a module and records timings."""

    def __init__(self, passes: Optional[List[Pass]] = None):
        self.passes: List[Pass] = list(passes or [])
        self.timings: List[Tuple[str, float]] = []

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: Module) -> Dict[str, object]:
        """Run all passes in order; returns a dict with per-pass results and
        wall-clock timings in seconds."""
        results: Dict[str, object] = {}
        self.timings = []
        for pass_ in self.passes:
            start = time.perf_counter()
            results[pass_.name] = pass_.run(module)
            self.timings.append((pass_.name, time.perf_counter() - start))
        return results

    def total_time(self) -> float:
        return sum(t for _, t in self.timings)
