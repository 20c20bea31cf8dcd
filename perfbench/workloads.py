"""The three workloads, each a loop of passes with output checks.

* ``suite``  - every pass compiles the 42 freshly generated SPEC/MiBench
  models through ``compile_module(technique="fmsa")``.
* ``clones`` - every pass compiles one freshly generated clone-family
  stress module the same way.
* ``edits``  - a pass opens an incremental session on a freshly generated
  SPEC-shaped module with ``open_compile_session``, drives it through a
  seeded single-edit script with ``MergeSession.update`` and finally
  compares its decisions with a cold ``MergeEngine.run`` on the edited
  module.

An untraced run (``trace=False``) times passes with nothing wrapped, each
operation in reference-speed seconds (see ``speed.py``).  A traced run
alternates untraced and traced passes, timed raw: the untraced ones give the
tracing overhead and a decision digest the traced ones must reproduce.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import inputs
from speed import Speedometer
from tracer import Tracer, install_layers, layer_metrics

from repro.baselines.identical import IdenticalFunctionMergingPass
from repro.core import MergeEngine
from repro.evaluation import compile_module, estimate_runtime_overhead
from repro.evaluation.pipeline import open_compile_session
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.passes.dce import DeadCodeElimination
from repro.passes.simplify_cfg import SimplifyCFG
from repro.targets import get_target

#: The pinned configuration: serial planning in one process, the fastest
#: alignment kernel available, the paper's exploration threshold t=1.
CONFIG = dict(threshold=1, alignment_kernel="auto", jobs=1, executor="serial")

#: Updates per edits session: at least ten latencies lie beyond p90.  The
#: count is fixed, not time-bound, so the edited module that the cold runs
#: compile depends on the seed alone.
EDITS_UPDATES = 100
#: Updates per edits session in a traced run (untraced and traced sessions
#: alternate, so they must replay the same script).
EDITS_TRACED_UPDATES = 30
#: Cold session opens (``compile_s``) and cold runs on the edited module
#: (``merge_s``) per edits pass; the metrics are their medians.
EDITS_COLD_SAMPLES = 7

#: Sizes of the self-test: small inputs that still exercise every layer.
TINY = {"suite_limit": 5, "clone_families": 6, "edits_functions": 40,
        "edits_updates": 6}
FULL = {"suite_limit": 0, "clone_families": inputs.CLONE_FAMILIES,
        "edits_functions": inputs.EDITS_FUNCTIONS,
        "edits_updates": EDITS_UPDATES}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class FoldRecorder:
    """Keeps the Identical pre-merge's fold records, which
    ``compile_module`` does not return, as ``(module name, folds)``."""

    def __init__(self):
        self.records: List[Tuple[str, list]] = []
        original = IdenticalFunctionMergingPass.run

        def run(merging_pass, module):
            report = original(merging_pass, module)
            self.records.append((module.name, [(r.representative, tuple(r.folded))
                                               for r in report.records]))
            return report

        IdenticalFunctionMergingPass.run = run


@dataclass
class PassResult:
    """One pass: timings, exact outputs and check results."""

    traced: bool
    warmup: bool = False
    gen_s: float = 0.0
    wall_s: float = 0.0        # the timed phase (compile loop / cold open)
    raw_wall_s: float = 0.0    # the same at the host's speed of the moment
    busy_s: float = 0.0        # CPU seconds per timed unit
    merge_s: float = 0.0
    latencies: List[float] = field(default_factory=list)   # per operation
    merges: int = 0
    size_reduction_pct: float = 0.0
    modeled_runtime: float = 1.0
    decision_digest: str = ""
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    traced_wall_s: float = 0.0
    rows: List[Tuple[str, float, int, float]] = field(default_factory=list)


class Workload:
    """One workload: builds its inputs and runs timed, checked passes."""

    name = ""
    #: Leading passes that are checked but not timed.
    warmup_passes = 0

    def __init__(self, seed: int, seconds: float, size: Dict[str, int]):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.folds = FoldRecorder()

    def input_modules(self) -> List[Module]:
        raise NotImplementedError

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        raise NotImplementedError

    def generators(self) -> List[Tuple[object, str]]:
        """The input builders the traced passes attribute to ``workloads``."""
        return [(inputs, "build_suite"), (inputs, "build_clones"),
                (inputs, "build_edits_module"), (inputs.EditScript, "next_edit"),
                (inputs, "replay_edits")]

    def input_digest(self) -> str:
        return inputs.input_digest(self.input_modules())

    def passes(self, trace: bool, speedometer: Speedometer) -> List[PassResult]:
        """The warm-up passes, then untraced passes, or alternating
        untraced/traced ones, until the time is up (at least one of each
        kind).  Another pass starts only if at least half of it, judged by
        the last one, fits in the time."""
        self.trace = trace
        self.speed = speedometer
        self.tracer = Tracer() if trace else None
        self.deadline = perf_counter() + self.seconds
        results: List[PassResult] = []
        while True:
            timed = len(results) - self.warmup_passes
            traced = trace and timed >= 0 and timed % 2 == 1
            if traced:
                self.tracer.record = not any(r.traced for r in results)
            # the previous pass's IR is cyclic garbage: free it untimed, so
            # every pass starts from the same heap
            gc.collect()
            pass_start = perf_counter()
            results.append(self.run_pass(self.tracer if traced else None))
            results[-1].warmup = timed < 0
            if traced:
                self.tracer.record = False
            now = perf_counter()
            enough = timed + 1 >= (2 if trace else 1)
            if enough and now + 0.5 * (now - pass_start) > self.deadline:
                return results


class CompileWorkload(Workload):
    """suite and clones: each pass compiles fresh modules with
    ``compile_module(technique="fmsa")``.  The first pass is a warm-up: a
    process's first compile runs on a fresh heap and measured about 10%
    faster than every later one, so timing it would make the metrics
    depend on how many passes fit in the run."""

    warmup_passes = 1

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        result = PassResult(traced=tracer is not None)
        pass_start = perf_counter()
        if tracer is not None:
            install_layers(tracer, self.generators())
        try:
            with self.speed.measure() as gen:
                modules = self.input_modules()
            result.gen_s = gen.seconds
            self.folds.records.clear()
            compiled = []
            for module in modules:
                result.attempted += 1
                try:
                    with self.speed.measure() as op:
                        compiled_result = compile_module(module, "fmsa", **CONFIG)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    result.failed += 1
                    result.errors.append(f"{module.name}: {error!r}")
                    continue
                compiled.append((module, compiled_result, op))
                result.latencies.append(op.seconds)
            result.wall_s = sum(op.seconds for _, _, op in compiled)
            result.raw_wall_s = sum(op.wall_s for _, _, op in compiled)
            result.busy_s = sum(op.busy_s for _, _, op in compiled)
            result.traced_wall_s = perf_counter() - pass_start
        finally:
            if tracer is not None:
                tracer.uninstall()

        decisions = []
        folds = dict(self.folds.records)
        ratios, runtimes = [], []
        for (module, compiled_result, op), latency in zip(compiled, result.latencies):
            problems = verify_module(module)
            if problems:
                result.failed += 1
                result.errors.append(f"{module.name}: verify: {problems[0]}")
            report = compiled_result.merge_report
            decisions.append((module.name, folds.get(module.name),
                              report.decision_keys() if report else None))
            result.merge_s += op.scale(compiled_result.merge_time)
            result.merges += compiled_result.merge_count
            ratios.append(compiled_result.size_after / compiled_result.size_baseline)
            runtimes.append(compiled_result.normalized_runtime)
            result.rows.append((module.name, latency, compiled_result.merge_count,
                                compiled_result.reduction_percent))
        result.decision_digest = hashlib.sha256(repr(decisions).encode()).hexdigest()
        result.size_reduction_pct = 100.0 * (1.0 - geomean(ratios)) if ratios else 0.0
        result.modeled_runtime = geomean(runtimes) if runtimes else 1.0
        return result


class Suite(CompileWorkload):
    name = "suite"

    def input_modules(self) -> List[Module]:
        return inputs.build_suite(self.seed, self.size["suite_limit"])


class Clones(CompileWorkload):
    name = "clones"

    def input_modules(self) -> List[Module]:
        return [inputs.build_clones(self.seed, self.size["clone_families"])]


class Edits(Workload):
    name = "edits"

    def input_modules(self) -> List[Module]:
        return [inputs.build_edits_module(self.size["edits_functions"])]

    def reference(self) -> Module:
        """The module as the session holds it before merging: generated,
        then the pre-passes ``open_compile_session`` applies."""
        module = self.input_modules()[0]
        DeadCodeElimination().run(module)
        SimplifyCFG().run(module)
        return module

    def input_digest(self) -> str:
        """The module plus the first edits of the script."""
        script = inputs.EditScript([self.reference()], self.seed)
        edits = [script.next_edit() for _ in range(self.size["edits_updates"])]
        return inputs.input_digest(self.input_modules(), edits)

    def run_pass(self, tracer: Optional[Tracer]) -> PassResult:
        """Open sessions, drive the last one through the edit script, then
        check it against cold runs on copies of the edited module.

        Each cold open and cold run starts after a full collection, with no
        earlier session alive, and only the session and one reference
        module are alive while the updates run: a bigger live heap makes
        the collector's full passes, which land on about one update in ten,
        long enough to decide p90 and to swing the cold medians."""
        result = PassResult(traced=tracer is not None)
        updates = self.size["edits_updates"]
        if self.trace:
            updates = min(updates, EDITS_TRACED_UPDATES)
        pass_start = perf_counter()
        settle_s = 0.0

        def settle() -> None:
            nonlocal settle_s
            start = perf_counter()
            gc.collect()
            settle_s += perf_counter() - start

        if tracer is not None:
            install_layers(tracer, self.generators())
        session = None
        try:
            opens = []
            for _ in range(EDITS_COLD_SAMPLES):
                if session is not None:
                    session.close()
                    session = None
                with self.speed.measure() as gen:
                    module = self.input_modules()[0]
                result.gen_s += gen.seconds
                settle()
                result.attempted += 1
                with self.speed.measure() as op:
                    session = open_compile_session(module, **CONFIG)
                opens.append(op)
            del module
            result.wall_s = statistics.median(op.seconds for op in opens)
            result.raw_wall_s = statistics.median(op.wall_s for op in opens)
            with self.speed.measure() as gen:
                reference = self.reference()
            result.gen_s += gen.seconds
            profiles = {f.name: f.profile for f in reference.defined_functions()
                        if f.profile is not None}
            # the exact metrics describe the session as opened: the edit
            # script, and so the edited module, changes with the seed
            cost = get_target("x86-64")
            size_before = cost.module_cost(reference)
            result.merges = session.report.merge_count
            result.size_reduction_pct = (100.0 * (size_before - cost.module_cost(session.module))
                                         / size_before)
            result.modeled_runtime = estimate_runtime_overhead(session.report, profiles)
            script = inputs.EditScript([reference], self.seed)
            edits = []
            digest = hashlib.sha256()
            busy = 0.0
            settle()
            while len(result.latencies) < updates:
                edits.append(script.next_edit())
                result.attempted += 1
                try:
                    with self.speed.measure() as op:
                        session.update([edits[-1]])
                except Exception as error:  # noqa: BLE001 - counted, reported
                    result.failed += 1
                    result.errors.append(f"update {script.count}: {error!r}")
                    break
                result.latencies.append(op.seconds)
                busy += op.busy_s
                digest.update(repr(session.report.decision_keys()).encode())
            result.busy_s = busy / max(1, len(result.latencies))
            keys = session.report.decision_keys()
            size_after = cost.module_cost(session.module)
            problems = verify_module(session.module)
            if problems:
                result.failed += 1
                result.errors.append(f"{session.module.name}: verify: {problems[0]}")
            session.close()
            session = None
            colds = []
            for index in range(EDITS_COLD_SAMPLES):
                if index:
                    with self.speed.measure() as gen:
                        reference = inputs.replay_edits(self.reference(), edits)
                    result.gen_s += gen.seconds
                settle()
                result.attempted += 1
                with self.speed.measure() as op:
                    report = MergeEngine(
                        target=cost, exploration_threshold=CONFIG["threshold"],
                        alignment_kernel=CONFIG["alignment_kernel"], jobs=CONFIG["jobs"],
                        executor=CONFIG["executor"]).run(reference)
                colds.append(op.seconds)
                if report.decision_keys() != keys:
                    result.failed += 1
                    result.errors.append(f"cold run {index}: decisions differ from the session")
                if cost.module_cost(reference) != size_after:
                    result.failed += 1
                    result.errors.append(f"cold run {index}: module size differs from the session")
                if index == 0:
                    problems = verify_module(reference)
                    if problems:
                        result.failed += 1
                        result.errors.append(f"{reference.name}: verify: {problems[0]}")
                del report, reference
            result.merge_s = statistics.median(colds)
            result.traced_wall_s = perf_counter() - pass_start - settle_s
        finally:
            if tracer is not None:
                tracer.uninstall()
            if session is not None:
                session.close()

        result.decision_digest = digest.hexdigest()
        return result


WORKLOADS = {cls.name: cls for cls in (Suite, Clones, Edits)}


def summarize(workload: Workload, results: List[PassResult], trace: bool
              ) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """End-to-end metrics (untraced run) or per-layer metrics (traced run),
    plus the informational record printed before the result line."""
    untraced = [r for r in results if not r.traced and not r.warmup]
    traced = [r for r in results if r.traced]
    median = statistics.median
    latencies = [x for r in untraced for x in r.latencies]
    first = results[0]
    if workload.name == "edits":
        wall_metric = lambda r: median(r.latencies)  # noqa: E731
    else:
        wall_metric = lambda r: r.wall_s  # noqa: E731
    info = {"passes": len(results), "operations": len(latencies),
            "pass_wall_s": [["w" if r.warmup else "t" if r.traced else "u",
                             round(wall_metric(r), 4)] for r in results],
            "raw_compile_s": [round(r.raw_wall_s, 4) for r in results],
            "decision_digest": first.decision_digest,
            "merges": first.merges}
    if not trace:
        metrics = {
            "compile_s": (median(r.wall_s for r in untraced), "s"),
            "merge_s": (median(r.merge_s for r in untraced), "s"),
            "busy_s": (median(r.busy_s for r in untraced), "s"),
            "update_p50_ms": (median(latencies) * 1000, "ms"),
            "update_p90_ms": (percentile(latencies, 0.9) * 1000, "ms"),
            "merges": (first.merges, "count"),
            "size_reduction_pct": (first.size_reduction_pct, "%"),
            "modeled_runtime": (first.modeled_runtime, "ratio"),
        }
    else:
        overhead = (median(wall_metric(r) for r in traced)
                    / median(wall_metric(r) for r in untraced))
        metrics = layer_metrics(workload.tracer, len(traced),
                                sum(r.traced_wall_s for r in traced), overhead)
    return metrics, info


def check_passes(results: List[PassResult]) -> List[str]:
    """Every pass of one seed must reach the same decisions and outputs."""
    errors = [e for r in results for e in r.errors]
    first = results[0]
    for index, other in enumerate(results[1:], start=1):
        if other.decision_digest != first.decision_digest:
            kind = "traced" if other.traced else "untraced"
            errors.append(f"pass {index} ({kind}): decision digest differs")
        exact = (other.merges, other.size_reduction_pct, other.modeled_runtime)
        if exact != (first.merges, first.size_reduction_pct, first.modeled_runtime):
            errors.append(f"pass {index}: exact counts differ")
    return errors


def module_table(results: List[PassResult]) -> List[str]:
    """Per-module compile_s (median over untraced passes), merges and
    size_reduction_pct, with geometric means (merges: the total)."""
    by_module: Dict[str, List[float]] = {}
    exact: Dict[str, Tuple[int, float]] = {}
    for result in results:
        if result.traced or result.warmup:
            continue
        for name, seconds, merges, reduction in result.rows:
            by_module.setdefault(name, []).append(seconds)
            exact[name] = (merges, reduction)
    lines = [f"{'module':<16} {'compile_s':>10} {'merges':>7} {'size_red_%':>10}"]
    for name, times in by_module.items():
        merges, reduction = exact[name]
        lines.append(f"{name:<16} {statistics.median(times):>10.4f} {merges:>7d} "
                     f"{reduction:>10.2f}")
    if by_module:
        compile_gm = geomean([statistics.median(t) for t in by_module.values()])
        size_gm = 100.0 * (1.0 - geomean([1.0 - r / 100.0 for _, r in exact.values()]))
        total = sum(m for m, _ in exact.values())
        lines.append(f"{'geomean':<16} {compile_gm:>10.4f} {total:>7d} {size_gm:>10.2f}")
    return lines
