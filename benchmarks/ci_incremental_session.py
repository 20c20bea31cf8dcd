"""CI driver: incremental-session parity.

Drives a long-lived :class:`repro.core.MergeSession` through a randomized
edit script (adds, removes, same-signature replaces) over a multi-family
module with real merge traffic, and after the open and after
every update compares the warm session's state against a from-scratch
``engine.run()`` on the identically edited module.  The run fails on any
divergence in merge decisions, candidate counters, or the IR verifier -
the regression tripwires for the delta-driven replanner::

    PYTHONPATH=src python benchmarks/ci_incremental_session.py

Knobs: ``REPRO_BENCH_SCALE`` (default 0.01) scales the module population;
``REPRO_CI_SESSION_UPDATES`` (default 4) the number of updates driven.
"""

import os
import random
import sys

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core import (MergeEngine, MergeSession, ModuleEdit,  # noqa: E402
                        apply_edit)
from repro.ir import Module, verify_or_raise  # noqa: E402
from repro.ir.clone import clone_function_detached  # noqa: E402
from repro.workloads import (FamilySpec, FunctionSpec,  # noqa: E402
                             make_family)


def _env_number(name: str, default, convert=float):
    try:
        return convert(os.environ.get(name, default))
    except ValueError:
        return default


SCALE = _env_number("REPRO_BENCH_SCALE", 0.01)
UPDATES = _env_number("REPRO_CI_SESSION_UPDATES", 4, int)
EDITS_PER_UPDATE = 2


def build_population(seed, scale=SCALE, name="ci_session"):
    module = Module(f"{name}_{seed}")
    rng = random.Random(seed)
    families = max(3, int(round(600 * scale)))
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + (index + seed) % 3,
            instructions_per_block=4 + ((index + seed) % 4) * 2,
            call_ratio=0.3, memory_ratio=0.2,
            returns_float=bool((index + seed) % 5 == 1),
            seed=100 + 13 * seed + index)
        make_family(module, spec,
                    FamilySpec(identical=1, structural=2, partial=1), rng)
    return module


def make_edits(rng, sim, donors, tag):
    """One update's edit script against the simulated name/type state."""
    edits = []
    for index in range(EDITS_PER_UPDATE):
        kind = rng.choice(("add", "remove", "replace"))
        if kind == "replace" and sim:
            name = rng.choice(sorted(sim))
            matches = [d for d in donors
                       if d.function_type == sim[name] and d.name != name]
            if matches:
                donor = matches[rng.randrange(len(matches))]
                edits.append(ModuleEdit.replace(
                    clone_function_detached(donor, name=name)))
                continue
            kind = "add"
        if kind == "remove" and sim:
            name = rng.choice(sorted(sim))
            edits.append(ModuleEdit.remove(name))
            del sim[name]
            continue
        donor = donors[rng.randrange(len(donors))]
        name = f"ext_{tag}_{index}"
        while name in sim:
            name += "x"
        edits.append(ModuleEdit.add(clone_function_detached(donor, name=name)))
        sim[name] = donor.function_type
    return edits


def check_parity(session, seed, history, failures, label):
    reference = build_population(seed)
    for edit in history:
        apply_edit(reference, edit)
    cold = MergeEngine(exploration_threshold=2).run(reference)
    warm = session.report
    if warm.decision_keys() != cold.decision_keys():
        failures.append(f"{label}: merge decisions diverged from cold rerun")
    if warm.candidates_evaluated != cold.candidates_evaluated:
        failures.append(
            f"{label}: candidates_evaluated {warm.candidates_evaluated} "
            f"!= cold {cold.candidates_evaluated}")
    try:
        verify_or_raise(session.module)
    except Exception as error:  # pragma: no cover - tripwire path
        failures.append(f"{label}: verifier failed: {error}")
    return cold


def main() -> int:
    seed = 7
    rng = random.Random(20_260_808)
    donors = [fn for offset in range(3)
              for fn in build_population(seed + 100 + offset,
                                         name="donor").functions]
    module = build_population(seed)
    sim = {fn.name: fn.function_type for fn in module.functions}
    engine = MergeEngine(exploration_threshold=2)
    print(f"functions={len(module.functions)}")

    failures = []
    history = []
    with MergeSession(engine, module) as session:
        check_parity(session, seed, history, failures, "open")
        print(f"open: {session.report.merge_count} merge(s)")
        for update in range(UPDATES):
            edits = make_edits(rng, sim, donors, f"u{update}")
            delta = session.update(edits)
            history.extend(edits)
            check_parity(session, seed, history, failures,
                         f"update {update + 1}")
            print(f"update {update + 1}: "
                  f"{[e.kind for e in edits]} -> "
                  f"{len(delta.merges_added)} added, "
                  f"{len(delta.merges_retired)} retired, "
                  f"{delta.merges_kept} kept "
                  f"({delta.plan_reuse_rate:.0%} plan reuse, "
                  f"{delta.update_seconds * 1000:.1f}ms)")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
