"""Tests for incremental engine sessions: random edit scripts replayed
through a warm :class:`MergeSession` must be bit-identical to a cold
``engine.run()`` on the edited module - decisions, counters, call graph,
and printed function bodies - across kernels and the oracle; plus the
failure-recovery, plan/linearization-reuse, delta-report, and edit
validation behaviour."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (MergeEngine, MergeSession, ModuleEdit, apply_edit,
                        native_available)
from repro.core.engine import DirtySet, PlanningError
from repro.ir import IRBuilder, Module, verify_or_raise
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.callgraph import CallGraph
from repro.ir.clone import clone_function_detached
from repro.ir.printer import function_to_str
from repro.workloads import FamilySpec, FunctionSpec, make_family


def build_module(seed=7, families=4, clones=2):
    """Deterministic multi-family module population (same as the engine
    tests, so the workloads exercise real merge traffic)."""
    module = Module(f"sess_{seed}")
    rng = random.Random(seed)
    for index in range(families):
        spec = FunctionSpec(
            f"fam{index}",
            num_blocks=2 + (index + seed) % 3,
            instructions_per_block=4 + ((index + seed) % 4) * 2,
            call_ratio=0.3, memory_ratio=0.2,
            returns_float=bool((index + seed) % 5 == 1),
            seed=100 + 13 * seed + index)
        make_family(module, spec,
                    FamilySpec(identical=1, structural=clones, partial=1), rng)
    return module


def donor_pool(seed, count=3):
    """Detached functions harvested from sibling modules, used as edit
    payloads (adds and same-signature replacements)."""
    pool = []
    for offset in range(count):
        for fn in build_module(seed + 100 + offset).functions:
            pool.append(fn)
    return pool


def make_edits(rng, sim, donors, tag, count=2):
    """Generate one update's edit script against the simulated name/type
    state ``sim`` (mutated in place to stay consistent across updates)."""
    edits = []
    for index in range(count):
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
            kind = "add"  # no same-signature donor: fall through
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


def cold_rerun(seed, history, **engine_kwargs):
    """From-scratch ground truth: rebuild the seed module, apply every edit
    so far, run a fresh engine.  Returns (module, report)."""
    module = build_module(seed)
    for edit in history:
        apply_edit(module, edit)
    report = MergeEngine(exploration_threshold=2, **engine_kwargs).run(module)
    return module, report


def assert_graph_matches_rebuild(graph, module):
    fresh = CallGraph(module)
    assert graph.callees == fresh.callees
    assert graph.callers == fresh.callers
    assert graph.address_taken == fresh.address_taken
    for name in set(graph.call_sites) | set(fresh.call_sites):
        live = {id(s) for s in graph.call_sites.get(name, ())
                if s.parent is not None}
        expected = {id(s) for s in fresh.call_sites.get(name, ())}
        assert live == expected, f"call sites of {name} diverged"


def assert_session_matches_cold(session, seed, history, **engine_kwargs):
    """The full bit-identity contract: decisions, per-run counters,
    call graph, verifier, and printed bodies."""
    cold_module, cold = cold_rerun(seed, history, **engine_kwargs)
    warm = session.report
    assert warm.decision_keys() == cold.decision_keys()
    assert warm.candidates_evaluated == cold.candidates_evaluated
    assert warm.codegen_failures == cold.codegen_failures
    assert warm.candidates_pruned == cold.candidates_pruned
    assert warm.stale_entries == cold.stale_entries
    assert warm.functions_considered == cold.functions_considered
    assert warm.excluded_hot_functions == cold.excluded_hot_functions
    assert (warm.scheduler_stats["stale_entries"]
            == cold.scheduler_stats["stale_entries"])
    verify_or_raise(session.module)
    assert_graph_matches_rebuild(session.graph, session.module)
    warm_names = sorted(f.name for f in session.module.functions)
    cold_names = sorted(f.name for f in cold_module.functions)
    assert warm_names == cold_names
    for name in warm_names:
        assert (function_to_str(session.module.get_function(name))
                == function_to_str(cold_module.get_function(name))), name


def run_session_script(seed, updates=3, edits_per_update=2, **engine_kwargs):
    """Drive a session through ``updates`` random edit scripts, checking
    full parity with a cold rerun after open and after every update;
    returns the session's last report."""
    rng = random.Random(seed * 7919 + 13)
    donors = donor_pool(seed)
    module = build_module(seed)
    sim = {fn.name: fn.function_type for fn in module.functions}
    engine = MergeEngine(exploration_threshold=2, **engine_kwargs)
    history = []
    with MergeSession(engine, module) as session:
        assert_session_matches_cold(session, seed, history, **engine_kwargs)
        for update in range(updates):
            edits = make_edits(rng, sim, donors, f"u{update}",
                               count=edits_per_update)
            report = session.update(edits)
            assert report.edits == len(edits)
            history.extend(edits)
            assert_session_matches_cold(session, seed, history,
                                        **engine_kwargs)
    assert session.closed
    return session.report


def every_third_block_count(function):
    """A pure IR predicate standing in for a profile-driven hot filter."""
    return len(function.blocks) % 3 == 0


class TestSessionParity:
    """Warm incremental updates are bit-identical to cold full reruns."""

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_edit_scripts_serial(self, seed):
        run_session_script(seed)

    def test_random_edit_scripts_under_oracle(self):
        run_session_script(5, oracle=True)

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_random_edit_scripts_under_hot_filter(self, seed):
        # the hot filter is re-evaluated only for added and replaced
        # functions, so its exclusions must track a cold rerun's
        report = run_session_script(
            seed, updates=4, hot_function_filter=every_third_block_count)
        assert report.excluded_hot_functions > 0
        assert report.merge_count > 0

    @pytest.mark.parametrize("kernel", ["nw-native"] if native_available()
                             else [])
    def test_random_edit_scripts_per_kernel(self, kernel):
        run_session_script(3, updates=2, alignment_kernel=kernel)

    def test_open_matches_cold_run(self):
        module = build_module(11)
        engine = MergeEngine(exploration_threshold=2)
        with MergeSession(engine, module) as session:
            cold_module, cold = cold_rerun(11, [])
            assert session.report.decision_keys() == cold.decision_keys()
            assert (session.report.candidates_evaluated
                    == cold.candidates_evaluated)

    def test_noop_update_is_stable(self):
        module = build_module(9)
        engine = MergeEngine(exploration_threshold=2)
        with MergeSession(engine, module) as session:
            before = session.report.decision_keys()
            report = session.update([])
            assert session.report.decision_keys() == before
            assert report.edits == 0
            assert report.merges_added == []
            assert report.merges_retired == []
            assert report.merges_kept == len(before)
            assert_session_matches_cold(session, 9, [])


class TestSessionRecovery:
    """A failed update leaves partial commits; the next update rolls them
    back and converges to the cold post-edit state."""

    def _crashing_session(self, seed=9):
        module = build_module(seed)
        engine = MergeEngine(exploration_threshold=2)
        session = MergeSession(engine, module)
        real_plan = engine.plan_entry
        poison = sorted(session._source_fps)[len(session._source_fps) // 2]

        def exploding(name):
            if name == poison:
                raise KeyError("boom")
            return real_plan(name)

        engine.plan_entry = exploding
        return session, engine, real_plan

    def test_failed_update_rolls_back_and_recovers(self):
        seed = 9
        session, engine, real_plan = self._crashing_session(seed)
        donor = build_module(seed + 100).functions[0]
        edit = ModuleEdit.add(clone_function_detached(donor,
                                                      name="post_crash_fn"))
        with pytest.raises(PlanningError):
            session.update([edit])
        # the edit landed in the shadow before the replay died, and some
        # merges may have re-committed: the next update must roll that
        # partial state back and land exactly on the cold post-edit answer
        engine.plan_entry = real_plan
        session.update([])
        assert_session_matches_cold(session, seed, [edit])
        # and the session stays healthy for further edits
        donor2 = build_module(seed + 101).functions[1]
        edit2 = ModuleEdit.add(clone_function_detached(donor2,
                                                       name="post_crash_fn2"))
        session.update([edit2])
        assert_session_matches_cold(session, seed, [edit, edit2])
        session.close()
        assert session.closed

    def test_failed_validation_mutates_nothing(self):
        module = build_module(9)
        engine = MergeEngine(exploration_threshold=2)
        with MergeSession(engine, module) as session:
            before = session.report.decision_keys()
            donor = build_module(109).functions[0]
            good = ModuleEdit.add(clone_function_detached(donor, name="ok_fn"))
            bad = ModuleEdit.remove("no_such_function")
            with pytest.raises(ValueError):
                session.update([good, bad])
            # the whole script was rejected up front: no partial effects
            assert session.report.decision_keys() == before
            assert session.module.get_function("ok_fn") is None
            session.update([])
            assert session.report.decision_keys() == before


def _chain(module, name, opcodes, callee=None):
    """Straight-line i32 chain (the oracle-pruning test idiom)."""
    fn = module.create_function(name, ty.function_type(ty.I32, [ty.I32]))
    builder = IRBuilder(fn.append_block("entry"))
    value = fn.arguments[0]
    for op in opcodes:
        value = builder.binary(op, value, vals.const_int(3))
    if callee is not None:
        value = builder.call(callee, [value])
    builder.ret(value)
    return fn


class TestSessionReuse:
    """Plan memoization and cross-update linearization reuse, with the
    hit/miss counters surfaced through ``scheduler_stats``."""

    def test_noop_update_reuses_decisionless_plans(self):
        module = build_module(9)
        engine = MergeEngine(exploration_threshold=2)
        with MergeSession(engine, module) as session:
            report = session.update([])
            assert report.plans_reused > 0
            # merge decisions are never memoized: each one is replanned and
            # recommitted so divergence is detected, not assumed away
            assert report.functions_replanned >= session.report.merge_count
            stats = report.scheduler_stats
            assert stats["plans_reused"] == report.plans_reused
            assert stats["functions_replanned"] == report.functions_replanned
            assert 0.0 < report.plan_reuse_rate <= 1.0

    def test_linearizations_survive_across_updates(self):
        # an evaluated-but-unprofitable pair is never rolled back, so its
        # cached linearizations outlive the update cycle; dirtying the pair
        # via a new caller forces a fresh plan that must hit the cache
        module = Module("reuse")
        _chain(module, "u1", ["add", "mul", "xor", "sub"])
        _chain(module, "u2", ["sub", "xor", "mul", "add"])
        engine = MergeEngine(exploration_threshold=2)
        with MergeSession(engine, module) as session:
            assert session.report.merge_count == 0
            assert session.report.candidates_evaluated == 2
            open_stats = session.report.scheduler_stats
            assert open_stats["linearize_cache_misses"] == 2
            donor_mod = Module("donor")
            u1_ref = donor_mod.create_function(
                "u1", ty.function_type(ty.I32, [ty.I32]))
            caller = _chain(donor_mod, "caller_c", ["add"], callee=u1_ref)
            report = session.update(
                [ModuleEdit.add(clone_function_detached(caller))])
            assert report.linearize_hits > 0
            stats = report.scheduler_stats
            assert stats["linearize_cache_hits"] == report.linearize_hits
            assert stats["linearize_cache_misses"] == report.linearize_misses
            assert "linearize_stale_evicted" in stats
            assert 0.0 < report.linearize_reuse_rate <= 1.0

    def test_reuse_counters_present_for_every_update(self):
        module = build_module(5)
        engine = MergeEngine(exploration_threshold=2)
        with MergeSession(engine, module) as session:
            donor = build_module(105).functions[0]
            report = session.update(
                [ModuleEdit.add(clone_function_detached(donor, name="x_fn"))])
            for key in ("plans_reused", "functions_replanned",
                        "linearize_cache_hits", "linearize_cache_misses",
                        "linearize_stale_evicted", "stale_entries"):
                assert key in report.scheduler_stats, key


class TestPairScoreMemo:
    """The candidate searcher's pair-score memo across session updates."""

    def test_memo_stays_bounded_across_many_updates(self):
        # every update gives c0 a body it never had before, so each one
        # leaves a dead content behind; the per-update sweep must drop it
        # (with its scores) one update later instead of keeping them all
        ops = ["add", "mul", "xor", "sub"]
        module = Module("memo")
        for index in range(8):
            _chain(module, f"c{index}",
                   [ops[(index + k) % 4] for k in range(4 + index % 3)])
        engine = MergeEngine(exploration_threshold=2)
        searcher = engine.searcher
        sizes = []
        with MergeSession(engine, module) as session:
            for update in range(30):
                donor = _chain(Module("donor"), "c0",
                               [ops[k % 4] for k in range(3 + update)])
                session.update(
                    [ModuleEdit.replace(clone_function_detached(donor))])
                kept = set(searcher._contents.values())
                for content in kept:
                    # held now, or released during the update just done
                    assert content.refs or content.epoch == searcher._epoch - 1
                    assert set(content.row) <= kept
                sizes.append(len(kept))
            assert session.report.stage_stats["candidate-search"][
                "pair_memo_hits"] > 0
        assert max(sizes[-10:]) <= max(sizes[:10]) < 30


class TestSessionUpdateReport:
    """The update report is a coherent delta against the previous state."""

    def test_added_retired_kept_partition_the_decisions(self):
        seed = 3
        rng = random.Random(1234)
        donors = donor_pool(seed)
        module = build_module(seed)
        sim = {fn.name: fn.function_type for fn in module.functions}
        engine = MergeEngine(exploration_threshold=2)
        history = []
        with MergeSession(engine, module) as session:
            previous = set(session.report.decision_keys())
            for update in range(3):
                edits = make_edits(rng, sim, donors, f"r{update}")
                report = session.update(edits)
                history.extend(edits)
                current = set(session.report.decision_keys())
                added = {session.report.record_key(m)
                         for m in report.merges_added}
                retired = set(report.merges_retired)
                assert added == current - previous
                assert retired == previous - current
                assert report.merges_kept == len(previous & current)
                assert (report.merges_kept + len(report.merges_added)
                        == session.report.merge_count)
                assert report.merges_changed == len(added) + len(retired)
                assert report.dirty_functions > 0
                assert report.update_seconds > 0.0
                previous = current

    def test_candidates_evaluated_counts_fresh_planning_only(self):
        module = build_module(9)
        engine = MergeEngine(exploration_threshold=2)
        with MergeSession(engine, module) as session:
            full = session.report.candidates_evaluated
            report = session.update([])
            # memoized plans contribute nothing: the delta view counts only
            # pairs the dirty slice actually re-evaluated
            if report.plans_reused > 0 and full > 0:
                assert report.candidates_evaluated < full
            # ...while the full-module report still matches a cold rerun
            assert session.report.candidates_evaluated == full

    def test_summary_mentions_the_delta(self):
        module = build_module(9)
        engine = MergeEngine(exploration_threshold=2)
        with MergeSession(engine, module) as session:
            report = session.update([])
            text = report.summary()
            assert "0 edit(s)" in text
            assert "reuse" in text


class TestEditValidation:
    """Edit scripts are checked as a whole before anything mutates."""

    def _session(self, seed=9):
        return MergeSession(MergeEngine(exploration_threshold=2),
                            build_module(seed))

    def test_duplicate_add_rejected(self):
        with self._session() as session:
            existing = session.module.functions[0]
            donor = clone_function_detached(
                build_module(109).functions[0], name="dup_fn")
            with pytest.raises(ValueError, match="already exists"):
                session.update([ModuleEdit.add(donor),
                                ModuleEdit.add(clone_function_detached(
                                    donor, name="dup_fn"))])

    def test_missing_remove_and_replace_targets_rejected(self):
        with self._session() as session:
            with pytest.raises(ValueError, match="does not exist"):
                session.update([ModuleEdit.remove("ghost")])
            donor = clone_function_detached(
                build_module(109).functions[0], name="ghost")
            with pytest.raises(ValueError, match="does not exist"):
                session.update([ModuleEdit.replace(donor)])

    def test_replace_signature_mismatch_rejected(self):
        with self._session() as session:
            target = session._shadow.functions[0]
            mismatched = None
            for fn in build_module(109).functions:
                if fn.function_type != target.function_type:
                    mismatched = fn
                    break
            assert mismatched is not None
            with pytest.raises(ValueError, match="signature mismatch"):
                session.update([ModuleEdit.replace(clone_function_detached(
                    mismatched, name=target.name))])

    def test_script_is_validated_in_order(self):
        # remove frees the name, so a subsequent same-name add is legal
        with self._session() as session:
            name = session._shadow.functions[0].name
            donor = session._shadow.functions[1]
            session.update([
                ModuleEdit.remove(name),
                ModuleEdit.add(clone_function_detached(donor, name=name))])
            assert session.module.get_function(name) is not None

    def test_non_edit_objects_rejected(self):
        with self._session() as session:
            with pytest.raises(TypeError):
                session.update(["remove fam0"])

    def test_module_edit_constructor_validation(self):
        with pytest.raises(ValueError, match="unknown edit kind"):
            ModuleEdit(kind="rename", name="x")
        with pytest.raises(ValueError, match="needs a function"):
            ModuleEdit(kind="add", name="x")
        with pytest.raises(ValueError, match="needs a function"):
            ModuleEdit(kind="replace", name="x")
        assert ModuleEdit.remove("x").function is None


class TestApplyEdit:
    """The shared cold-path edit semantics ``MergeSession`` mirrors."""

    def test_add_clones_the_payload(self):
        module = Module("m")
        donor_mod = Module("d")
        donor = _chain(donor_mod, "f", ["add", "mul"])
        detached = clone_function_detached(donor, name="g")
        added = apply_edit(module, ModuleEdit.add(detached))
        assert added is module.get_function("g")
        assert added is not detached
        # the payload stays detached and reusable
        module2 = Module("m2")
        again = apply_edit(module2, ModuleEdit.add(detached))
        assert function_to_str(again) == function_to_str(added)
        verify_or_raise(module)
        verify_or_raise(module2)

    def test_add_resolves_self_recursion(self):
        donor_mod = Module("d")
        fn = donor_mod.create_function("r", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(fn.append_block("entry"))
        builder.ret(builder.call(fn, [fn.arguments[0]]))
        module = Module("m")
        added = apply_edit(module, ModuleEdit.add(
            clone_function_detached(fn, name="r")))
        callees = {op for block in added.blocks
                   for inst in block.instructions
                   for op in inst.operands if hasattr(op, "blocks")}
        assert callees == {added}

    def test_remove_leaves_callers_dangling_like_a_real_frontend(self):
        module = Module("m")
        callee = _chain(module, "callee", ["add"])
        caller = _chain(module, "caller", ["mul"], callee=callee)
        apply_edit(module, ModuleEdit.remove("callee"))
        assert module.get_function("callee") is None
        assert module.get_function("caller") is caller

    def test_replace_swaps_the_body_in_place(self):
        module = Module("m")
        original = _chain(module, "f", ["add"])
        donor_mod = Module("d")
        replacement = _chain(donor_mod, "f", ["mul", "xor"])
        result = apply_edit(module, ModuleEdit.replace(
            clone_function_detached(replacement)))
        assert result is original  # same object: callers keep their refs
        assert "mul" in function_to_str(original)
        verify_or_raise(module)


class TestDirtySet:
    def test_basic_membership(self):
        dirty = DirtySet()
        assert len(dirty) == 0
        dirty.add("a")
        dirty.update(["b", "c"])
        assert "a" in dirty and "b" in dirty
        assert "z" not in dirty
        assert sorted(dirty) == ["a", "b", "c"]
        dirty.clear()
        assert len(dirty) == 0


class TestSessionLifecycle:
    """``close()`` is idempotent, and a closed session rejects updates."""

    def _engine(self, **kwargs):
        kwargs.setdefault("exploration_threshold", 2)
        return MergeEngine(**kwargs)

    def test_close_is_idempotent_and_update_after_close_raises(self):
        session = MergeSession(self._engine(), build_module(3))
        session.close()
        session.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            session.update([])

    def test_context_manager_closes(self):
        with MergeSession(self._engine(), build_module(3)) as session:
            assert session.report is not None
        assert session.closed
