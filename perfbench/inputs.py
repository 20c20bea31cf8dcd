"""Benchmark inputs that do not depend on the interpreter's hash seed.

The in-tree workload builders seed their random streams from ``hash(name)``,
which Python randomizes per process.  This module rebuilds the same kinds of
modules from the public generator functions and the public benchmark tables,
seeding every stream from ``zlib.crc32(name) ^ seed`` instead, so one
``--seed`` gives byte-identical input IR in every process.

Each module draws from two streams.  The *shape* stream (seed 0) fixes the
population the model describes: function counts, block and instruction
counts, signatures and family sizes.  The *content* stream (the benchmark
seed) draws everything inside that shape: instruction bodies, sibling
mutations, call-site constants and profiles.  So every seed gives a new
program of the same size, and the time to compile it varies with the
program rather than with a random draw of its size.

Three inputs:

* :func:`build_suite` - the 42 SPEC CPU2006 and MiBench models;
* :func:`build_clones` - one clone-family stress module;
* :func:`build_edits_module` plus :class:`EditScript` - one SPEC-shaped
  module and a seeded stream of single-function edits.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from typing import Dict, List, Tuple

from repro.core import ModuleEdit, apply_edit
from repro.interp.profile import FunctionProfile
from repro.ir.clone import clone_function_detached
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.printer import function_to_str, module_to_str
from repro.workloads import (MIBENCH_BENCHMARKS, SPEC_BENCHMARKS, BenchmarkConfig,
                             FamilySpec, FunctionSpec, add_call_sites,
                             add_extra_instructions, build_function, clone_function,
                             make_family, mutate_constants, mutate_opcodes)

#: Suite generation parameters: SPEC models are scaled down hard, MiBench
#: programs are generated whole (the big ones still capped).
SPEC_SCALE, SPEC_CAP = 0.01, 40
MIBENCH_SCALE, MIBENCH_CAP = 1.0, 48

#: Clone-family stress module: each family is a base plus this many
#: identical / structural / partial siblings.
CLONE_FAMILIES = 120
CLONE_FAMILY = FamilySpec(identical=1, structural=2, partial=2)
CLONE_AVG_SIZE = 60

#: The edits workload's module: a SPEC-shaped model of about this size.  Its
#: content is fixed, like one code base being edited; the benchmark seed
#: draws the edit script.
EDITS_CONFIG = "445.gobmk"
EDITS_FUNCTIONS = 150
EDITS_MODULE_SEED = 0


def stable_rng(name: str, seed: int) -> random.Random:
    """A random stream that depends only on ``name`` and ``seed``."""
    return random.Random((zlib.crc32(name.encode("utf-8")) ^ seed) & 0xFFFFFFFF)


def shape_rng(name: str) -> random.Random:
    """The seed-independent stream that fixes a module's shape."""
    return stable_rng(f"shape:{name}", 0)


def _size_to_shape(avg_size: int, rng: random.Random) -> Tuple[int, int]:
    size = max(6, int(avg_size * rng.uniform(0.7, 1.3)))
    blocks = max(2, min(7, size // 12 + 2))
    return blocks, max(3, size // blocks)


def _family_spec(name: str, avg_size: int, language: str,
                 shape: random.Random, content: random.Random) -> FunctionSpec:
    blocks, per_block = _size_to_shape(avg_size, shape)
    return FunctionSpec(
        name=name, num_blocks=blocks, instructions_per_block=per_block,
        num_int_params=shape.randrange(1, 4),
        num_float_params=shape.randrange(0, 2),
        num_pointer_params=shape.randrange(0, 2),
        returns_float=shape.random() < 0.25,
        float_ratio=0.25 if language == "c" else 0.35,
        seed=content.randrange(1 << 30))


def _attach_profiles(functions: List[Function], hot: List[str],
                     hot_weight: float, rng: random.Random) -> None:
    """Synthetic execution profile (input of the Fig. 14 runtime model)."""
    profiles: Dict[str, FunctionProfile] = {}
    total = 0
    for function in functions:
        calls = int(rng.randrange(50, 200) * (hot_weight if function.name in hot else 1.0))
        dynamic = calls * max(1, function.instruction_count())
        profiles[function.name] = FunctionProfile(
            function.name, call_count=calls, dynamic_instructions=dynamic)
        total += dynamic
    for function in functions:
        profile = profiles[function.name]
        profile.relative_weight = profile.dynamic_instructions / total if total else 0.0
        function.profile = profile


def build_benchmark(config: BenchmarkConfig, scale: float, cap: int,
                    seed: int) -> Module:
    """One benchmark model: families per the config's similarity mix, unique
    filler, a driver with call sites and a synthetic profile."""
    shape, rng = shape_rng(config.name), stable_rng(config.name, seed)
    module = Module(config.name)
    total = config.scaled_function_count(scale, cap)
    remaining = total
    family_index = 0
    generated: List[Function] = []
    mergeable: List[str] = []

    def budget_for(share: float) -> int:
        budget = int(round(total * share))
        return 2 if share >= 0.15 and budget < 2 else budget

    for kind, share in (("identical", config.identical_share),
                        ("structural", config.structural_share),
                        ("partial", config.partial_share)):
        budget = budget_for(share)
        while budget >= 2 and remaining >= 2:
            size = min(budget, remaining, shape.choice((2, 2, 3)))
            spec = _family_spec(f"{config.name}_{kind[:4]}{family_index}",
                                config.avg_size, config.language, shape, rng)
            family = FamilySpec(**{kind: size - 1})
            members = make_family(module, spec, family, rng)
            generated.extend(members)
            mergeable.extend(m.name for m in members)
            family_index += 1
            budget -= size
            remaining -= size

    for index in range(remaining):
        blocks, per_block = _size_to_shape(config.avg_size, shape)
        spec = FunctionSpec(
            name=f"{config.name}_uniq{index}",
            num_blocks=blocks, instructions_per_block=per_block,
            num_int_params=shape.randrange(1, 4),
            num_float_params=shape.randrange(0, 3),
            num_pointer_params=shape.randrange(0, 2),
            returns_float=shape.random() < 0.3,
            returns_void=shape.random() < 0.15,
            float_ratio=shape.uniform(0.1, 0.6),
            call_ratio=shape.uniform(0.05, 0.2),
            seed=rng.randrange(1 << 30))
        generated.append(build_function(module, spec, random.Random(spec.seed)))

    add_call_sites(module, generated, rng)
    if config.hot_merge_candidates > 0 and mergeable:
        hot = mergeable[:config.hot_merge_candidates]
    else:
        hot = [f.name for f in generated if f.name not in set(mergeable)][:2]
    _attach_profiles(generated, hot, config.hot_weight, rng)
    return module


def build_rijndael(seed: int) -> Module:
    """rijndael: two large partially similar functions (encrypt/decrypt)
    plus a few small utilities."""
    shape, rng = shape_rng("rijndael"), stable_rng("rijndael", seed)
    module = Module("rijndael")
    spec = FunctionSpec(name="rijndael_encrypt", num_blocks=6,
                        instructions_per_block=40, num_int_params=3,
                        num_float_params=0, num_pointer_params=2,
                        float_ratio=0.0, call_ratio=0.05, memory_ratio=0.35,
                        seed=rng.randrange(1 << 30))
    encrypt = build_function(module, spec, random.Random(spec.seed))
    decrypt = clone_function(module, encrypt, "rijndael_decrypt")
    mutate_opcodes(decrypt, rng, fraction=0.12)
    mutate_constants(decrypt, rng, fraction=0.2)
    add_extra_instructions(decrypt, rng, count=6)
    utils = []
    for index in range(5):
        util = FunctionSpec(name=f"rijndael_util{index}", num_blocks=2,
                            instructions_per_block=shape.randrange(8, 20),
                            num_int_params=2, num_float_params=0,
                            num_pointer_params=1, float_ratio=0.0,
                            seed=rng.randrange(1 << 30))
        utils.append(build_function(module, util, random.Random(util.seed)))
    functions = [encrypt, decrypt] + utils
    add_call_sites(module, functions, rng)
    _attach_profiles(functions, [], 1.0, rng)
    return module


def suite_configs() -> List[Tuple[BenchmarkConfig, float, int]]:
    """(config, scale, cap) for every module of the suite, in order."""
    return ([(c, SPEC_SCALE, SPEC_CAP) for c in SPEC_BENCHMARKS]
            + [(c, MIBENCH_SCALE, MIBENCH_CAP) for c in MIBENCH_BENCHMARKS])


def build_suite(seed: int, limit: int = 0) -> List[Module]:
    """All 42 modules (the first ``limit`` when nonzero)."""
    modules = []
    for config, scale, cap in suite_configs()[:limit or None]:
        if config.name == "rijndael":
            modules.append(build_rijndael(seed))
        else:
            modules.append(build_benchmark(config, scale, cap, seed))
    return modules


def build_clones(seed: int, families: int = CLONE_FAMILIES) -> Module:
    """Clone-family stress module: ``families`` bases, each with identical,
    structural and partial siblings, plus a driver calling every member."""
    shape, rng = shape_rng("clones"), stable_rng("clones", seed)
    module = Module("clones")
    members: List[Function] = []
    for index in range(families):
        spec = _family_spec(f"fam{index}", CLONE_AVG_SIZE, "c", shape, rng)
        members.extend(make_family(module, spec, CLONE_FAMILY, rng))
    add_call_sites(module, members, rng)
    _attach_profiles(members, [], 1.0, rng)
    return module


def build_edits_module(functions: int = EDITS_FUNCTIONS) -> Module:
    """The SPEC-shaped module the edits workload opens a session on."""
    config = next(c for c in SPEC_BENCHMARKS if c.name == EDITS_CONFIG)
    return build_benchmark(config, scale=1.0, cap=functions, seed=EDITS_MODULE_SEED)


class EditScript:
    """A seeded stream of single-function edits cycling three kinds:

    0. add a constant-mutated clone of an existing function;
    1. replace an existing body with an opcode-mutated copy of itself;
    2. remove the function added by the previous step 0.

    Which function each edit copies comes from the seed-independent shape
    stream, the mutations from the seeded content stream: an update's cost
    follows the size of the function it touches, so every seed edits the
    same functions, differently.

    Every edit is mirrored into each of ``references`` through
    :func:`apply_edit` (the reference semantics of an edit), so at any point
    they are the edited module as a cold build would see it.  Edit bodies
    are copied from the first one.
    """

    def __init__(self, references: List[Module], seed: int):
        self.references = references
        self.shape = shape_rng("edits")
        self.rng = stable_rng("edits", seed)
        self.targets = sorted(f.name for f in references[0].defined_functions()
                              if f.name != "driver_main")
        self.count = 0
        self._added: List[str] = []

    def next_edit(self) -> ModuleEdit:
        phase = self.count % 3
        if phase == 0:
            source = self.references[0].get_function(self.shape.choice(self.targets))
            clone = clone_function_detached(source, name=f"edit_add{self.count}")
            mutate_constants(clone, self.rng, fraction=0.3)
            self._added.append(clone.name)
            edit = ModuleEdit.add(clone)
        elif phase == 1:
            source = self.references[0].get_function(self.shape.choice(self.targets))
            copy = clone_function_detached(source)
            mutate_opcodes(copy, self.rng, fraction=0.2)
            edit = ModuleEdit.replace(copy)
        else:
            edit = ModuleEdit.remove(self._added.pop())
        for reference in self.references:
            apply_edit(reference, edit)
        self.count += 1
        return edit


def replay_edits(module: Module, edits: List[ModuleEdit]) -> Module:
    """``module`` with ``edits`` applied in order, as an :class:`EditScript`
    mirrors them; returns ``module``."""
    for edit in edits:
        apply_edit(module, edit)
    return module


def input_digest(modules: List[Module], edits: List[ModuleEdit] = ()) -> str:
    """sha256 of the printed IR of ``modules`` and of ``edits``."""
    digest = hashlib.sha256()
    for module in modules:
        digest.update(module_to_str(module).encode("utf-8"))
    for edit in edits:
        digest.update(f"{edit.kind} {edit.name}\n".encode("utf-8"))
        if edit.function is not None:
            digest.update(function_to_str(edit.function).encode("utf-8"))
    return digest.hexdigest()
