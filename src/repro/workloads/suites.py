"""Benchmark-suite modelling shared by the SPEC CPU2006 and MiBench configs.

Each benchmark is described by a :class:`BenchmarkConfig` capturing the
function population reported in Tables I and II of the paper (function count,
size statistics) together with a *similarity mix* - which fraction of the
functions belong to families of identical, structurally-similar or
partially-similar siblings.  :func:`build_benchmark_module` turns a config
into a concrete IR module at a chosen scale.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..interp.profile import FunctionProfile
from ..ir.function import Function
from ..ir.module import Module
from .generators import (FamilySpec, FunctionSpec, add_call_sites, build_function,
                         make_family)


@dataclass
class BenchmarkConfig:
    """Shape of one benchmark program.

    ``functions`` and ``avg_size`` follow Table I/II of the paper;
    ``identical_share``/``structural_share``/``partial_share`` encode how much
    of the code belongs to families that the Identical baseline, the SOA
    baseline, or only FMSA can merge.  The remaining share is unique code.
    """

    name: str
    suite: str
    functions: int
    avg_size: int
    identical_share: float = 0.0
    structural_share: float = 0.0
    partial_share: float = 0.0
    #: Number of merge-candidate functions that are also *hot* (runtime
    #: experiment, Figure 14); 0 means merging never touches hot code.
    hot_merge_candidates: int = 0
    #: Relative weight given to hot functions in the synthetic profile.
    hot_weight: float = 30.0
    language: str = "c"

    def scaled_function_count(self, scale: float, cap: int, floor: int = 6) -> int:
        return max(floor, min(cap, int(round(self.functions * scale))))


@dataclass
class GeneratedBenchmark:
    """A generated module plus bookkeeping used by the experiments."""

    config: BenchmarkConfig
    module: Module
    #: Names of functions that belong to mergeable families, per kind.
    identical_members: List[str] = field(default_factory=list)
    structural_members: List[str] = field(default_factory=list)
    partial_members: List[str] = field(default_factory=list)
    hot_functions: List[str] = field(default_factory=list)


def _size_to_shape(avg_size: int, rng: random.Random) -> Tuple[int, int]:
    """Translate an average function size (instructions) into a plausible
    (num_blocks, instructions_per_block) pair."""
    size = max(6, int(avg_size * rng.uniform(0.7, 1.3)))
    blocks = max(2, min(7, size // 12 + 2))
    per_block = max(3, size // blocks)
    return blocks, per_block


def benchmark_rng(name: str, seed: int) -> random.Random:
    """The random stream a benchmark model is generated from.

    Seeded from a CRC of the name, not ``hash(name)``: Python randomizes
    string hashes per process, and a module must come out identical in
    every process (paper-figure runs, benchmark baselines, pinned tests).
    """
    return random.Random((zlib.crc32(name.encode("utf-8")) ^ seed) & 0xFFFFFFFF)


def build_benchmark_module(config: BenchmarkConfig, scale: float = 0.01,
                           cap: int = 48, seed: int = 0) -> GeneratedBenchmark:
    """Generate the synthetic module for one benchmark.

    The module contains:

    * families of identical / structural / partial siblings sized from the
      similarity mix,
    * unique filler functions for the remaining share,
    * a driver function providing direct call sites for every function, and
    * a synthetic execution profile (hot functions get ``hot_weight`` times
      the call count of cold ones).
    """
    rng = benchmark_rng(config.name, seed)
    module = Module(config.name)
    total = config.scaled_function_count(scale, cap)

    result = GeneratedBenchmark(config, module)

    remaining = total
    family_index = 0

    def family_budget(share: float) -> int:
        budget = int(round(total * share))
        # guarantee that a meaningful share yields at least one mergeable
        # pair even for tiny (heavily scaled-down) benchmarks
        if share >= 0.15 and budget < 2:
            budget = 2
        return budget

    plans = [
        ("identical", family_budget(config.identical_share)),
        ("structural", family_budget(config.structural_share)),
        ("partial", family_budget(config.partial_share)),
    ]

    generated: List[Function] = []
    for kind, budget in plans:
        while budget >= 2 and remaining >= 2:
            family_size = min(budget, remaining, rng.choice((2, 2, 3)))
            siblings = family_size - 1
            blocks, per_block = _size_to_shape(config.avg_size, rng)
            spec = FunctionSpec(
                name=f"{config.name}_{kind[:4]}{family_index}",
                num_blocks=blocks, instructions_per_block=per_block,
                num_int_params=rng.randrange(1, 4),
                num_float_params=rng.randrange(0, 2),
                num_pointer_params=rng.randrange(0, 2),
                returns_float=rng.random() < 0.25,
                float_ratio=0.25 if config.language == "c" else 0.35,
                seed=rng.randrange(1 << 30))
            family = FamilySpec(
                identical=siblings if kind == "identical" else 0,
                structural=siblings if kind == "structural" else 0,
                partial=siblings if kind == "partial" else 0)
            members = make_family(module, spec, family, rng)
            generated.extend(members)
            names = [m.name for m in members]
            getattr(result, f"{kind}_members").extend(names)
            family_index += 1
            budget -= family_size
            remaining -= family_size

    # unique filler functions
    unique_index = 0
    while remaining > 0:
        blocks, per_block = _size_to_shape(config.avg_size, rng)
        spec = FunctionSpec(
            name=f"{config.name}_uniq{unique_index}",
            num_blocks=blocks, instructions_per_block=per_block,
            num_int_params=rng.randrange(1, 4),
            num_float_params=rng.randrange(0, 3),
            num_pointer_params=rng.randrange(0, 2),
            returns_float=rng.random() < 0.3,
            returns_void=rng.random() < 0.15,
            float_ratio=rng.uniform(0.1, 0.6),
            call_ratio=rng.uniform(0.05, 0.2),
            seed=rng.randrange(1 << 30))
        generated.append(build_function(module, spec, random.Random(spec.seed)))
        unique_index += 1
        remaining -= 1

    add_call_sites(module, generated, rng)
    _attach_profile(result, generated, rng)
    return result


def _attach_profile(result: GeneratedBenchmark, functions: List[Function],
                    rng: random.Random) -> None:
    """Attach a synthetic execution profile to the generated functions."""
    config = result.config
    mergeable = (result.partial_members + result.structural_members
                 + result.identical_members)
    hot: List[str] = []
    if config.hot_merge_candidates > 0 and mergeable:
        hot.extend(mergeable[:config.hot_merge_candidates])
    else:
        # make a couple of *unique* functions hot so every benchmark has a
        # realistic skewed profile, without exposing merge candidates
        unique = [f.name for f in functions if f.name not in set(mergeable)]
        hot.extend(unique[:2])
    result.hot_functions = hot

    total_dynamic = 0.0
    profiles: Dict[str, FunctionProfile] = {}
    for function in functions:
        base_calls = rng.randrange(50, 200)
        weight = config.hot_weight if function.name in hot else 1.0
        calls = int(base_calls * weight)
        dynamic = calls * max(1, function.instruction_count())
        profiles[function.name] = FunctionProfile(
            function.name, call_count=calls, dynamic_instructions=dynamic)
        total_dynamic += dynamic
    for function in functions:
        profile = profiles[function.name]
        profile.relative_weight = (profile.dynamic_instructions / total_dynamic
                                   if total_dynamic else 0.0)
        function.profile = profile
