"""MiBench benchmark models (Table II of the paper).

MiBench programs are tiny C programs with very few functions, which is why
the Identical and SOA baselines achieve essentially nothing on them
(Figure 11).  The similarity mixes reflect Table II's merge counts: most
programs have no mergeable pairs at all; jpeg, ghostscript, gsm, ispell, pgp
and typeset have a handful of partially-similar functions; and rijndael
contains the famous encrypt/decrypt pair - two large, partially similar
functions that make up ~70% of the program, giving FMSA its 20.6% headline
reduction.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..ir.module import Module
from .generators import (FamilySpec, FunctionSpec, add_call_sites, build_function,
                         clone_function, make_family, mutate_constants,
                         mutate_opcodes, add_extra_instructions)
from .suites import (BenchmarkConfig, GeneratedBenchmark, benchmark_rng,
                     build_benchmark_module)

MIBENCH_BENCHMARKS: List[BenchmarkConfig] = [
    BenchmarkConfig("CRC32", "mibench", 4, 25),
    BenchmarkConfig("FFT", "mibench", 7, 50),
    BenchmarkConfig("adpcm_c", "mibench", 3, 73),
    BenchmarkConfig("adpcm_d", "mibench", 3, 73),
    BenchmarkConfig("basicmath", "mibench", 5, 71),
    BenchmarkConfig("bitcount", "mibench", 19, 22,
                    structural_share=0.1, partial_share=0.2),
    BenchmarkConfig("blowfish_d", "mibench", 8, 245),
    BenchmarkConfig("blowfish_e", "mibench", 8, 245),
    BenchmarkConfig("jpeg_c", "mibench", 322, 101,
                    identical_share=0.01, structural_share=0.02, partial_share=0.05),
    BenchmarkConfig("dijkstra", "mibench", 6, 33),
    BenchmarkConfig("jpeg_d", "mibench", 310, 99,
                    identical_share=0.01, structural_share=0.02, partial_share=0.05),
    BenchmarkConfig("ghostscript", "mibench", 3446, 54,
                    identical_share=0.02, structural_share=0.0, partial_share=0.10),
    BenchmarkConfig("gsm", "mibench", 69, 97,
                    structural_share=0.06, partial_share=0.16),
    BenchmarkConfig("ispell", "mibench", 84, 106,
                    structural_share=0.04, partial_share=0.10),
    BenchmarkConfig("patricia", "mibench", 5, 77),
    BenchmarkConfig("pgp", "mibench", 310, 89,
                    structural_share=0.01, partial_share=0.05),
    BenchmarkConfig("qsort", "mibench", 2, 50),
    BenchmarkConfig("rijndael", "mibench", 7, 472,
                    partial_share=0.30),
    BenchmarkConfig("rsynth", "mibench", 46, 97),
    BenchmarkConfig("sha", "mibench", 7, 53),
    BenchmarkConfig("stringsearch", "mibench", 10, 48,
                    partial_share=0.2),
    BenchmarkConfig("susan", "mibench", 19, 292,
                    partial_share=0.12),
    BenchmarkConfig("typeset", "mibench", 362, 354,
                    identical_share=0.01, structural_share=0.01, partial_share=0.10),
]

MIBENCH_BY_NAME: Dict[str, BenchmarkConfig] = {b.name: b for b in MIBENCH_BENCHMARKS}


def mibench_benchmark_names() -> List[str]:
    return [b.name for b in MIBENCH_BENCHMARKS]


def _build_rijndael(config: BenchmarkConfig, seed: int) -> GeneratedBenchmark:
    """Special-cased rijndael model: a small program dominated by two large,
    partially similar functions (encrypt / decrypt)."""
    rng = benchmark_rng(config.name, seed)
    module = Module(config.name)
    result = GeneratedBenchmark(config, module)

    encrypt_spec = FunctionSpec(
        name="rijndael_encrypt", num_blocks=6, instructions_per_block=40,
        num_int_params=3, num_float_params=0, num_pointer_params=2,
        float_ratio=0.0, call_ratio=0.05, memory_ratio=0.35,
        seed=rng.randrange(1 << 30))
    encrypt = build_function(module, encrypt_spec, random.Random(encrypt_spec.seed))
    decrypt = clone_function(module, encrypt, "rijndael_decrypt")
    mutate_opcodes(decrypt, rng, fraction=0.12)
    mutate_constants(decrypt, rng, fraction=0.2)
    add_extra_instructions(decrypt, rng, count=6)
    result.partial_members.extend([encrypt.name, decrypt.name])

    small_functions = []
    for index in range(5):
        spec = FunctionSpec(name=f"rijndael_util{index}", num_blocks=2,
                            instructions_per_block=rng.randrange(8, 20),
                            num_int_params=2, num_float_params=0,
                            num_pointer_params=1, float_ratio=0.0,
                            seed=rng.randrange(1 << 30))
        small_functions.append(build_function(module, spec, random.Random(spec.seed)))

    add_call_sites(module, [encrypt, decrypt] + small_functions, rng)
    return result


def build_mibench_benchmark(name: str, scale: float = 1.0, cap: int = 48,
                            seed: int = 0) -> GeneratedBenchmark:
    """Generate the synthetic module for one MiBench program.

    MiBench programs are small enough that they are generated at full scale
    by default (``scale=1.0``), except for ghostscript/typeset/jpeg which are
    still capped at ``cap`` functions.
    """
    config = MIBENCH_BY_NAME.get(name)
    if config is None:
        raise KeyError(f"unknown MiBench benchmark {name!r}")
    if name == "rijndael":
        return _build_rijndael(config, seed)
    return build_benchmark_module(config, scale=scale, cap=cap, seed=seed)


def build_mibench_suite(names: Optional[List[str]] = None, scale: float = 1.0,
                        cap: int = 48, seed: int = 0) -> List[GeneratedBenchmark]:
    selected = names or mibench_benchmark_names()
    return [build_mibench_benchmark(name, scale=scale, cap=cap, seed=seed)
            for name in selected]
