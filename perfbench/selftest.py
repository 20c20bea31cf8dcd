"""Self-test of the benchmark: determinism across hash seeds and metric names.

Runs every workload at the tiny size under two ``PYTHONHASHSEED`` values
(untraced) and once traced, each in its own process, and asserts:

* equal input digests and equal decision digests in all three runs;
* equal exact counts (``merges``, ``size_reduction_pct``,
  ``modeled_runtime``) under both hash seeds;
* every run reports ``correct``;
* the metrics printed are exactly those ``BENCHMARK.json`` names
  (end-to-end for untraced runs, per-layer for traced ones).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every assertion holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("merges", "size_reduction_pct", "modeled_runtime")
SEED = 7


def run(workload: str, hash_seed: str, trace: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} (hash seed {hash_seed}, trace {trace}) "
                             f"exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], **json.loads(lines[-1])}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {("1", 0): run(workload, "1", 0), ("2", 0): run(workload, "2", 0),
                ("1", 1): run(workload, "1", 1)}
        for (hash_seed, trace), result in runs.items():
            label = f"{workload} hash seed {hash_seed} trace {trace}"
            if not result["correct"]:
                failures.append(f"{label}: not correct: {result['info']['errors']}")
            printed = set(result["metrics"])
            if printed != names[trace]:
                failures.append(f"{label}: metrics {sorted(printed ^ names[trace])} "
                                f"differ from BENCHMARK.json")
        infos = [r["info"] for r in runs.values()]
        for key in ("input_digest", "decision_digest"):
            if len({info[key] for info in infos}) != 1:
                failures.append(f"{workload}: {key} differs across runs")
        first, second = runs[("1", 0)]["metrics"], runs[("2", 0)]["metrics"]
        for metric in EXACT:
            if first[metric]["value"] != second[metric]["value"]:
                failures.append(f"{workload}: {metric} differs across hash seeds")
        print(f"{workload}: digest {infos[0]['decision_digest'][:16]} "
              f"merges {first['merges']['value']}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
