"""Check that the benchmark's exact counters repeat across seeds.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs the traced benchmark twice per workload (default: all four), with seeds
that give different input orders and different PYTHONHASHSEED values, and
compares every input's counters: order elements, inclusions, atoms, clauses,
interned objects, tableau nodes and steps, tree elements, verified
elements, printed bytes, and the oracles' outcomes and completed domain.
Counters may be cited as counts only because they repeat exactly.  Takes
about a minute per workload and seed on a 2-CPU machine.  Exit code 0 when
every counter matches and no input failed, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 12)


def counters(workload: str, seed: int) -> dict[str, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    path = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as handle:
        passes = json.load(handle)["worker"]["passes"]
    out = {}
    for p in passes:
        if p["traced"]:
            for r in p["records"]:
                out[r["id"]] = dict(r["counters"], consistent=r["consistent"],
                                    certified=r["certified"])
    return out


def main(argv: list[str]) -> int:
    workloads = argv or ["corpus", "chain", "counting", "oracle"]
    mismatches = 0
    for workload in workloads:
        first, second = (counters(workload, s) for s in SEEDS)
        if first.keys() != second.keys():
            print(f"{workload}: input sets differ")
            mismatches += 1
            continue
        for iid in sorted(first):
            if first[iid] != second[iid]:
                mismatches += 1
                print(f"{iid}: seed {SEEDS[0]} {first[iid]} != seed {SEEDS[1]} {second[iid]}")
        print(f"{workload}: {len(first)} inputs compared")
    print("counters identical" if mismatches == 0 else f"{mismatches} mismatches")
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
