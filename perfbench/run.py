"""galcq benchmark: decide, certification and compilation latency.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads: corpus, chain, counting, oracle (see inputs.py and README.md), or
`all` to run the four in turn.  Run from the root of a source checkout; the
reasoner is imported from ./src, nothing is installed.

The seed permutes the order of the inputs and sets the worker's
PYTHONHASHSEED (seed mod 2**32).  Each run spawns the worker a few times
only to time its set-up, then once to measure (worker.py).  With --trace 0
the last stdout line holds the end-to-end metrics, with --trace 1 the
per-layer ones; the lines before it are a readable report.  End-to-end times
are scaled to a reference host speed by a probe run beside the reasoner
(speed.py); the report gives the raw times too.  Every verdict is checked
against its hand label; any failed input makes the exit code 1.
The run's full record (environment, per-input times and counters, spans) is
written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("corpus", "chain", "counting", "oracle")
# set-up is timed this many times per run, in workers spawned only for it;
# setup_s is the median
SETUP_SPAWNS = 10
SETUP_TIMEOUT_S = 30
MEASURE_TIMEOUT_S = 150

# layer spans, named <module>.<stage>; "decide", "certify" and "reduce" are
# the root spans of the three paths
LAYERS = (
    "syntax.parse",
    "syntax.print",
    "orders.structure",
    "reduction.reduce",
    "tableau.build",
    "tableau.search",
    "tableau.unravel",
    "extraction.fuzzy",
    "semantics.verify",
    "semantics.grid",
    "bruteforce.brute",
)
PATHS = ("decide", "certify", "reduce")
SUMMED_COUNTERS = (
    "syntax.print_bytes",
    "orders.elements",
    "reduction.inclusions",
    "reduction.atoms",
    "tableau.base_clauses",
    "tableau.interned",
    "tableau.nodes",
    "tableau.steps",
    "tableau.tree_elements",
    "semantics.verify_elements",
    "bruteforce.atoms",
)


class WorkerFailed(Exception):
    pass


def spawn(args, hash_seed: str, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Run the worker; return its spawn time and its last stdout line."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)] + extra
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed nothing")
    return spawned_at, json.loads(lines[-1])


def apply_speed(records: list[dict], samples: list) -> None:
    """Replace each path time by its host-speed-normalised value.

    certify_s stays the decide time plus what certification adds to it.  The
    unscaled times, without the probe's own, go to r["raw_s"].
    """
    samples = [tuple(x) for x in samples]
    for r in records:
        both = {key: speed.normalise(*r[f"{key}_at"], samples)
                for key in PATHS if f"{key}_at" in r}
        r["raw_s"] = {key: raw for key, (raw, _) in both.items()}
        norm = {key: value for key, (_, value) in both.items()}
        if r["decide_s"] is not None:
            r["decide_s"] = norm["decide"]
        if r["certify_s"] is not None:
            r["certify_s"] = norm["decide"] + norm.get("certify", 0.0)
        if r["reduce_s"] is not None:
            r["reduce_s"] = norm["reduce"]


def tail(xs: list[float]):
    """Highest whole percentile with at least ten samples beyond it."""
    xs = sorted(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * len(xs))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


def per_input_medians(records: list[dict], key: str) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for r in records:
        if r[key] is not None:
            samples.setdefault(r["id"], []).append(r[key])
    return {k: statistics.median(v) for k, v in samples.items()}


def end_to_end(records: list[dict], setup_s: float, peak_rss_mb: float) -> tuple[dict, list[str]]:
    """The bound-checked metrics of the decide and certify paths.

    Per path: the median over samples, the mean per input (of each input's
    median) and, for decide, inputs decided per second of decide time.
    Tails are only reported: one pass of a workload other than corpus has
    fewer than the eleven samples a tail needs.  The reduce path runs only
    on corpus and chain, so it is reported too, not bound-checked.
    """
    values = {}
    notes = []
    for key in ("decide_s", "certify_s", "reduce_s"):
        per_input = per_input_medians(records, key)
        if not per_input:
            if key == "reduce_s":
                continue
            raise WorkerFailed(f"no input produced {key}")
        mean = statistics.fmean(per_input.values())
        samples = [r[key] for r in records if r[key] is not None]
        p50 = statistics.median(samples)
        if key != "reduce_s":
            values[f"{key}_p50"] = (p50, "s")
            values[f"{key}_mean"] = (mean, "s")
        if key == "decide_s":
            values["decide_per_s"] = (len(samples) / sum(samples), "1/s")
        line = (f"{key}: {len(per_input)} inputs, {len(samples)} samples, "
                f"mean {mean:.6f} s, p50 {p50:.6f} s, ")
        found = tail(samples)
        if found is None:
            slowest = max(per_input, key=per_input.get)
            line += f"too few for a tail; max {max(samples):.6f} s ({slowest})"
        else:
            line += f"p{found[0]} {found[1]:.6f} s"
        notes.append(line)
    certified = {r["id"] for r in records if r["certified"] is not None}
    notes.append(f"certified: {len(certified)} inputs; certify_s of the others "
                 f"is their decide time")
    values["peak_rss_mb"] = (peak_rss_mb, "MB")
    values["setup_s"] = (setup_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, notes


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the part its children cover."""
    out: dict[str, float] = {}
    for name, start, end, _, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            pname = spans[parent][0]
            out[pname] = out.get(pname, 0.0) - (end - start)
    return out


def path_totals(records: list[dict]) -> dict[str, float]:
    """Seconds spent per path; certify counts only what it adds to decide."""
    totals = {"decide": 0.0, "certify": 0.0, "reduce": 0.0}
    for r in records:
        totals["decide"] += r["decide_s"] or 0.0
        totals["reduce"] += r["reduce_s"] or 0.0
        if r["certify_s"] is not None:
            totals["certify"] += r["certify_s"] - r["decide_s"]
    return totals


def per_layer(result: dict) -> tuple[dict, list[str]]:
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    k_u, k_t = len(untraced), len(traced)
    spans = result["spans"]
    selfs = self_times(spans)
    values = {f"{layer}_s": (selfs.get(layer, 0.0) / k_t, "s") for layer in LAYERS}

    first = traced[0]["records"]
    counters = [r["counters"] for r in first]
    for name in SUMMED_COUNTERS:
        values[name] = (sum(c.get(name, 0) for c in counters), "count")
    search_s = values["tableau.search_s"][0]
    values["tableau.steps_per_s"] = (
        values["tableau.steps"][0] / search_s if search_s > 0 else 0.0, "1/s")
    grid = [c for c in counters if "semantics.grid_found" in c]
    brute = [c for c in counters if "bruteforce.outcome" in c]
    values["semantics.grid_found_share"] = (
        sum(c["semantics.grid_found"] for c in grid) / len(grid) if grid else 0.0, "share")
    values["bruteforce.decided_share"] = (
        sum(c["bruteforce.outcome"] == "definitive" for c in brute) / len(brute)
        if brute else 0.0, "share")

    u_tot = {k: 0.0 for k in PATHS}
    t_tot = {k: 0.0 for k in PATHS}
    for group, tot, k in ((untraced, u_tot, k_u), (traced, t_tot, k_t)):
        for p in group:
            for name, v in path_totals(p["records"]).items():
                tot[name] += v / k
    layer_sum = {k: 0.0 for k in PATHS}
    for name, start, end, parent, _ in spans:
        if parent is None or name not in LAYERS:
            continue
        root = parent
        while spans[root][3] is not None:
            root = spans[root][3]
        layer_sum[spans[root][0]] += (end - start) / k_t
    untraced_s = sum(u_tot.values())
    traced_s = sum(t_tot.values())
    values["trace.untraced_s"] = (untraced_s, "s")
    values["trace.overhead_s"] = (traced_s - untraced_s, "s")
    values["trace.harness_s"] = (sum(selfs.get(p, 0.0) for p in PATHS) / k_t, "s")

    notes = [f"passes: {k_u} untraced, {k_t} traced; times are per pass"]
    for path in PATHS:
        notes.append(
            f"{path}: untraced {u_tot[path]:.4f} s, traced {t_tot[path]:.4f} s, "
            f"layer self times {layer_sum[path]:.4f} s"
        )
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, notes


def environment(args, hash_seed: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pythonhashseed": hash_seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args) -> tuple[dict, int]:
    hash_seed = str(args.seed % 2**32)
    env = environment(args, hash_seed)
    setups, raw_setups = [], []
    for _ in range(SETUP_SPAWNS):
        before = speed.burst()
        spawned_at, ready = spawn(args, hash_seed, ["--setup-only"], SETUP_TIMEOUT_S)
        after = speed.burst()
        raw = ready["first_call_at"] - spawned_at
        raw_setups.append(raw)
        setups.append(raw * speed.REFERENCE_PROBE_S / speed.typical(before + after))
    _, result = spawn(args, hash_seed, [], MEASURE_TIMEOUT_S)

    records = [r for p in result["passes"] for r in p["records"]]
    failed = [r for r in records if r["errors"]]
    untraced = [r for p in result["passes"] if not p["traced"] for r in p["records"]]
    if args.trace:
        metrics, notes = per_layer(result)
    else:
        apply_speed(untraced, result["probe"])
        raw_means = {key: statistics.fmean(r["raw_s"].get(key, 0.0) for r in untraced)
                     for key in PATHS}
        metrics, notes = end_to_end(untraced, statistics.median(setups),
                                    result["peak_rss_mb"])
        probe_ms = 1000 * speed.typical(d for _, d in result["probe"])
        notes.append(
            f"raw (unscaled) mean per input: decide {raw_means['decide']:.6f} s, "
            f"certification {raw_means['certify']:.6f} s, setup_s "
            f"{statistics.median(raw_setups):.6f} s; typical probe {probe_ms:.4f} ms "
            f"against the reference {1000 * speed.REFERENCE_PROBE_S:.4f} ms"
        )

    print(f"perfbench {args.workload}: seed {args.seed}, PYTHONHASHSEED {hash_seed}, "
          f"python {env['python']}, nproc {env['nproc']}, load average at start "
          f"{' '.join(f'{x:.2f}' for x in env['loadavg_at_start'])}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:>14.6f} {m['unit']}")
    print(f"  fail_share {len(failed)}/{len(records)}")
    for r in failed:
        print(f"  FAILED {r['id']}: {'; '.join(r['errors'])}")

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "setup_s": setups,
                   "raw_setup_s": raw_setups, "metrics": metrics,
                   "worker": result}, handle)

    summary = {"correct": not failed, "attempted": len(records),
               "failed": len(failed), "metrics": metrics}
    return summary, (0 if not failed else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    code = 0
    for name in names:
        args.workload = name
        try:
            summaries[name], status = run_workload(args)
        except (WorkerFailed, ValueError, KeyError) as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 2
        code = max(code, status)
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}/{k}": m for w, s in summaries.items()
                        for k, m in s["metrics"].items()},
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
