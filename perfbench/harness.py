"""Run the benchmark's workloads as a suite, for steadiness, or traced.

    python3 perfbench/harness.py all    [--seed N]
    python3 perfbench/harness.py steady [--seed N]
    python3 perfbench/harness.py trace  [--seed N]

Run from the repository root.  Every workload run is its own process,
``perfbench/run.py``, started one at a time, so no two runs share the
machine.  Each runs every workload of BENCHMARK.json for its
``run_seconds``.  Results are printed and written as JSON under
``perfbench/out/``.

``all`` runs the four workloads once and prints every end-to-end metric
with its unit, and the operations attempted and failed.

``steady`` makes two sets of runs, one after the other.  In each set every
workload runs ``RUNS`` times, each time with the next seed, reversing the
order of the workloads on every other pass.  For each end-to-end metric and
each set it prints the median and the spread (quartile distance over the
median), and the shift of the second set's median from the first's.  It
fails if a spread or a shift exceeds the metric's bound in BENCHMARK.json,
or if the failed share is not the same in every run.

``trace`` runs every workload untraced, then traced twice with the same
seed.  It prints the per-layer metrics, checks that the counts of the two
traced runs agree exactly, and gives the tracing overhead: the untraced
``tasks_per_s`` over the traced one, minus one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUNS = 10   # runs of each workload in each set of ``steady``


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["log"] = proc.stderr.strip().splitlines()
    return result


def save(name: str, payload) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return path


def cmd_all(args, bench):
    results = {}
    for w in (x["name"] for x in bench["workloads"]):
        r = run_one(w, args.seed, bench["run_seconds"], trace=False)
        results[w] = r
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} ({r['wall_s']:.1f} s)")
        for name, m in r["metrics"].items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
        for line in r["log"][1:]:
            print("  " + line)
    print(f"written to {save('all.json', results)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def cmd_steady(args, bench):
    names = [x["name"] for x in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for s in range(2):
        runs = {w: [] for w in names}
        for k in range(RUNS):
            seed = args.seed + s * RUNS + k
            for w in (names if k % 2 == 0 else names[::-1]):
                r = run_one(w, seed, bench["run_seconds"], trace=False)
                runs[w].append(r)
                print(f"set {s + 1} pass {k + 1}/{RUNS} {w} seed {seed}: "
                      + " ".join(f"{n}={m['value']:.5g}" for n, m in r["metrics"].items())
                      + f" attempted={r['attempted']} failed={r['failed']}"
                      + ("" if r["correct"] else " INCORRECT"), flush=True)
        sets.append(runs)
    ok = True
    summary = {}
    print(f"\n{'workload':28s} {'metric':12s} {'median 1':>10s} {'spread':>7s} "
          f"{'median 2':>10s} {'spread':>7s} {'shift':>7s} {'bound':>6s}")
    for w in names:
        summary[w] = {}
        for metric, bound in bounds.items():
            per_set = []
            for runs in sets:
                values = [r["metrics"][metric]["value"] for r in runs[w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                per_set.append({"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med, "values": values})
            shift = per_set[1]["median"] / per_set[0]["median"] - 1.0
            worst = max(per_set[0]["spread"], per_set[1]["spread"], abs(shift))
            ok &= worst <= bound
            flag = "" if worst <= bound / 3 else (" > bound/3" if worst <= bound else " > BOUND")
            summary[w][metric] = {"sets": per_set, "shift": shift, "bound": bound}
            print(f"{w:28s} {metric:12s} {per_set[0]['median']:10.5g} "
                  f"{per_set[0]['spread']:7.3f} {per_set[1]['median']:10.5g} "
                  f"{per_set[1]['spread']:7.3f} {shift:+7.3f} {bound:6.2f}{flag}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs[w]}
        correct = all(r["correct"] for runs in sets for r in runs[w])
        ok &= len(shares) == 1 and correct
        summary[w]["failed_share"] = sorted(shares)
        print(f"{w:28s} failed share {sorted(shares)} correct={correct}")
    print(f"written to {save('steady.json', summary)}")
    return 0 if ok else 1


def cmd_trace(args, bench):
    names = [x["name"] for x in bench["workloads"]]
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    report = {}
    ok = True
    for w in names:
        plain = run_one(w, args.seed, seconds, trace=False)
        first = run_one(w, args.seed, seconds, trace=True)
        second = run_one(w, args.seed, seconds, trace=True)
        counts = [n for n, u in units.items() if u in ("count", "1")]
        same = all(first["metrics"][n]["value"] == second["metrics"][n]["value"]
                   for n in counts)
        ok &= same and first["correct"] and second["correct"]
        untraced = plain["metrics"]["tasks_per_s"]["value"]
        traced = first["metrics"]["trace.tasks_per_s"]["value"]
        overhead = untraced / traced - 1.0
        report[w] = {"per_layer": first["metrics"], "untraced_tasks_per_s": untraced,
                     "overhead": overhead, "counts_repeat": same}
        print(f"{w}: tracing overhead {100 * overhead:+.1f}% "
              f"({untraced:.4g} -> {traced:.4g} tasks/s), counts repeat: {same}")
        for name, m in first["metrics"].items():
            print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    print(f"written to {save('trace.json', report)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("all", "steady", "trace"))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = spec()
    return {"all": cmd_all, "steady": cmd_steady, "trace": cmd_trace}[args.command](args, bench)


if __name__ == "__main__":
    sys.exit(main())
