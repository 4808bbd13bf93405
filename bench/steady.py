"""Steadiness check: run each workload repeatedly and compare the spread of
every end-to-end metric with its bound in BENCHMARK.json.

    python3 bench/steady.py                       # every workload, 10 runs
    python3 bench/steady.py --workload conjugated --runs 5
    python3 bench/steady.py --trace               # also two traced runs

Run i uses seed i (runs and seeds count from 1) and its own PYTHONHASHSEED,
and lasts run_seconds of BENCHMARK.json.  One more run repeats seed 1 under
another PYTHONHASHSEED; its output digest must equal the first run's.  For
each metric the report gives the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the bound; a
spread above a third of the bound is flagged `wide`, above the bound `OVER`.
Every run must report correct=true and no failed call.  With --trace, seed 1
also runs traced twice under different hash seeds: every count must repeat
exactly, and trace.wall_s is reported against the untraced median wall_s as
the tracing overhead.  Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCH["run_seconds"]


def one_run(workload, seed, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {"digest": None, "extra": {}}
    for line in lines[:-1]:
        name, _, rest = line.partition(" ")
        if name == "digest":
            info["digest"] = rest
        elif name not in result["metrics"] and name != "rounds":
            value, _, unit = rest.partition(" ")
            info["extra"][name] = (float(value), unit)
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return result, info


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def check_workload(name, args) -> bool:
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    results, infos = [], []
    for i in range(args.runs):
        result, info = one_run(name, 1 + i, False, 101 + i)
        results.append(result)
        infos.append(info)
        print(f"  run {i + 1}: seed {1 + i} "
              f"wall_s {result['metrics']['wall_s']['value']:.4g}", flush=True)
    ok = True
    shares = {r["failed"] / r["attempted"] for r in results}
    if not all(r["correct"] for r in results):
        ok = False
        print(f"  FAIL: a run reported correct=false")
    if any(r["failed"] for r in results):
        ok = False
        print(f"  FAIL: failed calls {sorted(r['failed'] for r in results)}")
    if len(shares) != 1:
        ok = False
        print(f"  FAIL: failed share differs between runs: {sorted(shares)}")
    print(f"  attempted per run {sorted({r['attempted'] for r in results})}, "
          f"failed share {sorted(shares)}")
    _, again = one_run(name, 1, False, 9973)
    if again["digest"] != infos[0]["digest"]:
        ok = False
        print("  FAIL: output digest differs under another PYTHONHASHSEED")
    else:
        print(f"  digest equal under PYTHONHASHSEED 101 and 9973: {again['digest'][:16]}")
    print(f"  {'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for metric, spec in bounds.items():
        values = [r["metrics"][metric]["value"] for r in results]
        median, q1, q3, sp = spread(values)
        flag = "OVER" if sp > spec["bound"] else "wide" if sp > spec["bound"] / 3 else ""
        ok = ok and flag != "OVER"
        print(f"  {metric:<20} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} {sp:>7.3f} "
              f"{spec['bound']:>6} {spec['unit']} {flag}")
    for metric in infos[0]["extra"]:
        values = [info["extra"][metric][0] for info in infos]
        median, q1, q3, sp = spread(values)
        print(f"  {metric:<20} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} {sp:>7.3f} "
              f"{'-':>6} {infos[0]['extra'][metric][1]}")
    if args.trace:
        first, _ = one_run(name, 1, True, 7)
        second, _ = one_run(name, 1, True, 8)
        counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
        moved = [k for k, v in counts.items() if second["metrics"][k]["value"] != v]
        if moved:
            ok = False
            print(f"  FAIL: traced counts differ between runs: {moved}")
        else:
            print(f"  traced counts repeat exactly ({len(counts)} counts)")
        untraced = statistics.median(r["metrics"]["wall_s"]["value"] for r in results)
        traced = first["metrics"]["trace.wall_s"]["value"]
        print(f"  tracing overhead: trace.wall_s {traced:.4g} s against wall_s {untraced:.4g} s "
              f"({traced / untraced:.2f}x)")
    return ok


def main() -> int:
    names = [w["name"] for w in BENCH["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    ok = True
    for name in args.workload or names:
        print(f"{name}: {args.runs} runs of {SECONDS} s", flush=True)
        ok = check_workload(name, args) and ok
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
