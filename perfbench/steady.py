#!/usr/bin/env python3
"""Steadiness check: run one or more workloads on ten or more seeds and print,
for every end-to-end metric, the median, the quartiles and the spread
(quartile distance over the median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload desk --runs 10 --first-seed 1

The runs go one after another, each in its own process, with the run length
BENCHMARK.json fixes. The raw results are written to
perfbench/out/steady-<workload>.json. The exit code is 1 when a run fails or
a spread other than that of setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec, results):
    rows, ok = [], True
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        within = spread <= metric["bound"] or metric["name"] == "setup_s"
        ok = ok and within
        rows.append((metric["name"], metric["unit"], med, q1, q3, spread, metric["bound"], within))
    return rows, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least four runs")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_ok = True
    for workload in args.workload:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(spec, workload, seed) for seed in seeds]
        shares = {r["failed"] / r["attempted"] for r in results}
        rows, ok = summarize(spec, results)
        all_ok = all_ok and ok and shares == {0.0}
        (BENCH_DIR / "out").mkdir(exist_ok=True)
        (BENCH_DIR / "out" / f"steady-{workload}.json").write_text(
            json.dumps({"seeds": list(seeds), "results": results}) + "\n")
        print(f"## {workload}: {args.runs} runs, seeds {seeds.start}-{seeds.stop - 1}, "
              f"failed shares {sorted(shares)}")
        print("| metric | unit | median | q1 | q3 | spread | bound | within |")
        print("|---|---|---:|---:|---:|---:|---:|---|")
        for name, unit, med, q1, q3, spread, bound, within in rows:
            print(f"| {name} | {unit} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                  f"{spread:.4f} | {bound} | {'yes' if within else 'NO'} |")
        print(flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
