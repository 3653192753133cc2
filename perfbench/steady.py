#!/usr/bin/env python3
"""Steadiness mode: repeat one workload over several seeds and report, for
every end-to-end metric of BENCHMARK.json, its median, quartiles and spread
(interquartile range as a share of the median) against its bound. Each run
lasts BENCHMARK.json's run_seconds.

Run from the repository root:

    python3 perfbench/steady.py --workload serve_read --seeds 1-10
    python3 perfbench/steady.py --workload mixed_replicated --seeds 1-5 --sets 2
    python3 perfbench/steady.py --workload serve_read --seeds 101-110   # held out

With --sets 2 the seeds run twice (set A, then set B) and the report adds
how far B's median moved from A's, in the metric's worse direction.
Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect result: {lines[-1]}")
    steal = next((l.split(": ", 1)[1] for l in lines if l.startswith("# host steal")), "?")
    return {k: v["value"] for k, v in result["metrics"].items()}, steal


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds:
            metrics, steal = run_once(bench["command"], args.workload, seed, seconds)
            runs.append(metrics)
            print(f"set {s} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
                  + f"  (steal {steal.split(' ')[0]})", flush=True)
        sets.append(runs)

    print(f"\n{args.workload}: {len(seeds)} seeds x {args.sets} set(s), {seconds} s per run")
    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    ok = True
    for name, m in spec.items():
        bound = m["bound"]
        medians = []
        for runs in sets:
            values = [r[name] for r in runs]
            med, q1, q3, sp = spread(values)
            medians.append(med)
            if sp <= bound / 3:
                verdict = "steady (< bound/3)"
            elif sp <= bound:
                verdict = "within bound"
                ok = False
            else:
                verdict = "TOO NOISY"
                ok = False
            print(f"{name:<30} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {sp:>8.3f} {bound:>6.2f}  {verdict}")
        if len(medians) == 2 and medians[0]:
            moved = (medians[1] - medians[0]) / medians[0]
            worse = moved if m["better"] == "lower" else -moved
            tag = "ok" if worse <= bound else "WORSE THAN BOUND"
            if worse > bound:
                ok = False
            print(f"{'':<30} set B vs A: {moved:+.3f} ({tag})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
