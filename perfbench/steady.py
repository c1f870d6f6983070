#!/usr/bin/env python3
"""Steadiness check: run every workload on several seeds and report, for
each end-to-end metric, the spread between the first and third quartile
as a share of the median, next to the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--seconds N] [--report FILE]

Run it from the repository root. A spread is flagged when it is not
below a third of its bound. For comparison, the table also gives the
spread of each run's own set-up alone (the first of the set-ups whose
median is `setup_s`), read from the run records. The first seed is then
run once more and must give the same `tour_km` to the last digit. Host
steal seconds of each run are listed beside the figures; they are
recorded, never used to adjust one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json")) as f:
        record = json.load(f)
    return result, record


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--report", help="also write the tables as markdown to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = []
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        steal = []
        own_setup = []
        for seed in args.seeds:
            result, record = run_one(workload, seed, args.seconds)
            host = record["host"]
            own_setup.append(record["setup_reps_s"][0])
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            steal.append(host["op_phase_steal_s"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds)
                + f", steal={host['op_phase_steal_s']:.2f}s", flush=True)
        report.append(f"\n### {workload} ({len(args.seeds)} seeds: {args.seeds[0]}..{args.seeds[-1]}, "
                      f"{args.seconds} s runs)\n")
        report.append("| metric | median | q1 | q3 | spread | bound | bound/3 | ok |")
        report.append("|---|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bounds[name] / 3
            steady &= ok
            report.append(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                          f"{bounds[name]} | {bounds[name] / 3:.4f} | {'yes' if ok else 'NO'} |")
            if name == "setup_s":
                q1, med, q3 = statistics.quantiles(own_setup, n=4)
                report.append(f"| (own set-up alone) | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                              f"{(q3 - q1) / med:.4f} | | | |")
        again, _ = run_one(workload, args.seeds[0], args.seconds)
        repeat = again["metrics"]["tour_km"]["value"]
        same = repeat == values["tour_km"][0]
        steady &= same
        report.append(f"\nOp-phase host steal per run, s: {', '.join(f'{s:.2f}' for s in steal)}")
        report.append(f"\nSeed {args.seeds[0]} run again: tour_km {repeat!r} "
                      f"({'identical' if same else 'DIFFERENT'}; first run {values['tour_km'][0]!r})")
    text = "\n".join(report) + "\n"
    print(text)
    if args.report:
        with open(args.report, "a") as f:
            f.write(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
