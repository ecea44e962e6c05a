#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 [--workloads a,b] [--trace 0] [--out BENCH.json]

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
and prints, per workload and metric, the median, the quartiles (Python's
``statistics.quantiles(n=4)``) and the interquartile range as a share of the
median, next to the metric's bound in BENCHMARK.json. With both desk
workloads it also prints the criterion-12 ratio (faros over fedavg wall time
per round), for information. ``--out`` saves every run's result and detail lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["perfbench"]
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in _seeds(args.seeds):
            res = run_once(workload, seed, args.seconds, args.trace)
            res["seed"] = seed
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
        print(f"{workload}: {sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)} operations")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:g}{' OVER' if share > bound else ''}"
            print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"iqr/median {share:.3f}{flag}")
    pair = results.get("desk_faros_mr"), results.get("desk_fedavg_clean")
    if all(pair) and "rounds_per_s" in pair[0][0]["metrics"]:
        faros, fedavg = (statistics.median(r["metrics"]["rounds_per_s"]["value"] for r in p) for p in pair)
        print(f"criterion 12 (information): faros/fedavg wall ratio {fedavg / faros:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
