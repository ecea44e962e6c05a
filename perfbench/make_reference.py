#!/usr/bin/env python3
"""Capture the reference outputs the benchmark's output check compares against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/<workload>-seed<n>.csv`` for the full-reference
seeds and ``perfbench/reference/table.json`` for the table seeds. The
compare matrix is captured with ``parallel_clients=false``; the benchmark
runs it in parallel, so the check also asserts that parallel output equals
serial output. Rerun only when the program's outputs are meant to change,
and say so in the change that does it.
"""

import json
import multiprocessing
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FULL_SEEDS = (18, 7)
TABLE_SEEDS = range(100)
WORKERS = 2


def _setup_path():
    if ROOT not in sys.path:
        sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def capture(job):
    """(workload, seed, output) for one reference operation."""
    workload, seed = job
    _setup_path()
    from perfbench import check, workloads

    work_dir = tempfile.mkdtemp(prefix=".perfbench-ref-", dir=ROOT)
    try:
        if workload == "compare_matrix":
            res = workloads.run_compare(seed, work_dir, timers=False, parallel=False)
            if res.exit_code != 0:
                raise RuntimeError(f"compare exited {res.exit_code} for seed {seed}")
            return workload, seed, res.output
        res = workloads.run_library(workload, seed, work_dir)
        return workload, seed, check.strip_wall_ms(res.output)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> int:
    _setup_path()
    from perfbench import check, workloads

    seeds = sorted(set(TABLE_SEEDS) | set(FULL_SEEDS))
    jobs = [(w, s) for w in workloads.WORKLOADS for s in seeds]
    table = {w: {} for w in workloads.WORKLOADS}
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        for workload, seed, output in pool.imap_unordered(capture, jobs):
            if seed in FULL_SEEDS:
                with open(check.reference_path(workload, seed), "w", newline="") as f:
                    f.write(output)
            if seed in TABLE_SEEDS:
                table[workload][str(seed)] = check.compact_reference(workload, output)
            print(f"{workload} seed {seed}", file=sys.stderr)
    for w in table:
        table[w] = dict(sorted(table[w].items(), key=lambda kv: int(kv[0])))
    with open(check.TABLE_PATH, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
