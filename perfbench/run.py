#!/usr/bin/env python3
"""fedsim benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload desk_faros_mr --seed 18 --seconds 30 --trace 0

Load shape: a closed loop in one process pinned to one CPU. Each operation
(one simulation run, or one ``fedsim compare`` command) starts when the
previous one ends, and operations repeat until the next one would overrun
``--seconds``. A short untimed warm-up comes first. Every operation's output is checked
(see ``check.py``); one that raises, exits non-zero or fails the check
counts as failed.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics, the tracing overhead among them; the spans of the last
traced operation are written to ``.perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the same figures for people, plus the environment and the records digest.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

NOISE_NOTE = (
    "on the shared 2-vCPU VM this benchmark was written on, each vCPU's speed "
    "switched between two levels about 1.6x apart for seconds to minutes (CPU "
    "speed, not I/O), so per-run wall time varied by about +-25% across fresh "
    "processes; compare medians and quartiles of several runs, not single runs"
)


def _import_program():
    """Import fedsim from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "fedsim", "__init__.py")):
        sys.exit(f"perfbench: no fedsim sources under {SRC}; run from a full checkout")
    sys.path[:0] = [SRC, ROOT]
    import fedsim

    if os.path.dirname(os.path.abspath(fedsim.__file__)) != os.path.join(SRC, "fedsim"):
        sys.exit(f"perfbench: imported fedsim from {fedsim.__file__}, not {SRC}")


def _blas():
    """(OpenBLAS config string, thread count) of the BLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_config().decode(), get_threads()
    return "unknown", None


def _loadavg():
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment() -> dict:
    import numpy as np

    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_start": _loadavg(),
        "note": NOISE_NOTE,
    }


def _percentile(samples, pct):
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


class Measurement:
    """Operations of one phase (untraced or traced) and their check results."""

    def __init__(self):
        self.results = []
        self.layers = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = []
        self.reference = None
        self.last_spans = []

    def rounds_per_s(self):
        """Rounds completed per second over all the phase's operations."""
        return sum(r.rounds for r in self.results) / sum(r.wall_s for r in self.results)


def measure(workload, seed, seconds, work_dir, table, tracers=(None,)) -> list:
    """Operations for ``seconds``, taking turns through ``tracers`` (None: untraced).

    Returns one Measurement per entry of ``tracers``. Traced and untraced
    operations alternate so that both meet the same spells of host speed.
    """
    from perfbench import check, tracing, workloads
    from fedsim import config

    sim_cfg = None
    if workload != "compare_matrix":
        sim_cfg = config.build_config(workloads.raw_config(workload, seed)).sim
    phases = [Measurement() for _ in tracers]
    clock = time.perf_counter
    start = clock()
    last = 0.0
    n = 0
    while n < len(phases) or clock() - start + last <= seconds:
        m, tracer = phases[n % len(phases)], tracers[n % len(phases)]
        n += 1
        t0 = clock()
        m.attempted += 1
        problems = []
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                if tracer is not None:
                    tracer.begin_op()
                res = workloads.run_op(workload, seed, work_dir, timers=tracer is None)
                if tracer is not None:
                    spans, counts = tracer.end_op()
                    m.layers.append(tracing.layer_metrics(spans, counts))
                    m.last_spans = spans
            m.results.append(res)
            if res.exit_code != 0:
                problems.append(f"exit code {res.exit_code}")
            else:
                out = res.output if workload == "compare_matrix" else check.strip_wall_ms(res.output)
                found, m.reference = check.check_output(workload, seed, out, table, sim_cfg)
                problems += found
                digest = check.records_digest(out)
                if m.digests and digest != m.digests[0]:
                    problems.append("output differs from the first operation of this run")
                m.digests.append(digest)
        except Exception as e:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            problems.append(f"{type(e).__name__}: {e}")
        if problems:
            m.failed += 1
            m.problems += problems[:5]
        last = clock() - t0
    return phases


def end_to_end(m: Measurement) -> dict:
    if not m.results:
        return {}
    # Percentiles are taken per operation and averaged over operations, and
    # the rate pools all operations. The host's speed switches between two
    # levels for seconds at a time; a median over operations jumps from one
    # level to the other, while a mean moves with the share of time spent in
    # each. Over 30 s windows of wide_faros_pgd_mlp the interquartile range
    # of p50 was 21% of the median with a median over operations and 10%
    # with a mean.
    per_op = [[s * 1000.0 for s in r.round_s] for r in m.results]
    rounds_ms = [s for op in per_op for s in op]
    setups = [s for r in m.results for s in r.setup_s]
    return {
        "rounds_per_s": m.rounds_per_s(),
        "round_ms_p50": statistics.fmean(statistics.median(op) for op in per_op),
        "round_ms_p90": statistics.fmean(_percentile(op, 90) for op in per_op),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_samples": {
            "operations": len(m.results),
            "rounds": len(rounds_ms),
            "setups": len(setups),
            "operation_wall_s": [r.wall_s for r in m.results],
        },
    }


def per_layer(untraced: Measurement, traced: Measurement, names) -> tuple:
    """(values, problems): time medians over traced operations, counts from the first."""
    values, problems = {}, []
    for name in names:
        if name.startswith("trace."):
            continue
        per_op = [layer.get(name, 0.0 if name.endswith(".ms") else 0) for layer in traced.layers]
        if not per_op:
            values[name] = 0.0
        elif name.endswith(".ms"):
            values[name] = statistics.median(per_op)
        else:
            values[name] = per_op[0]
            if any(v != per_op[0] for v in per_op):
                problems.append(f"{name} differs between operations: {per_op}")
    if untraced.results and traced.results:
        plain, slow = untraced.rounds_per_s(), traced.rounds_per_s()
        values["trace.untraced_rounds_per_s"] = plain
        values["trace.rounds_per_s"] = slow
        values["trace.overhead_pct"] = (plain / slow - 1.0) * 100.0
    return values, problems


def write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t_base = spans[0][4] if spans else 0.0
    with open(path, "w") as f:
        f.write(json.dumps(["name", "id", "parent", "thread", "start_ms", "end_ms"]) + "\n")
        for name, sid, parent, thread, t0, t1 in spans:
            start, end = round((t0 - t_base) * 1e3, 4), round((t1 - t_base) * 1e3, 4)
            f.write(json.dumps([name, sid, parent, thread, start, end]) + "\n")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, default=18, help="workload seed (18: the roster-healthy desk seed)")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU, chosen before numpy starts BLAS threads so they inherit it. On a
    # 2-vCPU VM, compare_matrix's per-round thread pool left free to use both
    # CPUs gave an interquartile range of 29% of the median rounds_per_s over
    # 10 seeds (53% for round_ms_p90); pinned, 13-19%, like the workloads
    # without threads.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _import_program()
    from perfbench import check, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    env = environment()
    table = check.load_table()
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workloads.warm_up(args.workload, args.seed, work_dir)
        if args.trace:
            phases = measure(args.workload, args.seed, args.seconds, work_dir, table,
                             tracers=(None, tracing.Tracer()))
            untraced, traced = phases
            metrics, problems = per_layer(untraced, traced, [m["name"] for m in bench["per_layer"]])
            spans_path = os.path.join(ROOT, ".perfbench-out", f"spans-{args.workload}-seed{args.seed}.jsonl")
            write_spans(spans_path, traced.last_spans)
            wanted = [m["name"] for m in bench["per_layer"]]
        else:
            phases, problems = measure(args.workload, args.seed, args.seconds, work_dir, table), []
            (untraced,) = phases
            metrics = end_to_end(untraced)
            wanted = [m["name"] for m in bench["end_to_end"]]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    # A per-layer count that differs between operations fails one more operation.
    failed = min(attempted, sum(p.failed for p in phases) + (1 if problems else 0))
    problems = [q for p in phases for q in p.problems] + problems
    digests = sorted({d for p in phases for d in p.digests})
    if len(digests) > 1:
        failed = max(failed, 1)
        problems.append("traced and untraced operations gave different outputs")
    env["loadavg_end"] = _loadavg()

    mode = "traced" if args.trace else "untraced"
    print(f"workload={args.workload} seed={args.seed} mode={mode} "
          f"operations={attempted} reference={phases[0].reference}")
    for name in wanted:
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:.6g} {units[name]}")
    print(f"  {'failed_share':34s} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(f"  {'records_digest':34s} {digests[0] if len(digests) == 1 else digests}")
    if "_samples" in metrics:
        s = metrics["_samples"]
        print(f"  samples: {s['operations']} operations of {s['rounds'] // s['operations']} rounds, "
              f"{s['rounds']} rounds, {s['setups']} set-ups")
    if args.workload.startswith("desk_"):
        print("  criterion 12 (faros/fedavg wall ratio) = rounds_per_s of desk_fedavg_clean"
              " / rounds_per_s of desk_faros_mr, for information only")
    for q in problems[:20]:
        print(f"  problem: {q}")
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "mode": mode,
        "records_digest": digests, "reference": phases[0].reference,
        "failed_share": failed / attempted, "samples": metrics.get("_samples"),
        "environment": env, "problems": problems[:20],
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0.0), "unit": units[n]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
