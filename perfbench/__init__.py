"""Benchmark harness for fedsim: workloads, output checks and per-layer tracing.

Run ``python3 perfbench/run.py --workload <name>``; see ``perfbench/README.md``.
"""
