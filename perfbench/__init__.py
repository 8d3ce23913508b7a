"""Benchmark for atomslits: workloads, seeded inputs, oracle and tracing.

Run it from the repository root with ``python3 perfbench/run.py``; see
perfbench/README.md for the workloads and metrics.
"""
