"""Benchmark harness for luceopt: fixed-seed workloads, end-to-end timing and
a traced per-layer run.  Entry point: ``python3 perfbench/run.py``."""
