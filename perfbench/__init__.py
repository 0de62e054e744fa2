"""Benchmark for radixroot: three seeded workloads, end-to-end metrics from
timed runs and per-layer metrics from a separate traced run.  Run it with
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``.
"""
