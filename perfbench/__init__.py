"""Closed-loop benchmark of qmeasure: workloads, seeded inputs and a call tracer.

Run it with `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
"""
