"""The repository benchmark: three traffic shapes on tokyo@0.5.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a fresh single-threaded worker
process and prints every metric by name as the last line of stdout.
``BENCHMARK.json`` at the repository root lists the workloads, the
metrics and each end-to-end metric's regression bound.
"""
