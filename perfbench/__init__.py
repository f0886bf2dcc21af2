"""The repository's end-to-end benchmark.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace
0|1`` runs one workload from a checkout of the repository and prints
one JSON result line.  See ``run.py`` for the metrics and
``workloads.py`` for what each workload does and checks.
"""
