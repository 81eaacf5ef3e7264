"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload train_cq --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and output format.
"""
