"""The repository benchmark: seeded workloads on the sequential and cluster
planes, measured from outside the program.  Run ``python3 perfbench/run.py
--help`` from the repository root."""
