"""End-to-end and per-layer benchmark of the Communix server and node.

Run ``python3 perfbench/run.py --workload publish --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
