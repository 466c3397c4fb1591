"""Repository benchmark: end-to-end and per-layer performance of the SVD stack.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the sources under ``src/`` of
the checkout it lives in, checks every result against LAPACK, and
prints one JSON object as its last line.  ``BENCHMARK.json`` at the
repository root lists the workloads and metrics and records why each
exists.
"""
