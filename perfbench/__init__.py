"""Wall-clock benchmark of the recursive runtime on the workerpool backend.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in the calling process; see
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
