"""Write a workload's input edge file: ``gen_input.py WORKLOAD SEED OUT``.

Runs in a process of its own, so generating the graph never lands in
the peak memory of the processes that are measured.
"""

from __future__ import annotations

import sys

from workloads import WORKLOADS


def main() -> int:
    name, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    from repro.datasets.catalog import dataset_by_key
    from repro.datasets.synthetic import instantiate
    from repro.graph.io import write_edge_list

    wl = WORKLOADS[name]
    graph = instantiate(dataset_by_key(wl.dataset), scale=wl.scale, seed=seed)
    write_edge_list(graph, out, header=[f"{wl.dataset}@{wl.scale:g} seed {seed}"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
