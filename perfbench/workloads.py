"""The workloads: one input each, run through the whole user pipeline.

Every run of every workload does the same round of operations —
build a TLP bundle from the edge file, refine a copy of it, stream the
same file through the out-of-core partitioner, and serve the TLP bundle
under a fixed sequence of reads and writes followed by one compaction —
so every end-to-end metric is measured on every workload.  The inputs
differ in what they stress:

* ``social`` — the Email-Enron (G4) stand-in: power-law degrees and
  triadic closure.  It is the densest stand-in, the one where refine's
  plateau swaps do real work on TLP output, and its hubs make the
  degree-proportional read keys repeat, so batch dedup has work.  The
  streamed build runs without a memory budget, so degrees stay exact.
* ``genealogy`` — the huapu (G9) stand-in: a near-tree forest, the most
  vertices per edge, so per-vertex state is at its largest relative to
  the stream.  The streamed build runs under a budget below what the
  exact degree table needs, so the count-min sketch serves pass 1 and
  pass 2.  Refine runs boundary moves only: on this input the number of
  plateau swaps halves or doubles from one seed to the next (318 to 677
  in the first pass), which spread refine times by a third between
  runs, while the moves do a steady amount of work.  The swap mechanism
  is measured on ``social``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Read mix of the serving round (op, share of reads): the weights of
#: ``QUERY_MIX`` in ``repro.bench.serve`` less its 0.05 of
#: ``partition_stats``, renormalised.  They are copied, not imported, so
#: that a change to the repo's own bench cannot change this benchmark.
READ_MIX: Tuple[Tuple[str, float], ...] = tuple(
    (op, weight / 0.95)
    for op, weight in (("neighbors", 0.45), ("master", 0.25), ("edge", 0.20), ("stats", 0.05))
)


PARTITIONS = 8
#: Requests per serving round, reads and writes together.
REQUESTS_PER_ROUND = 8000
#: Writes per read, the ratio the repo's serving bench is run with in CI
#: and in docs/SERVING.md (``python -m repro.bench serve --mutate 0.1``).
#: Neither that ratio nor this benchmark's mix is observed traffic: no
#: trace of real routing traffic exists for this service.  Writes are half
#: inserts and half deletes (the repo's bench deletes 30% by default), so
#: the edge count is the same after every round and every round does the
#: same work.
MUTATIONS_PER_READ = 0.1
#: Share of a round's requests that are writes: 1/11 (728 of 8,000).
WRITE_SHARE = MUTATIONS_PER_READ / (1.0 + MUTATIONS_PER_READ)
#: Client connections of the load generator, and requests each keeps in
#: flight (a closed loop: a caller waits for its answer).
CONNECTIONS = 2
IN_FLIGHT = 4


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # paper key of the stand-in (repro.datasets.catalog)
    scale: float  # vertex and edge counts relative to the published graph
    #: ``partition_stream`` memory budget in bytes (None = unbounded).
    memory_budget: Optional[int]
    #: Whether refine runs its pair-swap phase after the boundary moves.
    refine_swaps: bool


WORKLOADS: Dict[str, Workload] = {
    "social": Workload("social", "G4", 0.15, None, refine_swaps=True),
    # 3 MiB caps the exact table at 7,864 vertices; the stand-in has
    # about 10,800, so the sketch degrades to count-min mid-stream.
    "genealogy": Workload("genealogy", "G9", 0.0025, 3 << 20, refine_swaps=False),
}
