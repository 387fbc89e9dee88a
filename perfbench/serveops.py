"""The serving round's request sequence, drawn from a seed.

Keys are drawn in proportion to degree (a uniformly chosen endpoint of a
uniformly chosen input edge), so hubs repeat and batch dedup has work.
Writes touch existing vertices only and keep every edge mutated at most
once per run, which is what lets :class:`checks.AdjacencyModel` decide
exactly which answers a mutation may or may not show:

* an insert joins two input vertices that have never been adjacent;
* a delete removes an input edge whose endpoints both keep another
  input edge, so no vertex ever leaves the store.

Edge lookups target input edges that no write of the round deletes, so
each names an edge that exists for the whole round.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

from workloads import READ_MIX, REQUESTS_PER_ROUND, WRITE_SHARE

Edge = Tuple[int, int]
Op = Tuple[str, Dict[str, int]]


class EdgePool:
    """Input edges still alive, with O(1) uniform choice and removal."""

    def __init__(self, edges: Sequence[Edge]) -> None:
        self.items: List[Edge] = list(edges)
        self.pos: Dict[Edge, int] = {e: i for i, e in enumerate(self.items)}

    def remove(self, edge: Edge) -> None:
        i = self.pos.pop(edge)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i


class SequenceState:
    """What the writes of earlier rounds changed, so later rounds stay valid."""

    def __init__(self, input_edges: Sequence[Edge]) -> None:
        self.endpoints: List[int] = [x for e in input_edges for x in e]
        self.input_set: Set[Edge] = set(input_edges)
        self.alive = EdgePool(input_edges)
        #: Alive input edges per vertex (inserted edges never count).
        self.input_degree: Dict[int, int] = {}
        for u, v in input_edges:
            self.input_degree[u] = self.input_degree.get(u, 0) + 1
            self.input_degree[v] = self.input_degree.get(v, 0) + 1
        self.inserted: Set[Edge] = set()

    def key(self, rng: random.Random) -> int:
        return rng.choice(self.endpoints)

    def round_ops(self, rng: random.Random) -> List[Op]:
        writes = 2 * round(REQUESTS_PER_ROUND * WRITE_SHARE / 2)
        ops: List[Op] = []
        for _ in range(writes // 2):
            ops.append(("delete_edge", self._pick_delete(rng)))
            ops.append(("insert_edge", self._pick_insert(rng)))
        reads = REQUESTS_PER_ROUND - writes
        for op, share in READ_MIX:
            for _ in range(round(reads * share)):
                if op in ("neighbors", "master"):
                    ops.append((op, {"v": self.key(rng)}))
                elif op == "edge":
                    u, v = rng.choice(self.alive.items)
                    ops.append((op, {"u": u, "v": v}))
                else:
                    ops.append((op, {}))
        del ops[REQUESTS_PER_ROUND:]
        rng.shuffle(ops)
        return ops

    def _pick_delete(self, rng: random.Random) -> Dict[str, int]:
        while True:
            u, v = rng.choice(self.alive.items)
            if self.input_degree[u] >= 2 and self.input_degree[v] >= 2:
                self.alive.remove((u, v))
                self.input_degree[u] -= 1
                self.input_degree[v] -= 1
                return {"u": u, "v": v}

    def _pick_insert(self, rng: random.Random) -> Dict[str, int]:
        while True:
            a, b = self.key(rng), self.key(rng)
            edge = (a, b) if a < b else (b, a)
            if a != b and edge not in self.input_set and edge not in self.inserted:
                self.inserted.add(edge)
                return {"u": edge[0], "v": edge[1]}


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"perfbench:{seed}:{index}")
