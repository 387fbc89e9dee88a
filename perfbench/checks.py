"""Independent output checks.

Nothing here calls the program under test: edge files and manifests are
parsed by this module's own code, and every expected figure is computed
here from the benchmark's input file and the mutations the load
generator itself sent.  No check compares against a stored copy of an
earlier output.  Each check raises :class:`CheckError` with a message
naming what differed.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int]

MANIFEST_NAME = "partition.json"
#: Manifest and live figures are rounded to six decimals by the program.
RF_TOLERANCE = 1e-6


class CheckError(AssertionError):
    """An output disagreed with the benchmark's own computation."""


# -- parsing -------------------------------------------------------------------


def _open(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def parse_edge_file(path: Path) -> List[Edge]:
    """Canonical ``(min, max)`` edges of a SNAP-style file.

    Comment and blank lines are skipped, as are self loops; a repeated
    edge is kept once (the normalisation every partitioner applies).
    """
    seen: Set[Edge] = set()
    edges: List[Edge] = []
    with _open(path) as fh:
        for line in fh:
            if not line.strip() or line[0] in "#%":
                continue
            a, b = line.split()[:2]
            u, v = int(a), int(b)
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges


def read_bundle(directory: Path) -> Tuple[Dict[str, object], List[List[Edge]]]:
    """The manifest and every partition's edges, exactly as stored."""
    manifest = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
    parts: List[List[Edge]] = []
    for entry in manifest["partitions"]:
        edges: List[Edge] = []
        with _open(directory / entry["file"]) as fh:
            for line in fh:
                a, b = line.split()
                edges.append((int(a), int(b)))
        parts.append(edges)
    return manifest, parts


# -- figures -------------------------------------------------------------------


def edge_hash(edges: Iterable[Edge]) -> Tuple[int, int]:
    """Order-independent multiset hash: ``(count, sum of edge digests)``.

    Each canonical edge hashes to 64 bits; summing them keeps duplicates
    visible (a repeated edge adds its digest twice) while ignoring order.
    """
    count = 0
    total = 0
    for u, v in edges:
        a, b = (u, v) if u < v else (v, u)
        digest = hashlib.blake2b(f"{a},{b}".encode(), digest_size=8).digest()
        total = (total + int.from_bytes(digest, "little")) & ((1 << 64) - 1)
        count += 1
    return count, total


def replication_factor(parts: Sequence[Sequence[Edge]]) -> float:
    """``sum_k |V(P_k)| / |V|`` over the vertices that carry an edge."""
    replicas = 0
    every: Set[int] = set()
    for edges in parts:
        here: Set[int] = set()
        for u, v in edges:
            here.add(u)
            here.add(v)
        replicas += len(here)
        every |= here
    if not every:
        raise CheckError("bundle holds no edges")
    return replicas / len(every)


# -- bundle checks -------------------------------------------------------------


def check_conservation(expected: Iterable[Edge], parts: Sequence[Sequence[Edge]]) -> None:
    """The bundle's edge multiset equals ``expected``."""
    want = edge_hash(expected)
    got = edge_hash(e for edges in parts for e in edges)
    if want != got:
        raise CheckError(
            f"edge multiset differs from the input: {got[0]} edges in the bundle, "
            f"{want[0]} expected (hash {got[1]:016x} vs {want[1]:016x})"
        )


def check_capacity(parts: Sequence[Sequence[Edge]]) -> None:
    """Every partition holds at most ``ceil(m / p)`` edges."""
    m = sum(len(edges) for edges in parts)
    cap = math.ceil(m / len(parts))
    over = [(k, len(edges)) for k, edges in enumerate(parts) if len(edges) > cap]
    if over:
        raise CheckError(f"partitions over capacity ceil(m/p)={cap}: {over}")


def check_rf(parts: Sequence[Sequence[Edge]], claimed: float, what: str) -> float:
    """RF recomputed from the edge files equals ``claimed``; returns it."""
    rf = replication_factor(parts)
    if abs(rf - float(claimed)) > RF_TOLERANCE:
        raise CheckError(f"RF from the edge files is {rf:.6f}, {what} says {float(claimed):.6f}")
    return rf


def check_refined(rf_before: float, rf_after: float) -> None:
    """Refinement never raises the replication factor."""
    if rf_after > rf_before + RF_TOLERANCE:
        raise CheckError(f"refined RF {rf_after:.6f} is above the input's {rf_before:.6f}")


def check_edge_answers(
    answers: Iterable[Tuple[int, int, int]], parts: Sequence[Sequence[Edge]]
) -> int:
    """Each ``(u, v, k)`` answer names a partition whose edge file holds ``(u, v)``."""
    owner: Dict[Edge, int] = {}
    for k, edges in enumerate(parts):
        for edge in edges:
            owner[edge] = k
    checked = 0
    for u, v, k in answers:
        edge = (u, v) if u < v else (v, u)
        if owner.get(edge) != k:
            raise CheckError(
                f"edge {edge} answered partition {k}; the edge files put it in "
                f"{owner.get(edge)}"
            )
        checked += 1
    return checked


# -- serving model -------------------------------------------------------------


class Mutation:
    """One insert or delete the load generator sent, with logical times."""

    __slots__ = ("insert", "u", "v", "sent", "acked")

    def __init__(self, insert: bool, u: int, v: int, sent: int) -> None:
        self.insert = insert
        self.u = u
        self.v = v
        self.sent = sent
        #: Logical time of the acknowledgement; ``None`` while in flight.
        self.acked: Optional[int] = None


class AdjacencyModel:
    """The graph the server should hold: the input plus acknowledged mutations.

    Times are ticks of one logical clock shared by every send and every
    answer of the load generator.  Each edge is mutated at most once, so
    a mutation acknowledged before a read was sent must show in the
    answer, one sent after the answer arrived must not, and one in flight
    at any moment in between may show or not.
    """

    def __init__(self, edges: Iterable[Edge]) -> None:
        self.adj: Dict[int, Set[int]] = {}
        for u, v in edges:
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)
        #: Mutations since the last :meth:`settle`, by endpoint.
        self.pending: Dict[int, List[Mutation]] = {}

    def edges(self) -> Iterable[Edge]:
        for u, nbrs in self.adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

    def record(self, mutation: Mutation) -> None:
        self.pending.setdefault(mutation.u, []).append(mutation)
        self.pending.setdefault(mutation.v, []).append(mutation)

    def check_neighbors(self, v: int, answer: Iterable[int], sent: int, answered: int) -> None:
        """``answer`` for ``v`` is consistent with what was acknowledged."""
        expected = set(self.adj.get(v, ()))
        either: Set[int] = set()
        for mut in self.pending.get(v, ()):
            other = mut.v if mut.u == v else mut.u
            if mut.acked is not None and mut.acked < sent:
                if mut.insert:
                    expected.add(other)
                else:
                    expected.discard(other)
            elif mut.sent < answered:
                either.add(other)
        got = set(answer)
        wrong = (got ^ expected) - either
        if wrong:
            raise CheckError(
                f"neighbors({v}) differs from the input plus acknowledged mutations "
                f"at {sorted(wrong)[:5]} (answer has {len(got)}, expected {len(expected)})"
            )

    def settle(self) -> None:
        """Fold every pending mutation in; each must have been acknowledged."""
        done: Set[int] = set()
        for muts in self.pending.values():
            for mut in muts:
                if id(mut) in done:
                    continue
                done.add(id(mut))
                if mut.acked is None:
                    raise CheckError(f"mutation {mut.u}-{mut.v} was never acknowledged")
                if mut.insert:
                    self.adj.setdefault(mut.u, set()).add(mut.v)
                    self.adj.setdefault(mut.v, set()).add(mut.u)
                else:
                    self.adj[mut.u].discard(mut.v)
                    self.adj[mut.v].discard(mut.u)
        self.pending = {}


def check_compacted(model: AdjacencyModel, parts: Sequence[Sequence[Edge]]) -> None:
    """The compacted bundle's edge set is the input plus inserts minus deletes."""
    try:
        check_conservation(model.edges(), parts)
    except CheckError as exc:
        raise CheckError(f"compacted bundle: {exc}") from None


def check_manifest_rf(manifest: Mapping[str, object], parts: Sequence[Sequence[Edge]]) -> float:
    """The manifest's ``metadata.replication_factor`` matches the edge files."""
    meta = manifest.get("metadata") or {}
    if not isinstance(meta, dict) or "replication_factor" not in meta:
        raise CheckError("manifest carries no replication_factor")
    return check_rf(parts, meta["replication_factor"], "the manifest")
