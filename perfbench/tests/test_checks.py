"""The benchmark's output checks reject broken bundles and stale answers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each test breaks one thing in a real bundle (written by the program's
own ``save_partition``) or in one answer, and shows the check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import checks  # noqa: E402
from checks import AdjacencyModel, CheckError, Mutation  # noqa: E402

#: A 4-cycle with a chord, two partitions of sizes 3 and 2.
EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
PARTS = [[(0, 1), (0, 2), (1, 2)], [(0, 3), (2, 3)]]


@pytest.fixture
def bundle(tmp_path: Path) -> Path:
    from repro.partitioning.assignment import EdgePartition
    from repro.partitioning.serialization import save_partition

    directory = tmp_path / "bundle"
    rf = checks.replication_factor(PARTS)
    save_partition(EdgePartition(PARTS), directory, metadata={"replication_factor": rf})
    return directory


def _rewrite_part(bundle: Path, k: int, edges) -> None:
    manifest = json.loads((bundle / checks.MANIFEST_NAME).read_text())
    path = bundle / manifest["partitions"][k]["file"]
    path.write_text("".join(f"{u}\t{v}\n" for u, v in edges))


def test_intact_bundle_passes_every_check(bundle: Path) -> None:
    manifest, parts = checks.read_bundle(bundle)
    checks.check_conservation(EDGES, parts)
    checks.check_capacity(parts)
    assert checks.check_manifest_rf(manifest, parts) == pytest.approx(6 / 4)
    assert checks.check_edge_answers([(0, 1, 0), (3, 2, 1)], parts) == 2


def test_dropped_edge_fails_conservation(bundle: Path) -> None:
    _rewrite_part(bundle, 1, [(0, 3)])
    _, parts = checks.read_bundle(bundle)
    with pytest.raises(CheckError, match="4 edges in the bundle, 5 expected"):
        checks.check_conservation(EDGES, parts)


def test_duplicated_edge_fails_conservation(bundle: Path) -> None:
    _rewrite_part(bundle, 1, [(0, 3), (2, 3), (0, 1)])
    _, parts = checks.read_bundle(bundle)
    with pytest.raises(CheckError, match="edge multiset differs"):
        checks.check_conservation(EDGES, parts)


def test_swapped_edge_fails_conservation(bundle: Path) -> None:
    _rewrite_part(bundle, 1, [(0, 3), (1, 3)])
    _, parts = checks.read_bundle(bundle)
    with pytest.raises(CheckError, match="5 edges in the bundle, 5 expected"):
        checks.check_conservation(EDGES, parts)


def test_edge_in_wrong_partition_fails_edge_answers(bundle: Path) -> None:
    _rewrite_part(bundle, 0, [(0, 1), (0, 2)])
    _rewrite_part(bundle, 1, [(0, 3), (1, 2), (2, 3)])
    _, parts = checks.read_bundle(bundle)
    checks.check_conservation(EDGES, parts)
    with pytest.raises(CheckError, match=r"edge \(1, 2\) answered partition 0"):
        checks.check_edge_answers([(2, 1, 0)], parts)


def test_over_capacity_partition_fails(bundle: Path) -> None:
    _rewrite_part(bundle, 0, [(0, 1), (0, 2), (1, 2), (2, 3)])
    _rewrite_part(bundle, 1, [(0, 3)])
    _, parts = checks.read_bundle(bundle)
    checks.check_conservation(EDGES, parts)
    with pytest.raises(CheckError, match=r"ceil\(m/p\)=3: \[\(0, 4\)\]"):
        checks.check_capacity(parts)


def test_stale_manifest_rf_fails(bundle: Path) -> None:
    _rewrite_part(bundle, 0, [(0, 1), (0, 2)])
    _rewrite_part(bundle, 1, [(0, 3), (1, 2), (2, 3)])
    manifest, parts = checks.read_bundle(bundle)
    with pytest.raises(CheckError, match="RF from the edge files is 1.750000, the manifest says 1.500000"):
        checks.check_manifest_rf(manifest, parts)


def test_refined_rf_above_input_fails() -> None:
    checks.check_refined(1.5, 1.5)
    with pytest.raises(CheckError, match="above"):
        checks.check_refined(1.5, 1.51)


def _model_with(insert: bool, u: int, v: int, sent: int, acked) -> AdjacencyModel:
    model = AdjacencyModel(EDGES)
    mutation = Mutation(insert, u, v, sent)
    mutation.acked = acked
    model.record(mutation)
    return model


def test_stale_neighbor_list_fails() -> None:
    # Insert 1-3 acknowledged at t=2; a read of 1 sent at t=5 must show it.
    model = _model_with(True, 1, 3, sent=1, acked=2)
    model.check_neighbors(1, [0, 2, 3], sent=5, answered=6)
    with pytest.raises(CheckError, match=r"neighbors\(1\) differs .* at \[3\]"):
        model.check_neighbors(1, [0, 2], sent=5, answered=6)


def test_deleted_neighbor_still_listed_fails() -> None:
    model = _model_with(False, 0, 2, sent=1, acked=2)
    model.check_neighbors(2, [1, 3], sent=5, answered=6)
    with pytest.raises(CheckError, match=r"at \[0\]"):
        model.check_neighbors(2, [0, 1, 3], sent=5, answered=6)


def test_in_flight_mutation_may_show_or_not() -> None:
    # Acknowledged after the read was sent: either answer is consistent.
    model = _model_with(True, 1, 3, sent=4, acked=7)
    model.check_neighbors(1, [0, 2], sent=5, answered=6)
    model.check_neighbors(1, [0, 2, 3], sent=5, answered=6)
    # Sent after the answer arrived: it must not show.
    late = _model_with(True, 1, 3, sent=8, acked=9)
    with pytest.raises(CheckError):
        late.check_neighbors(1, [0, 2, 3], sent=5, answered=6)


def test_compacted_bundle_must_hold_inserts_minus_deletes(bundle: Path) -> None:
    model = _model_with(False, 0, 2, sent=1, acked=2)
    model.settle()
    _, parts = checks.read_bundle(bundle)
    with pytest.raises(CheckError, match="compacted bundle"):
        checks.check_compacted(model, parts)
    _rewrite_part(bundle, 0, [(0, 1), (1, 2)])
    _, parts = checks.read_bundle(bundle)
    checks.check_compacted(model, parts)


def test_unacknowledged_mutation_fails_settle() -> None:
    model = _model_with(True, 1, 3, sent=1, acked=None)
    with pytest.raises(CheckError, match="never acknowledged"):
        model.settle()


def test_input_parse_normalises(tmp_path: Path) -> None:
    path = tmp_path / "g.txt"
    path.write_text("# header\n3 1\n1 3\n2 2\n\n1\t2\n")
    assert checks.parse_edge_file(path) == [(1, 3), (1, 2)]
