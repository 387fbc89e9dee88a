"""The offline workers: one round of one part of the pipeline per command.

``offline.py PART WORKLOAD SEED INPUT TRACE`` reads one JSON command per
line on stdin — ``{"round": DIR}`` runs a round writing its bundles
under DIR, ``{"exit": true}`` reports this process's peak memory and
exits — and answers each with one JSON line.  PART is ``tlp`` or
``stream``; the two parts run in two processes that do nothing else, so
each one's ``VmHWM`` is the memory of its own measured work and a rise
in the streaming partitioner's memory is not hidden under the in-memory
build's peak.

A plain round times the calls a user makes:

* ``tlp``: ``build`` — ``read_edge_list`` -> ``TLPPartitioner(backend="csr")``
  -> ``save_partition`` with the CSR sidecar (the RF written into the
  manifest is computed between the two timed spans); then ``refine`` —
  ``refine_bundle`` on a fresh copy of that bundle (with or without the
  swap phase, per workload);
* ``stream``: ``partition_stream`` of the same edge file.

An operation that raises is reported in the round's ``failures`` with
its message, and the operations that depend on it (a refine needs the
build's bundle) are reported failed with it.  A traced round (TRACE=1)
also times each public call underneath on its own, and reads the
program's own counters.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from common import Calibrated, commands, emit, vm_hwm_mib
from workloads import PARTITIONS, WORKLOADS, Workload

#: Whole and split builds a traced round alternates.
TRACE_REPEATS = 3


def _mib(path: Path) -> float:
    return path.stat().st_size / (1 << 20)


def whole_build(wl: Workload, seed: int, src: Path, out: Path) -> float:
    """Edge file -> bundle with sidecar; returns raw seconds (RF untimed)."""
    from repro.core.tlp import TLPPartitioner
    from repro.graph.io import read_edge_list
    from repro.partitioning.metrics import replication_factor
    from repro.partitioning.serialization import save_partition

    t0 = time.perf_counter()
    graph = read_edge_list(src)
    partition = TLPPartitioner(seed=seed, backend="csr").partition(graph, PARTITIONS)
    t1 = time.perf_counter()
    rf = replication_factor(partition, graph)
    t2 = time.perf_counter()
    save_partition(
        partition, out, metadata={"algorithm": "TLP", "seed": seed, "replication_factor": rf}
    )
    return (t1 - t0) + (time.perf_counter() - t2)


def build(wl: Workload, seed: int, src: Path, out: Path) -> Dict[str, object]:
    with Calibrated() as cal:
        raw = whole_build(wl, seed, src, out)
    return {"build_raw_s": raw, "build_factor": cal.factor, "build_s": cal.scale(raw)}


def refine(wl: Workload, src: Path, out: Path) -> Dict[str, object]:
    from repro.partitioning.refine import refine_bundle

    shutil.copytree(src, out)
    with Calibrated() as cal:
        t0 = time.perf_counter()
        _, stats = refine_bundle(out, swaps=wl.refine_swaps)
        raw = time.perf_counter() - t0
    return {
        "refine_raw_s": raw,
        "refine_factor": cal.factor,
        "refine_s": cal.scale(raw),
        "refine_rf_before": stats.rf_before,
        "refine_rf_after": stats.rf_after,
    }


def stream(wl: Workload, src: Path, out: Path) -> Dict[str, object]:
    from repro.partitioning.oocore import partition_stream

    with Calibrated() as cal:
        t0 = time.perf_counter()
        result = partition_stream(
            src,
            out,
            num_partitions=PARTITIONS,
            memory_budget=wl.memory_budget,
            metadata={"algorithm": "oocore-2ps"},
        )
        raw = time.perf_counter() - t0
    return {
        "stream_raw_s": raw,
        "stream_factor": cal.factor,
        "stream_s": cal.scale(raw),
        "stream_rf": result.replication_factor,
        "sketch": result.sketch_kind,
        "oocore.pass1_s": cal.scale(result.pass1_seconds),
        "oocore.pass2_s": cal.scale(result.pass2_seconds),
        "oocore.fold_s": cal.scale(result.bundle_seconds),
        "oocore.clusters": result.num_clusters,
    }


def traced_layers(wl: Workload, seed: int, src: Path, out: Path) -> Dict[str, object]:
    """Each public call under build and refine timed on its own.

    The split build alternates with whole builds inside one calibration
    bracket, so the stage sum and the whole build it should add up to
    are timed at the same moments of the box's speed.
    """
    from repro.core.stages import STAGE_ONE, STAGE_TWO
    from repro.core.tlp import TLPPartitioner
    from repro.graph.io import read_edge_list
    from repro.partitioning import csr_bundle
    from repro.partitioning.metrics import replication_factor
    from repro.partitioning.refine import LocalSearchRefiner
    from repro.partitioning.serialization import load_partition, save_partition

    spans: Dict[str, List[float]] = {}
    wholes: List[float] = []

    def timed(name: str, call):
        t0 = time.perf_counter()
        result = call()
        spans.setdefault(name, []).append(time.perf_counter() - t0)
        return result

    with Calibrated() as cal:
        for i in range(TRACE_REPEATS):
            if i % 2 == 0:  # alternate which of the two runs warm
                wholes.append(whole_build(wl, seed, src, out / f"whole{i}"))
            split = out / f"split{i}"
            sidecar = split / csr_bundle.SIDECAR_NAME
            graph = timed("io.read_s", lambda: read_edge_list(src))
            tlp = TLPPartitioner(seed=seed, backend="csr")
            partition = timed("core.grow_s", lambda: tlp.partition(graph, PARTITIONS))
            rf = replication_factor(partition, graph)
            timed(
                "serialization.save_s",
                lambda: save_partition(
                    partition, split, metadata={"replication_factor": rf}, sidecar=False
                ),
            )
            timed(
                "csr_bundle.sidecar_s",
                lambda: csr_bundle.sidecar_checksum(
                    csr_bundle.write_sidecar(csr_bundle.build_partition_csr(partition), sidecar)
                ),
            )
            if i % 2 == 1:
                wholes.append(whole_build(wl, seed, src, out / f"whole{i}"))
        loaded = timed("serialization.load_s", lambda: load_partition(out / "tlp"))
        refined, stats = timed(
            "refine.search_s", lambda: LocalSearchRefiner(swaps=wl.refine_swaps).refine(loaded)
        )
    telemetry = tlp.last_telemetry
    stages = ("io.read_s", "core.grow_s", "serialization.save_s", "csr_bundle.sidecar_s")
    record: Dict[str, object] = {
        name: cal.scale(statistics.median(raw)) for name, raw in spans.items()
    }
    record.update(
        {
            "build_stages_over_whole": statistics.median(
                sum(spans[name][i] for name in stages) / wholes[i]
                for i in range(TRACE_REPEATS)
            ),
            "core.stage1_selections": telemetry.selection_count(STAGE_ONE),
            "core.stage2_selections": telemetry.selection_count(STAGE_TWO),
            "core.reseeds": telemetry.reseeds,
            "serialization.edges_mib": sum(_mib(p) for p in split.glob("part_*.edges*")),
            "csr_bundle.sidecar_mib": _mib(sidecar),
            "refine.moves": stats.moves,
            "refine.swaps": stats.swaps,
            "refine.passes": stats.passes,
        }
    )
    return record


def traced_scan(src: Path) -> Dict[str, object]:
    """One bare pass over the edge file: the read/parse floor under both passes."""
    from repro.graph.chunked import ChunkedEdgeStream

    with Calibrated() as cal:
        t0 = time.perf_counter()
        sum(1 for _ in ChunkedEdgeStream(src).edges())
        raw = time.perf_counter() - t0
    return {"chunked.scan_s": cal.scale(raw)}


def attempt(name: str, call: Callable[[], Dict[str, object]], record: Dict[str, object]) -> bool:
    """Run one operation; on an exception record it as failed and go on."""
    try:
        record.update(call())
    except Exception as exc:  # any fault of the program is one failed operation
        record["failures"].append(f"{name}: {type(exc).__name__}: {exc}")
        return False
    return True


def tlp_round(wl: Workload, seed: int, src: Path, out: Path, trace: bool) -> Dict[str, object]:
    record: Dict[str, object] = {"failures": []}
    if not attempt("build", lambda: build(wl, seed, src, out / "tlp"), record):
        record["failures"].append("refine: not run, the build it refines failed")
        return record
    if attempt("refine", lambda: refine(wl, out / "tlp", out / "refined"), record) and trace:
        record.update(traced_layers(wl, seed, src, out))
    return record


def stream_round(wl: Workload, src: Path, out: Path, trace: bool) -> Dict[str, object]:
    record: Dict[str, object] = {"failures": []}
    if attempt("stream", lambda: stream(wl, src, out / "streamed"), record) and trace:
        record.update(traced_scan(src))
    return record


def main() -> int:
    part, name, seed, src = sys.argv[1], sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    trace = sys.argv[5] == "1"
    wl = WORKLOADS[name]
    # Import (and compile the native kernel, if not cached) before the
    # first round, so no round pays one-off set-up.  The streaming
    # partitioner does not use the kernel, so its worker never loads it.
    if part == "stream":
        import repro.partitioning.oocore  # noqa: F401

        emit({"ready": True})
    else:
        from repro import _native
        import repro.partitioning.refine  # noqa: F401

        emit({"ready": True, "native_kernel": _native.load_kernel() is not None})
    for command in commands():
        if "exit" in command:
            emit({"vm_hwm_mib": vm_hwm_mib()})
            return 0
        out = Path(str(command["round"]))
        out.mkdir(parents=True, exist_ok=True)
        if part == "stream":
            emit(stream_round(wl, src, out, trace))
        else:
            emit(tlp_round(wl, seed, src, out, trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
