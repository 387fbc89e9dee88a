"""Serving layers timed call by call: ``layers.py SEED BUNDLE SCRATCH BATCH``.

Runs only in the traced run, after the server has stopped, on copies of
the compacted bundle and on one freshly drawn round of the run's own
request sequence.  Each figure is one public call of one module, timed
on its own and divided by the items it handled.  Prints one JSON line.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import checks
from common import Calibrated, emit
from serveops import SequenceState, round_rng
from workloads import PARTITIONS

OPEN_REPEATS = 5
WAL_RECORDS = 400


def main() -> int:
    seed, bundle, scratch, batch = sys.argv[1:5]
    bundle, scratch, batch_size = Path(bundle), Path(scratch), max(1, round(float(batch)))
    from repro.service import protocol
    from repro.service.handler import ServiceHandler
    from repro.service.ingest import Ingestor
    from repro.service.store import PartitionStore, StoreManager
    from repro.service.wal import WriteAheadLog

    _, parts = checks.read_bundle(bundle)
    state = SequenceState([e for edges in parts for e in edges])
    ops = state.round_ops(round_rng(int(seed), -1))
    reads = [protocol.request(i, op, args) for i, (op, args) in enumerate(ops)
             if op not in ("insert_edge", "delete_edge")]
    writes = [protocol.request(i, op, args) for i, (op, args) in enumerate(ops)
              if op in ("insert_edge", "delete_edge")]
    neighbor_keys = [r["args"]["v"] for r in reads if r["op"] == "neighbors"]
    master_keys = [r["args"]["v"] for r in reads if r["op"] == "master"]
    edge_pairs = [(r["args"]["u"], r["args"]["v"]) for r in reads if r["op"] == "edge"]
    spans: Dict[str, float] = {}

    def timed(name: str, per: int, call):
        t0 = time.perf_counter()
        result = call()
        spans[name] = (time.perf_counter() - t0) / per
        return result

    with Calibrated() as cal:
        opens: List[float] = []
        for _ in range(OPEN_REPEATS):
            t0 = time.perf_counter()
            store = PartitionStore.open(bundle)
            opens.append(time.perf_counter() - t0)
        spans["store.open_s"] = statistics.median(opens)

        handler = ServiceHandler(store)
        batches = [reads[i:i + batch_size] for i in range(0, len(reads), batch_size)]
        responses = timed(
            "handler.read_us", len(reads),
            lambda: [r for b in batches for r in handler.execute_batch(b)],
        )
        payloads = reads + responses
        frames = timed(
            "protocol.encode_us", len(payloads),
            lambda: [protocol.encode_frame(p, protocol.WIRE_BINARY) for p in payloads],
        )
        timed("protocol.decode_us", len(frames), lambda: [protocol.decode_body(f[4:]) for f in frames])
        timed("store.neighbors_many_us", len(neighbor_keys), lambda: store.neighbors_many(neighbor_keys))
        timed("store.route_many_us", len(master_keys), lambda: store.route_many(master_keys))
        timed("store.owners_many_us", len(edge_pairs), lambda: store.owners_many(edge_pairs))

        mutable = scratch / "mutable"
        shutil.copytree(bundle, mutable)
        manager = StoreManager(PartitionStore.open(mutable))
        ingestor = Ingestor.enable(manager, mutable, fsync="batch")
        writer = ServiceHandler(manager)
        writer.attach_ingestor(ingestor)
        answers = timed("handler.write_us", len(writes), lambda: [writer.execute(w) for w in writes])
        bad = [a for a in answers if not a.get("ok")]
        if bad:
            raise SystemExit(f"write refused in the layer probe: {bad[0]}")
        ingestor.wal.sync()
        wal_bytes = ingestor.wal.size
        timed("ingest.fold_s", 1, lambda: ingestor.overlay.to_partition())
        ingestor.close()

        wal = WriteAheadLog(scratch / "probe.wal", fsync="never")
        wal.open()
        records = [
            {"op": "insert", "u": i, "v": i + 1, "k": i % PARTITIONS, "seq": i,
             "client": "perfbench", "cseq": i}
            for i in range(WAL_RECORDS)
        ]
        timed("wal.append_us", WAL_RECORDS, lambda: [wal.append(r) for r in records])
        wal.close()
        synced = WriteAheadLog(scratch / "sync.wal", fsync="batch", batch_interval=3600.0)
        synced.open()
        sync_s: List[float] = []
        for record in records[:50]:
            synced.append(record)
            t0 = time.perf_counter()
            synced.sync()
            sync_s.append(time.perf_counter() - t0)
        synced.close()
        spans["wal.sync_us"] = statistics.median(sync_s)

    metrics: Dict[str, float] = {}
    for name, raw in spans.items():
        value = cal.scale(raw)
        metrics[name] = value * 1e6 if name.endswith("_us") else value
    metrics["wal.bytes_per_mutation"] = wal_bytes / len(writes)
    emit(metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
