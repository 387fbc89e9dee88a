"""The load generator: ``loadgen.py SEED INPUT BUNDLE PORT``.

One process, ``CONNECTIONS`` client connections, each keeping
``IN_FLIGHT`` requests outstanding: a closed loop, because callers of a
routing service wait for the answer.  Commands arrive one JSON line at a
time on stdin:

* ``{"round": N}`` sends round N's fixed request sequence, then one
  ``compact``, then checks every answer and the compacted bundle
  against the benchmark's own model (untimed, with the server idle);
* ``{"stats": true}`` returns the server's ``stats`` snapshot;
* ``{"exit": true}`` closes the connections and exits.

Latencies are client-observed: from the call to its answer.  A round's
answers are cut, in the order they arrive, into segments of
``SEGMENT`` requests; each segment gives a throughput and latency
quantiles, and the run reports medians over all its segments.  A stall
of the shared box (a slow ``fsync`` of the WAL, a core taken away for
a moment) then moves the few segments it falls in rather than a whole
round's figures.
"""

from __future__ import annotations

import asyncio
import itertools
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import checks
from common import Calibrated, commands, emit, quantile
from serveops import SequenceState, round_rng
from workloads import CONNECTIONS, IN_FLIGHT

#: Requests per measured segment of a round (8 segments of 8,000).
SEGMENT = 1000
#: One answered request: (answered at, latency, whether it was a write).
Answer = Tuple[float, float, bool]


def segments(done: List[Answer], start: float, cal: Calibrated) -> List[Dict[str, float]]:
    """Calibrated throughput and latency quantiles of each whole segment."""
    done = sorted(done)
    out = []
    for i in range(0, len(done) - SEGMENT + 1, SEGMENT):
        part = done[i:i + SEGMENT]
        began = done[i - 1][0] if i else start
        figures = {"requests_per_s": cal.scale_rate(SEGMENT / (part[-1][0] - began))}
        for kind, write in (("read", False), ("write", True)):
            lat = [x for _, x, w in part if w is write]
            for name, q in (("p50", 0.5), ("p90", 0.9)):
                figures[f"{kind}_{name}_ms"] = cal.scale(quantile(lat, q)) * 1e3
        out.append(figures)
    return out


class Load:
    def __init__(self, seed: int, src: Path, bundle: Path, port: int) -> None:
        from repro.service.client import ServiceClient

        self.seed = seed
        self.bundle = bundle
        input_edges = checks.parse_edge_file(src)
        self.model = checks.AdjacencyModel(input_edges)
        self.state = SequenceState(input_edges)
        self.clients = [
            ServiceClient("127.0.0.1", port, wire="binary", call_timeout=120.0, max_retries=3)
            for _ in range(CONNECTIONS)
        ]

    async def connect(self) -> None:
        for client in self.clients:
            await client.connect()

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def round(self, index: int) -> Dict[str, object]:
        from repro.service.client import ServiceError

        ops = self.state.round_ops(round_rng(self.seed, index))
        clock = itertools.count()
        queue = iter(ops)
        done: List[Answer] = []
        neighbor_answers: List[Tuple[int, List[int], int, int]] = []
        edge_answers: List[Tuple[int, int, int]] = []
        failures: List[str] = []

        async def caller(client) -> None:
            for op, args in queue:
                sent = next(clock)
                mutation = None
                if op in ("insert_edge", "delete_edge"):
                    mutation = checks.Mutation(op == "insert_edge", args["u"], args["v"], sent)
                    self.model.record(mutation)
                t0 = time.perf_counter()
                try:
                    if op == "insert_edge":
                        result = await client.insert_edge(args["u"], args["v"])
                    elif op == "delete_edge":
                        result = await client.delete_edge(args["u"], args["v"])
                    else:
                        result = await client.call(op, **args)
                except ServiceError as exc:
                    failures.append(f"{op} {args}: {exc}")
                    continue
                t1 = time.perf_counter()
                answered = next(clock)
                done.append((t1, t1 - t0, mutation is not None))
                if mutation is not None:
                    mutation.acked = answered
                    continue
                if op == "neighbors":
                    neighbor_answers.append((args["v"], result["neighbors"], sent, answered))
                elif op == "edge":
                    edge_answers.append((args["u"], args["v"], result["partition"]))

        callers = [
            caller(client) for client in self.clients for _ in range(IN_FLIGHT)
        ]
        with Calibrated() as load_cal:
            load_start = time.perf_counter()
            await asyncio.gather(*callers)
            load_raw = time.perf_counter() - load_start
        with Calibrated() as compact_cal:
            t0 = time.perf_counter()
            info = await self.clients[0].compact()
            compact_raw = time.perf_counter() - t0

        errors: List[str] = []
        try:
            for v, answer, sent, answered in neighbor_answers:
                self.model.check_neighbors(v, answer, sent, answered)
            self.model.settle()
            # The compacted manifest's replication_factor is not checked:
            # compaction copies it from the bundle it folded, so it is
            # stale whenever the writes moved the RF — which they do on
            # most seeds but not all.  The live figure is checked instead.
            _, parts = checks.read_bundle(self.bundle)
            checks.check_compacted(self.model, parts)
            checks.check_edge_answers(edge_answers, parts)
            checks.check_rf(parts, info["replication_factor"], "the server after compaction")
        except checks.CheckError as exc:
            errors.append(str(exc))
        return {
            "requests": len(ops),
            "failures": failures,
            "errors": errors,
            "load_raw_s": load_raw,
            "load_factor": load_cal.factor,
            "segments": segments(done, load_start, load_cal),
            "read_raw_ms": [x * 1e3 for _, x, w in done if not w],
            "write_raw_ms": [x * 1e3 for _, x, w in done if w],
            "compact_raw_s": compact_raw,
            "compact_factor": compact_cal.factor,
            "compact_s": compact_cal.scale(compact_raw),
        }


async def serve_commands(load: Load) -> None:
    await load.connect()
    emit({"ready": True})
    try:
        for command in commands():
            if "exit" in command:
                break
            if "stats" in command:
                emit(await load.clients[0].call("stats"))
            else:
                emit(await load.round(int(command["round"])))
    finally:
        await load.close()


def main() -> int:
    seed, src, bundle, port = sys.argv[1:5]
    load = Load(int(seed), Path(src), Path(bundle), int(port))
    asyncio.run(serve_commands(load))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
