"""Shared helpers: calibration, memory readings, statistics, child processes.

Every process of the benchmark imports this module from the benchmark's
own directory; none of it touches the program under test.

**Calibration.**  A shared two-core box runs a fixed pure-Python loop up
to 45% slower in one process than in the next, so raw seconds from two
runs cannot tell a 10% change from noise.  Each measured call is
therefore bracketed by timings of :func:`reference_loop` in the same
process, and every time is scaled by ``factor = NOMINAL_REF_S /
ref_s`` — the call's cost expressed in reference-loop units, converted
back to seconds on the box the nominal figure was taken on.  Raw values
and factors are reported next to the calibrated ones.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Iterations of the reference loop; about 24 ms on the reference box.
REF_ITERATIONS = 60_000
#: Timings of the loop taken on each side of a measured call.
REF_REPEATS = 10
#: Median time of one reference loop on the reference box (2-core x86-64
#: VM, Python 3.11.7), the unit every calibrated time is expressed in.
NOMINAL_REF_S = 0.0240


def reference_loop(n: int = REF_ITERATIONS) -> int:
    """A fixed interpreter-bound loop: dict, int and list work, then a sort."""
    table: Dict[int, int] = {}
    acc = 0
    items: List[int] = []
    for i in range(n):
        key = (i * 2654435761) & 0x3FFF
        table[key] = table.get(key, 0) + 1
        if i & 7 == 0:
            items.append(key)
        acc += key % 7
    items.sort()
    return acc + len(table) + len(items)


def time_reference(repeats: int = REF_REPEATS) -> float:
    """Median seconds of ``repeats`` runs of the reference loop."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Calibrated:
    """Reference-loop bracket around a measured block.

    ``with Calibrated() as cal:`` times the reference loop on entry and
    on exit; the block times its own spans and converts each with
    :meth:`scale` (seconds) or :meth:`scale_rate` (events per second).
    """

    def __init__(self) -> None:
        self.before = 0.0
        self.after = 0.0

    def __enter__(self) -> "Calibrated":
        self.before = time_reference()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.after = time_reference()

    @property
    def factor(self) -> float:
        return NOMINAL_REF_S / math.sqrt(self.before * self.after)

    def scale(self, raw_s: float) -> float:
        return raw_s * self.factor

    def scale_rate(self, raw_per_s: float) -> float:
        return raw_per_s / self.factor


def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process), MiB.

    ``ru_maxrss`` is not used: it survives fork and exec, so a child would
    report its parent's high-water mark.
    """
    status = Path(f"/proc/{pid or 'self'}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def serving_cpus() -> Optional[Dict[str, int]]:
    """CPUs to pin the load generator and the server to, one each.

    Left to the scheduler, the two processes of a closed loop sometimes
    share one core and sometimes run on two, and keep either placement
    for a whole run; the two placements differ in throughput by a third.
    ``None`` when this process may run on one CPU only.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {"load": cpus[0], "server": cpus[1]} if len(cpus) >= 2 else None


def pinned(cpu: Optional[int]):
    """A ``preexec_fn`` that pins the child (and every thread it starts) to ``cpu``."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def flush_files(directory: Path) -> None:
    """``fsync`` every regular file under ``directory``.

    Run before each serving load.  The kernel writes a file's dirty pages
    back some seconds after they were written, and on ext4 an ``fsync``
    of the WAL waits for the dirty data of other files too; without this,
    the bundles a round has just written would be written back inside a
    later load, at a moment that differs from run to run.
    """
    for path in directory.rglob("*"):
        try:
            fd = os.open(path, os.O_RDONLY) if path.is_file() else None
        except FileNotFoundError:  # removed since the walk listed it
            continue
        if fd is not None:
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def dir_mib(directory: Path) -> float:
    """Bytes of the regular files directly under ``directory``, in MiB."""
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file()) / (1 << 20)


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``ceil(q * n)``-th smallest) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: Iterable[float]) -> float:
    return statistics.median(list(samples))


def emit(record: Dict[str, object]) -> None:
    """Write one JSON line to stdout (the child -> parent channel)."""
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def commands() -> Iterable[Dict[str, object]]:
    """JSON commands read one per line from stdin (parent -> child)."""
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield json.loads(line)
