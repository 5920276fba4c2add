"""A fixed pure-Python reference kernel that measures the host's speed.

The benchmark runs on shared hosts whose speed moves by up to a factor
of two within minutes, while nothing else runs in the machine.  Studies
of one seed then take 3.5 s in one minute and 7 s a few minutes later,
and a reference kernel timed between them slows by the same factor.
``run.py`` times :func:`block` before every study and scales each time
metric of the run by ``REFERENCE_S / mean block time``: a metric reads
as it would on a host where one kernel pass takes ``REFERENCE_S``.

The kernel uses only the standard library and nothing under ``src/``,
so a change to the program moves study time but not the kernel.  Its
work is the same every time: dict inserts, a seeded shuffle, lookups, a
sort and grouping, the operations the simulation spends its time on.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter
from typing import Dict, List

#: The pass time reported times are scaled to; only their scale depends
#: on it.  A 2-vCPU Intel Xeon VM with Python 3.11.7 took 0.16-0.24 s.
REFERENCE_S = 0.15
#: Kernel passes per block.
PASSES = 6
ENTRIES = 60_000


def kernel() -> int:
    """One pass of fixed work; returns a checksum so none of it is dead."""
    rng = random.Random(12345)
    table: Dict[int, list] = {}
    for i in range(ENTRIES):
        table[(i * 2654435761) % 1_000_003] = [i, str(i), (i, i + 1)]
    keys = list(table)
    rng.shuffle(keys)
    total = 0
    for key in keys:
        row = table[key]
        total += row[0] + len(row[1])
    keys.sort()
    groups: Dict[int, List[int]] = {}
    for key in keys:
        groups.setdefault(key % 977, []).append(key)
    return total + sum(len(group) for group in groups.values())


def block(passes: int = PASSES) -> float:
    """Mean wall seconds of one kernel pass, over ``passes`` passes.

    Cyclic garbage collection is paused, as the program pauses it in
    its stages, so when a collection happens in the caller's heap does
    not move the block's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(passes):
            kernel()
        return (perf_counter() - start) / passes
    finally:
        if was_enabled:
            gc.enable()
