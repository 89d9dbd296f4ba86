"""Deterministic parallel map for independent sweep cells.

Worker count comes from the explicit argument, else the TASD_THREADS
environment variable (a positive integer), else the CPU count. Results
always come back in input order, so parallel runs emit byte-identical
tables.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def resolve_workers(workers: int | None = None) -> int:
    if workers is None:
        env = os.environ.get("TASD_THREADS", "").strip()
        if not env:
            return os.cpu_count() or 1
        if not env.isdecimal() or int(env) == 0:
            raise ValueError(f"TASD_THREADS must be a positive integer, got {env!r}")
        workers = int(env)
    return max(1, int(workers))


def map_ordered(fn, items, workers: int | None = None) -> list:
    items = list(items)
    count = resolve_workers(workers)
    if count == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, items))
