#!/usr/bin/env python3
"""Self-test of the benchmark: the work counters of one small seeded run.

    python3 perfbench/selftest.py

Runs one traced set-up and one traced job of every workload on the
default seed and compares each machine-independent per-layer counter
(the per-layer metrics with unit ``count`` or ``bytes``, except the
worker count) with ``counters.json``. Exits 0 when all match and prints
the differences otherwise.

The counters describe the work the program does, so a change that
removes redundant work (fewer decompositions or oracle matmuls, say)
changes them on purpose; such a change records the new values here.
The same file gives the redundancy gates on ``greedy_search``:
``workload.oracle.decompositions`` against ``workload.oracle.distinct_pairs``,
and ``workload.oracle.matmuls`` against (pairs + layers) x samples.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
from pathlib import Path

import run

PINNED = Path(__file__).resolve().parent / "counters.json"
MACHINE_DEPENDENT = {"parallel.workers"}


def counters(spec) -> dict[str, dict[str, int]]:
    names = [
        m["name"]
        for m in spec["per_layer"]
        if m["unit"] in ("count", "bytes") and m["name"] not in MACHINE_DEPENDENT
    ]
    import workloads

    observed = {}
    for w in spec["workloads"]:
        wl = workloads.WORKLOADS[w["name"]](run.DEFAULT_SEED)
        work = run.ROOT / ".perfbench_work" / f"selftest-{w['name']}"
        outputs = run.Outputs(None)
        try:
            state, setup, _ = run.traced_setup(wl, work)
            job, metrics = run.traced_job(wl, state)
            outputs.check(wl, job, "traced job")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if outputs.failed:
            raise SystemExit(f"{w['name']}: {outputs.problems}")
        merged = {**metrics, **setup}
        observed[w["name"]] = {name: merged[name] for name in names}
    with contextlib.suppress(OSError):
        (run.ROOT / ".perfbench_work").rmdir()
    return observed


def main() -> int:
    spec = json.loads(run.SPEC.read_text())
    run.pin_threads()
    run.import_program()
    observed = counters(spec)
    pinned = json.loads(PINNED.read_text())
    diffs = [
        f"{wl} {name}: pinned {pinned.get(wl, {}).get(name)}, observed {value}"
        for wl, values in observed.items()
        for name, value in values.items()
        if pinned.get(wl, {}).get(name) != value
    ]
    for line in diffs:
        print(line)
    if diffs:
        print("observed counters:\n" + json.dumps(observed, indent=2, sort_keys=True))
        return 1
    print(f"selftest: {sum(len(v) for v in observed.values())} counters match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
