"""The three seeded workloads and their output checks.

Every workload builds its inputs from the benchmark seed, runs each job
as ``tasd`` commands through the in-process ``tasd.cli.main``, and checks
the job's output after the job's clock has stopped.

- ``error_sweep``: ``tasd analyze --sweep matmul-error``. Pinned dense
  matmuls dominate, spread over the ``map_ordered`` workers.
- ``drop_sweep``: ``tasd analyze --sweep appendixA``. Thousands of small
  extractions and no products at all.
- ``greedy_search``: greedy search with the error oracle over every
  (layer, config) pair of N:M-pruned weights, network search with the
  magnitude oracle, then ``simulate``. The only user of the oracles,
  ``search`` and ``hwmodel``.

No workload runs ``tasd_matmul`` and its ``spmm`` kernel: on a shared
2-vCPU host a ``series_gemm`` workload (decompose once in set-up, then
multiply many activation batches) spread by 24-34% from run to run,
more than any bound the benchmark may set.

Functions of ``tasd`` are looked up on the module at call time, never
bound here, so that a tracer patched into the package sees these calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import tasd
import tasd.cli

# analyze --num-seeds: small enough for tens of jobs per run
ERROR_SWEEP_SEEDS = 1
DROP_SWEEP_SEEDS = 2

# greedy_search manifest: layer i holds a dense draw magnitude-pruned to
# PRUNE_N[i]:8 (density 0.25 .. 0.875). Every block then has exactly that
# many non-zeros, so each pair's dropped fraction, and with a gate of 1.0
# (only lossless pairs pass) the whole search path, is the same on every
# seed: the seed moves the values, never the amount of work.
PRUNE_N = (2, 3, 4, 5, 6, 7)
SEARCH_THRESHOLD = "1.0"
SEARCH_DIM = 128
SEARCH_BATCH_COLS = 64
CAL_SAMPLES = 3
HW = "vegeta-m8"


@dataclass
class Job:
    """One job as run: wall time and raw outputs."""

    seconds: float
    items: int = 0
    outputs: object = None
    problems: list[str] = field(default_factory=list)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _cli(argv, problems):
    """Run one tasd command in-process; returns its captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tasd.cli.main(argv)
    if code != 0:
        problems.append(f"tasd {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue().encode()


class CliWorkload:
    """A job is a fixed list of tasd commands; its output is their stdout
    plus the files they write."""

    def __init__(self, seed: int):
        self.seed = seed

    def commands(self, workdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, workdir: Path) -> list[Path]:
        raise NotImplementedError

    def count_items(self, files: dict[str, bytes]) -> int:
        raise NotImplementedError

    def prepare(self, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        return workdir

    def job(self, workdir: Path) -> Job:
        problems: list[str] = []
        start = time.perf_counter()
        stdout = [_cli(argv, problems) for argv in self.commands(workdir)]
        seconds = time.perf_counter() - start
        return Job(seconds, outputs=(workdir, stdout), problems=problems)

    def check(self, job: Job) -> str:
        """Fill in items and problems; returns the output digest."""
        workdir, stdout = job.outputs
        files = {}
        for path in self.outputs(workdir):
            try:
                files[path.name] = path.read_bytes()
            except OSError as exc:
                job.problems.append(f"missing output {path.name}: {exc}")
        if not job.problems:
            job.items = self.count_items(files)
        job.outputs = None
        return _digest([*stdout, *(files[k] for k in sorted(files))])


def _csv_rows(text: bytes) -> int:
    return max(0, len(text.splitlines()) - 1)


class ErrorSweep(CliWorkload):
    def commands(self, workdir):
        return [
            ["analyze", "--sweep", "matmul-error", "--seed", str(self.seed),
             "--num-seeds", str(ERROR_SWEEP_SEEDS), "--out", str(workdir / "sweep.csv")]
        ]

    def outputs(self, workdir):
        return [workdir / "sweep.csv"]

    def count_items(self, files):
        return _csv_rows(files["sweep.csv"])


class DropSweep(ErrorSweep):
    def commands(self, workdir):
        return [
            ["analyze", "--sweep", "appendixA", "--seed", str(self.seed),
             "--num-seeds", str(DROP_SWEEP_SEEDS), "--out", str(workdir / "sweep.csv")]
        ]


class GreedySearch(CliWorkload):
    def prepare(self, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        layers = []
        for li, n in enumerate(PRUNE_N):
            dense = tasd.random_matrix(
                SEARCH_DIM, SEARCH_DIM, 1.0, "normal", seed=(self.seed, 0, li)
            )
            weight = tasd.approximate(dense, f"{n}:8")
            tasd.save_matrix(weight, workdir / f"w{li}.tasd1")
            cal = workdir / f"cal{li}"
            cal.mkdir(exist_ok=True)
            for si in range(CAL_SAMPLES):
                sample = tasd.random_matrix(
                    SEARCH_DIM, SEARCH_BATCH_COLS, 1.0, "uniform",
                    seed=(self.seed, 1, li, si),
                )
                tasd.save_matrix(sample, cal / f"s{si}.tasd1")
            layers.append(
                {"id": f"L{li}", "m": SEARCH_DIM, "n": SEARCH_BATCH_COLS,
                 "k": SEARCH_DIM, "weight": f"w{li}.tasd1", "calibration_dir": f"cal{li}"}
            )
        manifest = {"name": "synthetic", "baseline_quality": 1.0, "layers": layers}
        (workdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
        return workdir

    def commands(self, workdir):
        wl = str(workdir / "manifest.json")
        return [
            ["search", "--workload", wl, "--hw", HW, "--mode", "greedy",
             "--oracle", "error", "--threshold", SEARCH_THRESHOLD, "--skip-and-continue",
             "--out", str(workdir / "greedy.json"), "--log", str(workdir / "greedy.jsonl")],
            ["search", "--workload", wl, "--hw", HW, "--mode", "network",
             "--oracle", "magnitude",
             "--out", str(workdir / "network.json"), "--log", str(workdir / "network.jsonl")],
            ["simulate", "--workload", wl, "--hw", HW,
             "--assignment", str(workdir / "greedy.json"), "--out", str(workdir / "cost.csv")],
        ]

    def outputs(self, workdir):
        return [workdir / n for n in
                ("greedy.json", "greedy.jsonl", "network.json", "network.jsonl", "cost.csv")]

    def count_items(self, files):
        # a candidate evaluated is one line of a search log
        return len(files["greedy.jsonl"].splitlines()) + len(files["network.jsonl"].splitlines())


WORKLOADS = {
    "error_sweep": ErrorSweep,
    "drop_sweep": DropSweep,
    "greedy_search": GreedySearch,
}
