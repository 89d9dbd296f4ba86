"""The work of each benchmark workload shape, pinned next to the code.

Each test runs the tasd commands of one ``perfbench`` workload in
process, on small seeded inputs, and counts extractions, pinned
products, rank passes, decompositions and search-log lines. The counts
depend on neither the machine, the seed nor the worker count, so a
change that moves one updates its pin here and says why.
"""

import contextlib
import io
import json

import pytest

import tasd
import tasd.cli
from conftest import record_calls

COUNTED = (
    ("extract", tasd._kernels, "extract_term_blocks"),
    ("matmul", tasd._kernels, "matmul_into"),
    ("rank", tasd.decomp, "block_ranks"),
    ("decompose", tasd.decomp, "decompose"),
)


@pytest.fixture(params=["1", "2"])
def threads(request, monkeypatch):
    monkeypatch.setenv("TASD_THREADS", request.param)
    return request.param


def count_calls(monkeypatch) -> dict[str, list]:
    return {counter: record_calls(monkeypatch, owner, name) for counter, owner, name in COUNTED}


def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = tasd.cli.main([str(a) for a in argv])
    assert code == 0, err.getvalue()


def totals(counts) -> dict[str, int]:
    return {counter: len(calls) for counter, calls in counts.items()}


def test_error_sweep(tmp_path, monkeypatch, threads):
    # 2 draws: a reference product and 12 single-term configs each, and
    # one rank pass per block size (4 and 8)
    counts = count_calls(monkeypatch)
    run("analyze", "--sweep", "matmul-error", "--seed", 3, "--num-seeds", 1,
        "--out", tmp_path / "sweep.csv")
    assert totals(counts) == {"extract": 0, "matmul": 26, "rank": 4, "decompose": 0}


def test_drop_sweep(tmp_path, monkeypatch, threads):
    # 14 densities x 2 distributions x 2 seeds = 56 draws, each extracting
    # 2:4, 2:8 and 2:16 once for the three appendix configs
    counts = count_calls(monkeypatch)
    run("analyze", "--sweep", "appendixA", "--seed", 3, "--num-seeds", 2,
        "--out", tmp_path / "sweep.csv")
    assert totals(counts) == {"extract": 168, "matmul": 0, "rank": 0, "decompose": 0}


def greedy_inputs(root, seed=3, dim=32, batch=8, samples=3):
    """Six layers, layer i magnitude-pruned to (i + 2):8, so every block
    holds exactly that many non-zeros and the search path is the same on
    every seed and size."""
    layers = []
    for li, n in enumerate(range(2, 8)):
        dense = tasd.random_matrix(dim, dim, 1.0, "normal", seed=(seed, 0, li))
        tasd.save_matrix(tasd.approximate(dense, f"{n}:8"), root / f"w{li}.tasd1")
        (root / f"cal{li}").mkdir()
        for si in range(samples):
            sample = tasd.random_matrix(dim, batch, 1.0, "uniform", seed=(seed, 1, li, si))
            tasd.save_matrix(sample, root / f"cal{li}" / f"s{si}.tasd1")
        layers.append({"id": f"L{li}", "m": dim, "n": batch, "k": dim,
                       "weight": f"w{li}.tasd1", "calibration_dir": f"cal{li}"})
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"name": "w", "baseline_quality": 1.0, "layers": layers}))
    return manifest


def test_greedy_search(tmp_path, monkeypatch, threads):
    # greedy search with the error oracle scores all 36 (layer, config)
    # pairs from one rank pass per layer and one product per pair plus one
    # reference per layer; network search with the magnitude oracle
    # decomposes every pair, extracting each prefix afresh
    manifest = greedy_inputs(tmp_path)
    counts = count_calls(monkeypatch)
    run("search", "--workload", manifest, "--hw", "vegeta-m8", "--mode", "greedy",
        "--oracle", "error", "--threshold", "1.0", "--skip-and-continue",
        "--out", tmp_path / "greedy.json", "--log", tmp_path / "greedy.jsonl")
    run("search", "--workload", manifest, "--hw", "vegeta-m8", "--mode", "network",
        "--oracle", "magnitude",
        "--out", tmp_path / "network.json", "--log", tmp_path / "network.jsonl")
    run("simulate", "--workload", manifest, "--hw", "vegeta-m8",
        "--assignment", tmp_path / "greedy.json", "--out", tmp_path / "cost.csv")
    assert totals(counts) == {"extract": 54, "matmul": 42, "rank": 6, "decompose": 36}
    logs = [len((tmp_path / f).read_text().splitlines())
            for f in ("greedy.jsonl", "network.jsonl")]
    assert logs == [36, 7]
