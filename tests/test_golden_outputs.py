"""Every CLI output byte against recorded sha256 digests.

A small corpus of commands covers each subcommand: ``gen``, ``decompose``
(same-m and mixed-m series on a partial block), ``search`` in every mode
with both built-in oracles, both stop rules and both built-in specs (each
with ``--log``), one greedy search whose external oracle records the
digest of each handoff manifest it is given, ``simulate`` to a file and to
stdout, ``patterns``, two failing commands, and both ``analyze`` sweeps.
Each command's exit code, stdout, stderr (with the workspace path replaced)
and output files go into one table, compared with ``golden_outputs.json``.

A change that moves output bytes on purpose re-records the table by running
this file as a script, ``PYTHONPATH=src python tests/test_golden_outputs.py``,
and names the moved entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tasd.cli import main

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "golden_outputs.json"

SPECS = ("vegeta-m8", "stc-m4")
# (density, distribution) of each layer's 16 x K weight
LAYERS = ((0.3, "uniform"), (0.6, "normal"), (0.9, "normal"), (1.0, "uniform"))
K = 24

# appends the sha256 of each handoff manifest to the file named first, and
# scores 1 - 0.1 x the weight each configured layer drops by capacity
HANDOFF_SCRIPT = textwrap.dedent(
    """\
    import hashlib, json, sys
    log, manifest = sys.argv[1:]
    with open(manifest, "rb") as fh:
        data = fh.read()
    with open(log, "a") as fh:
        fh.write(hashlib.sha256(data).hexdigest() + "\\n")
    dropped = 0.0
    for layer in json.loads(data)["layers"]:
        if layer["config"] != "dense":
            terms = [term.split(":") for term in layer["config"].split("+")]
            dropped += 1.0 - min(1.0, sum(int(n) / int(m) for n, m in terms))
    print(1.0 - 0.1 * dropped)
    """
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Corpus:
    """Runs commands in process under ``root`` and tabulates their outputs:
    ``<label>/exit``, ``/stdout``, ``/stderr`` and one entry per file the
    command wrote into its own directory ``out/<label>``."""

    def __init__(self, root: Path):
        self.root = root
        self.table: dict = {}

    def run(self, label, *argv):
        out = self.root / "out" / label
        out.mkdir(parents=True)
        args = [str(a).replace("{out}", str(out)) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        self.table[f"{label}/exit"] = code
        self.table[f"{label}/stdout"] = _sha(stdout.getvalue().encode())
        stderr = stderr.getvalue().replace(str(self.root), "<root>")
        self.table[f"{label}/stderr"] = _sha(stderr.encode())
        for path in sorted(out.rglob("*")):
            self.table[f"{label}/{path.relative_to(out)}"] = _sha(path.read_bytes())
        return out


def _workload(corpus: _Corpus) -> Path:
    """A four-layer manifest whose weights and calibration samples come
    from ``gen``; it carries ``weights_sparse`` and ``acts_sparse`` keys."""
    layers = []
    for i, (density, dist) in enumerate(LAYERS):
        gen = corpus.run(f"gen-w{i}", "gen", "--rows", 16, "--cols", K, "--density", density,
                         "--dist", dist, "--seed", 10 + i, "--out", "{out}/w.tasd1")
        calibration = corpus.root / f"calib{i}"
        calibration.mkdir()
        for s in range(2):
            sample = corpus.run(f"gen-c{i}{s}", "gen", "--rows", K, "--cols", 6,
                                "--density", 0.2 + 0.25 * i, "--dist", "normal",
                                "--seed", 20 + 2 * i + s, "--out", "{out}/x.tasd1")
            (sample / "x.tasd1").rename(calibration / f"x{s}.tasd1")
        layers.append({"id": f"L{i}", "m": 16, "n": 8, "k": K,
                       "weight": str((gen / "w.tasd1").relative_to(corpus.root)),
                       "calibration_dir": calibration.name,
                       "weights_sparse": i % 2 == 0, "acts_sparse": i < 2})
    manifest = corpus.root / "workload.json"
    manifest.write_text(json.dumps({"name": "golden", "baseline_quality": 0.8, "layers": layers}))
    return manifest


def cli_outputs(root: Path) -> dict:
    """The table of every in-process command of the corpus."""
    corpus = _Corpus(root)
    manifest = _workload(corpus)

    corpus.run("gen-m", "gen", "--rows", 12, "--cols", 20, "--density", 0.7, "--dist", "normal",
               "--seed", 5, "--out", "{out}/m.tasd1")
    matrix = root / "out" / "gen-m" / "m.tasd1"
    for config in ("4:8+2:8", "2:4+2:8"):
        corpus.run(f"decompose-{config}", "decompose", "--in", matrix, "--config", config,
                   "--out-dir", "{out}")

    for spec in SPECS:
        for oracle in ("magnitude", "error"):
            corpus.run(f"search-network-{oracle}-{spec}", "search", "--workload", manifest,
                       "--hw", spec, "--mode", "network", "--oracle", oracle, "--threshold", 0.9,
                       "--out", "{out}/a.json", "--log", "{out}/log.jsonl")
            for rule in ((), ("--skip-and-continue",)):
                corpus.run(f"search-greedy-{oracle}{''.join(rule)}-{spec}", "search",
                           "--workload", manifest, "--hw", spec, "--mode", "greedy",
                           "--oracle", oracle, "--threshold", 0.95, *rule,
                           "--out", "{out}/a.json", "--log", "{out}/log.jsonl")
        for flags in ((), ("--pseudo-density", "--statistic", "mean")):
            corpus.run(f"search-activation{''.join(flags)}-{spec}", "search",
                       "--workload", manifest, "--hw", spec, "--mode", "activation", *flags,
                       "--out", "{out}/a.json", "--log", "{out}/log.jsonl")
        corpus.run(f"patterns-{spec}", "patterns", "--hw", spec)

    assignment = root / "out" / "search-greedy-magnitude--skip-and-continue-vegeta-m8" / "a.json"
    corpus.run("simulate-file", "simulate", "--workload", manifest, "--hw", "vegeta-m8",
               "--assignment", assignment, "--out", "{out}/cost.csv")
    corpus.run("simulate-stdout", "simulate", "--workload", manifest, "--hw", "stc-m4")

    corpus.run("fail-usage", "decompose", "--in", matrix, "--config", "5:4", "--out-dir", "{out}")
    corpus.run("fail-data", "simulate", "--workload", root / "missing.json", "--hw", "stc-m4")
    return corpus.table


def handoff_outputs(root: Path) -> dict:
    """The table of one greedy search with an external command oracle."""
    corpus = _Corpus(root)
    manifest = _workload(corpus)
    script = root / "handoff.py"
    script.write_text(HANDOFF_SCRIPT)
    handoffs = root / "out" / "search-greedy-command" / "handoffs.txt"
    command = shlex.join([sys.executable, str(script), str(handoffs)])
    corpus.run("search-greedy-command", "search", "--workload", manifest, "--hw", "stc-m4",
               "--mode", "greedy", "--oracle", command, "--threshold", 1.1,
               "--out", "{out}/a.json", "--log", "{out}/log.jsonl")
    return {k: v for k, v in corpus.table.items() if k.startswith("search-greedy-command/")}


def analyze_outputs(root: Path, workers: int) -> dict:
    """Both sweeps at their paper grids and one seed, in a subprocess with
    one BLAS thread: the ``matmul-error`` norms go through the BLAS dot
    product, whose digits depend on its thread count."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "TASD_THREADS": str(workers),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    table = {}
    for sweep in ("appendixA", "matmul-error"):
        out = root / f"{sweep}.csv"
        proc = subprocess.run([sys.executable, "-m", "tasd.cli", "analyze", "--sweep", sweep,
                               "--num-seeds", "1", "--out", str(out)],
                              env=env, capture_output=True, timeout=300)
        table[f"analyze-{sweep}/exit"] = proc.returncode
        table[f"analyze-{sweep}/{out.name}"] = _sha(out.read_bytes())
    return table


def _recorded(part: str) -> dict:
    return json.loads(GOLDEN.read_text())[part]


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_outputs_match_digests(tmp_path, monkeypatch, workers):
    monkeypatch.setenv("TASD_THREADS", str(workers))
    assert cli_outputs(tmp_path) == _recorded("cli")


def test_handoff_manifests_match_digests(tmp_path):
    assert handoff_outputs(tmp_path) == _recorded("handoff")


@pytest.mark.parametrize("workers", [1, 2])
def test_analyze_sweeps_match_digests(tmp_path, workers):
    assert analyze_outputs(tmp_path, workers) == _recorded("analyze")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("cli", "handoff", "analyze"):
            (tmp / name).mkdir()
        table = {"cli": cli_outputs(tmp / "cli"), "handoff": handoff_outputs(tmp / "handoff"),
                 "analyze": analyze_outputs(tmp / "analyze", 1)}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} entries to {GOLDEN}")
