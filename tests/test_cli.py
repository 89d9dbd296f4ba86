"""End-to-end CLI behavior through real subprocess invocations; the JSON
input fuzz calls ``tasd.cli.main`` in process."""

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import SLOW_SCRIPT, assert_gone
from tasd import (
    HwSpec,
    PatternMenu,
    TasdConfig,
    decompose,
    drop_metrics,
    error_sweep,
    is_expressible,
    load_assignment,
    load_calibration,
    load_matrix,
    load_workload,
    pseudo_density,
    random_matrix,
    render_error_csv,
    render_sweep_csv,
    save_matrix,
    sweep_synthetic,
    vegeta_m8,
)
from tasd._parallel import resolve_workers
from tasd.cli import main
from tasd.hwmodel import COST_CSV_HEADER

CFG = TasdConfig.parse


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "tasd.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"tasd {' '.join(map(str, args))} exited {proc.returncode}:\n{proc.stderr}"
        )
    return proc


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Shared workload manifest, weights, calibration data, assignment."""
    root = tmp_path_factory.mktemp("cli")
    densities = (0.2, 0.6, 1.0)
    layer_entries = []
    for i, density in enumerate(densities):
        weight = random_matrix(16, 16, density, "uniform", seed=100 + i)
        save_matrix(weight, root / f"w{i}.tasd1")
        calib = root / f"calib{i}"
        calib.mkdir()
        sample_density = 0.1 if i < 2 else 1.0  # L2 activations stay dense
        for s in range(2):
            sample = random_matrix(16, 4, sample_density, "uniform", seed=200 + 10 * i + s)
            save_matrix(sample, calib / f"sample_{s}.tasd1")
        layer_entries.append(
            {
                "id": f"L{i}",
                "m": 16,
                "n": 8,
                "k": 16,
                "weight": f"w{i}.tasd1",
                "calibration_dir": f"calib{i}",
            }
        )
    manifest = root / "workload.json"
    manifest.write_text(
        json.dumps(
            {"name": "toy", "baseline_quality": 1.0, "layers": layer_entries}
        )
    )
    assignment = root / "assignment.json"
    assignment.write_text(
        json.dumps(
            {
                "L0": {"terms": [[4, 8], [1, 8]]},
                "L1": {"terms": [[2, 8]]},
            }
        )
    )
    return root


class TestGen:
    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.tasd1", tmp_path / "b.tasd1"
        for out in (a, b):
            run_cli("gen", "--rows", 32, "--cols", 24, "--density", 0.4,
                    "--dist", "normal", "--seed", 7, "--out", out, check=True)
        assert a.read_bytes() == b.read_bytes()
        other = tmp_path / "c.tasd1"
        run_cli("gen", "--rows", 32, "--cols", 24, "--density", 0.4,
                "--dist", "normal", "--seed", 8, "--out", other, check=True)
        assert other.read_bytes() != a.read_bytes()

    def test_density_zero_gives_empty_matrix(self, tmp_path):
        out = tmp_path / "zero.tasd1"
        run_cli("gen", "--rows", 8, "--cols", 8, "--density", 0, "--out", out,
                check=True)
        assert np.count_nonzero(load_matrix(out)) == 0

    def test_bad_arguments_are_usage_errors(self, tmp_path):
        out = tmp_path / "x.tasd1"
        assert run_cli("gen", "--rows", 8, "--cols", 8, "--density", 1.2,
                       "--out", out).returncode == 1
        assert run_cli("gen", "--rows", 0, "--cols", 8, "--density", 0.5,
                       "--out", out).returncode == 1
        assert run_cli("gen", "--rows", 8, "--cols", 8).returncode == 1


class TestDecompose:
    def test_emits_terms_residual_and_metrics(self, tmp_path):
        src = tmp_path / "m.tasd1"
        run_cli("gen", "--rows", 16, "--cols", 16, "--density", 0.7,
                "--seed", 3, "--out", src, check=True)
        out_dir = tmp_path / "parts"
        run_cli("decompose", "--in", src, "--config", "2:4+2:8",
                "--out-dir", out_dir, check=True)

        mat = load_matrix(src)
        expected = decompose(mat, CFG("2:4+2:8"))
        total = load_matrix(out_dir / "residual.tasd1").copy()
        for i in range(2):
            term_dense = load_matrix(out_dir / f"term_{i:02d}.tasd1")
            total += term_dense
            sidecar = json.loads((out_dir / f"term_{i:02d}.indices.json").read_text())
            assert sidecar["pattern"] == str(expected.terms[i].pattern)
            assert sidecar["rows"] == 16 and sidecar["cols"] == 16
            assert np.array_equal(
                np.asarray(sidecar["indices"]), expected.terms[i].indices
            )
        assert np.array_equal(total, mat)

        metrics = json.loads((out_dir / "metrics.json").read_text())
        reference = drop_metrics(expected)
        assert metrics["config"] == "2:4+2:8"
        assert metrics["dropped_nnz_fraction"] == reference.dropped_nnz_fraction
        assert metrics["dropped_magnitude_fraction"] == reference.dropped_magnitude_fraction
        assert metrics["retained_magnitude_fraction"] == reference.retained_magnitude_fraction
        assert metrics["mse"] == reference.mse
        assert metrics["term_nnz"] == [t.nnz for t in expected.terms]

    def test_metrics_path_override(self, tmp_path):
        src = tmp_path / "m.tasd1"
        run_cli("gen", "--rows", 4, "--cols", 8, "--density", 1, "--out", src,
                check=True)
        metrics = tmp_path / "elsewhere.json"
        run_cli("decompose", "--in", src, "--config", "1:4",
                "--out-dir", tmp_path / "d", "--metrics", metrics, check=True)
        assert json.loads(metrics.read_text())["config"] == "1:4"

    def test_error_codes(self, tmp_path):
        src = tmp_path / "m.tasd1"
        run_cli("gen", "--rows", 4, "--cols", 4, "--density", 1, "--out", src,
                check=True)
        # malformed config text is a usage error
        assert run_cli("decompose", "--in", src, "--config", "5:4",
                       "--out-dir", tmp_path / "d").returncode == 1
        # unreadable input is a data error
        assert run_cli("decompose", "--in", tmp_path / "missing.tasd1",
                       "--config", "2:4", "--out-dir", tmp_path / "d").returncode == 2

    def test_empty_config_is_usage_error(self, tmp_path, capsys):
        assert main(["decompose", "--in", str(tmp_path / "m.tasd1"), "--config", "",
                     "--out-dir", str(tmp_path / "d")]) == 1
        assert "argument --config" in capsys.readouterr().err


class TestAnalyze:
    def test_synthetic_sweep_shape_and_determinism(self, tmp_path):
        outs = [tmp_path / f"sweep{i}.csv" for i in range(2)]
        for out in outs:
            run_cli("analyze", "--sweep", "appendixA", "--seed", 1,
                    "--num-seeds", 2, "--out", out, check=True)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        lines = outs[0].read_text().strip().split("\n")
        assert lines[0] == "density,distribution,config,seed,dropped_nnz,dropped_mag,mse"
        assert len(lines) == 1 + 14 * 2 * 3 * 2
        shifted = tmp_path / "sweep_seed2.csv"
        run_cli("analyze", "--sweep", "appendixA", "--seed", 2,
                "--num-seeds", 2, "--out", shifted, check=True)
        assert shifted.read_bytes() != outs[0].read_bytes()

    def test_matmul_error_sweep(self, tmp_path):
        outs = [tmp_path / f"err{i}.csv" for i in range(2)]
        for out in outs:
            run_cli("analyze", "--sweep", "matmul-error", "--num-seeds", 2,
                    "--out", out, check=True)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        lines = outs[0].read_text().strip().split("\n")
        assert lines[0] == "a_sparsity,config,approx_sparsity,mean_rel_error,std_rel_error,seeds"
        assert len(lines) == 1 + 2 * 12

    def test_stdout_default(self):
        proc = run_cli("analyze", "--sweep", "matmul-error", "--num-seeds", 1,
                       check=True)
        assert proc.stdout.startswith("a_sparsity,")

    @pytest.mark.parametrize(
        "name, sweep, render",
        [("appendixA", sweep_synthetic, render_sweep_csv),
         ("matmul-error", error_sweep, render_error_csv)],
    )
    def test_each_sweep_is_the_library_default_grid(self, capsys, name, sweep, render):
        assert main(["analyze", "--sweep", name, "--num-seeds", "1", "--seed", "5"]) == 0
        assert capsys.readouterr().out == render(sweep(seeds=range(1), master_seed=5))

    @pytest.mark.parametrize("sweep", ["appendixA", "matmul-error"])
    @pytest.mark.parametrize("threads", ["abc", "2.5", "0", "-3"])
    def test_thread_count_must_be_a_positive_integer(
        self, tmp_path, monkeypatch, capsys, sweep, threads
    ):
        # "abc" and "2.5" failed with a bare int() message; 0 and -3 ran on
        # one worker
        monkeypatch.setenv("TASD_THREADS", threads)
        out = tmp_path / "sweep.csv"
        assert main(["analyze", "--sweep", sweep, "--num-seeds", "1", "--out", str(out)]) == 2
        assert f"TASD_THREADS must be a positive integer, got '{threads}'" in capsys.readouterr().err
        assert not out.exists()

    def test_thread_count_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("TASD_THREADS", " 3 ")
        assert resolve_workers() == 3
        monkeypatch.setenv("TASD_THREADS", "0")
        assert resolve_workers(2) == 2  # an explicit count never reads it
        monkeypatch.setenv("TASD_THREADS", "")
        assert resolve_workers() >= 1


class TestSearch:
    def test_greedy_mode(self, workspace, tmp_path):
        out = tmp_path / "greedy.json"
        log_path = tmp_path / "trace.jsonl"
        run_cli("search", "--workload", workspace / "workload.json",
                "--hw", "vegeta-m8", "--mode", "greedy", "--threshold", 0.95,
                "--out", out, "--log", log_path, check=True)
        assignment = load_assignment(out)
        menu = vegeta_m8().menu
        from tasd import is_expressible

        assert assignment, "greedy should configure at least one layer"
        assert all(is_expressible(cfg, menu) for cfg in assignment.values())
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert entries and {"layer", "config", "drop", "quality", "applied"} <= set(entries[0])

    def test_network_mode(self, workspace, tmp_path):
        out = tmp_path / "network.json"
        run_cli("search", "--workload", workspace / "workload.json",
                "--hw", "vegeta-m8", "--mode", "network", "--threshold", 0.8,
                "--out", out, check=True)
        assignment = load_assignment(out)
        configs = {cfg.canonical() for cfg in assignment.values()}
        assert len(configs) <= 1  # uniform pick (empty means dense)

    def test_activation_mode(self, workspace, tmp_path):
        out = tmp_path / "acts.json"
        run_cli("search", "--workload", workspace / "workload.json",
                "--hw", "vegeta-m8", "--mode", "activation", "--statistic", "p99",
                "--out", out, check=True)
        assignment = load_assignment(out)
        # the two sparse-activation layers pick the most aggressive config;
        # the dense one is left out
        assert set(assignment) == {"L0", "L1"}
        assert {cfg.canonical() for cfg in assignment.values()} == {"1:8"}

    def test_pseudo_density_log_shows_the_statistics_used(self, workspace, tmp_path):
        # the log used to show the measured sparsity, 0.0 for the dense L2,
        # not the pseudo-sparsity that chose its config
        log_path = tmp_path / "trace.jsonl"
        run_cli("search", "--workload", workspace / "workload.json", "--hw", "vegeta-m8",
                "--mode", "activation", "--pseudo-density", "--out", tmp_path / "a.json",
                "--log", log_path, check=True)
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
        layers = load_workload(workspace / "workload.json").layers
        assert [line["layer"] for line in lines] == [ly.layer_id for ly in layers]
        for line, layer in zip(lines, layers):
            values = [1.0 - pseudo_density(s, 0.99) for s in load_calibration(layer)]
            assert line["sparsity_mean"] == float(np.mean(values))
            assert line["sparsity_p99"] == float(np.percentile(values, 99))
        assert lines[2]["sparsity_mean"] > 0.0

    def test_activation_mode_needs_calibration(self, tmp_path):
        weight = random_matrix(8, 8, 0.5, "uniform", seed=1)
        save_matrix(weight, tmp_path / "w.tasd1")
        manifest = tmp_path / "wl.json"
        manifest.write_text(json.dumps({
            "name": "bare",
            "baseline_quality": 1.0,
            "layers": [{"id": "L0", "m": 8, "n": 8, "k": 8, "weight": "w.tasd1"}],
        }))
        proc = run_cli("search", "--workload", manifest, "--hw", "vegeta-m8",
                       "--mode", "activation", "--out", tmp_path / "a.json")
        assert proc.returncode == 2

    def test_activation_mode_checks_sample_rows(self, tmp_path):
        save_matrix(random_matrix(8, 8, 0.5, "uniform", seed=1), tmp_path / "w.tasd1")
        (tmp_path / "calib").mkdir()
        save_matrix(random_matrix(4, 2, 0.5, "uniform", seed=2), tmp_path / "calib" / "s.tasd1")
        manifest = tmp_path / "wl.json"
        manifest.write_text(json.dumps({
            "name": "bad-rows",
            "baseline_quality": 1.0,
            "layers": [{"id": "L0", "m": 8, "n": 2, "k": 8, "weight": "w.tasd1",
                        "calibration_dir": "calib"}],
        }))
        proc = run_cli("search", "--workload", manifest, "--hw", "vegeta-m8",
                       "--mode", "activation", "--out", tmp_path / "a.json")
        assert proc.returncode == 2
        assert "rows, expected 8" in proc.stderr

    def test_external_oracle_command(self, workspace, tmp_path):
        # the spec is split like a shell command line, so an interpreter, a
        # quoted path with a space and the appended manifest path all arrive
        script = tmp_path / "an oracle" / "oracle.py"
        script.parent.mkdir()
        script.write_text("import sys\n"
                          "assert sys.argv[1:] and sys.argv[1].endswith('manifest.json')\n"
                          "print('1.0')\n")
        out = tmp_path / "ext.json"
        spec = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
        proc = run_cli("search", "--workload", workspace / "workload.json",
                       "--hw", "vegeta-m8", "--mode", "greedy",
                       "--oracle", spec, "--out", out)
        assert proc.returncode == 0, proc.stderr
        assert "greedy configured 3 of 3 layers" in proc.stderr
        # a missing path fails cleanly as a data error
        assert run_cli("search", "--workload", workspace / "workload.json",
                       "--hw", "vegeta-m8", "--mode", "greedy",
                       "--oracle", str(tmp_path / "nonexistent"),
                       "--out", out).returncode == 2

    @pytest.mark.parametrize(
        "mode, option",
        [
            ("greedy", "--threshold=nan"),
            ("network", "--threshold=inf"),
            ("activation", "--alpha=nan"),
            ("activation", "--rho=-inf"),
            ("greedy", "--oracle-timeout=inf"),
        ],
    )
    def test_non_finite_numbers_are_usage_errors(self, workspace, tmp_path, mode, option):
        out = tmp_path / "a.json"
        proc = run_cli("search", "--workload", workspace / "workload.json",
                       "--hw", "vegeta-m8", "--mode", mode, option, "--out", out)
        assert proc.returncode == 1
        assert "finite" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["-1", "5"])
    def test_rho_outside_unit_interval_is_usage_error(self, workspace, tmp_path, rho):
        # --rho -1 used to assign 1:8 to a layer, and --rho 5 wrote {}
        out = tmp_path / "a.json"
        proc = run_cli("search", "--workload", workspace / "workload.json", "--hw", "vegeta-m8",
                       "--mode", "activation", "--pseudo-density", "--rho", rho, "--out", out)
        assert proc.returncode == 1
        assert "rho must be in (0, 1]" in proc.stderr
        assert not out.exists()

    def test_oracle_timeout_is_data_error(self, workspace, tmp_path):
        pid_file = tmp_path / "child.pid"
        script = tmp_path / "slow_oracle"
        script.write_text(f"#!{sys.executable}\n" + SLOW_SCRIPT.format(pid_file=str(pid_file)))
        script.chmod(0o755)
        out = tmp_path / "a.json"
        proc = run_cli("search", "--workload", workspace / "workload.json", "--hw", "vegeta-m8",
                       "--mode", "greedy", "--oracle", script, "--oracle-timeout", "2",
                       "--out", out)
        assert proc.returncode == 2
        assert "timeout" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()
        assert_gone(int(pid_file.read_text()))

    def test_oracle_timeout_must_be_positive(self, workspace, tmp_path):
        proc = run_cli("search", "--workload", workspace / "workload.json", "--hw", "vegeta-m8",
                       "--mode", "greedy", "--oracle-timeout", "0", "--out", tmp_path / "a.json")
        assert proc.returncode == 1
        assert "positive" in proc.stderr


class TestSimulate:
    def test_cost_csv_with_total_row(self, workspace, tmp_path):
        out = tmp_path / "cost.csv"
        proc = run_cli("simulate", "--workload", workspace / "workload.json",
                       "--hw", "vegeta-m8",
                       "--assignment", workspace / "assignment.json",
                       "--out", out, check=True)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "layer,config,cycles,stalls,macs,e_mac,e_rf,e_l1,e_l2,e_dram,e_tasd,edp"
        assert len(lines) == 1 + 3 + 1
        total = lines[-1].split(",")
        assert total[0] == "total"
        assert total[1] == "-"
        per_layer_cycles = [int(line.split(",")[2]) for line in lines[1:4]]
        assert int(total[2]) == sum(per_layer_cycles)

        edp_line = [l for l in proc.stdout.splitlines() if l.startswith("edp_vs_dense=")]
        assert len(edp_line) == 1
        ratio = float(edp_line[0].split("=", 1)[1])
        assert 0.0 < ratio < 1.0

    def test_csv_on_stdout_stays_a_csv(self, workspace):
        # with the CSV on stdout, the ratio line goes to stderr: on stdout
        # it would read as one more row
        proc = run_cli("simulate", "--workload", workspace / "workload.json",
                       "--hw", "vegeta-m8", check=True)
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert all(list(row) == COST_CSV_HEADER.split(",") and None not in row.values()
                   for row in rows)
        assert [row["layer"] for row in rows] == ["L0", "L1", "L2", "total"]
        assert "edp_vs_dense=1.0" in proc.stderr.splitlines()

    def test_dense_baseline_ratio_is_one(self, workspace, tmp_path):
        proc = run_cli("simulate", "--workload", workspace / "workload.json",
                       "--hw", "vegeta-m8", "--out", tmp_path / "dense.csv",
                       check=True)
        line = [l for l in proc.stdout.splitlines() if l.startswith("edp_vs_dense=")][0]
        assert float(line.split("=", 1)[1]) == 1.0

    def test_custom_hw_json(self, workspace, tmp_path):
        hw_path = tmp_path / "hw.json"
        vegeta_m8().save(hw_path)
        run_cli("simulate", "--workload", workspace / "workload.json",
                "--hw", hw_path, "--out", tmp_path / "c.csv", check=True)

    def test_missing_hw_file(self, workspace, tmp_path):
        proc = run_cli("simulate", "--workload", workspace / "workload.json",
                       "--hw", tmp_path / "nope.json", "--out", tmp_path / "c.csv")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "m, terms",
        [(8.7, [[4, 8]]), (8, [[True, 8]]), (8, [["4", "8"]])],
    )
    def test_mistyped_json_is_data_error(self, tmp_path, m, terms):
        # 8.7 used to be read as 8, [true, 8] as 1:8 and ["4", "8"] as 4:8
        workload = tmp_path / "w.json"
        workload.write_text(json.dumps(
            {"name": "w", "baseline_quality": 1.0,
             "layers": [{"id": "L0", "m": m, "n": 8, "k": 8}]}
        ))
        assignment = tmp_path / "a.json"
        assignment.write_text(json.dumps({"L0": {"terms": terms}}))
        proc = run_cli("simulate", "--workload", workload, "--hw", "vegeta-m8",
                       "--assignment", assignment, "--out", tmp_path / "c.csv")
        assert proc.returncode == 2

    @pytest.mark.parametrize("case", ["baseline", "energy", "layer id"])
    def test_overflow_and_unknown_layers_are_data_errors(self, workspace, tmp_path, case):
        # a data error: no OverflowError traceback, and no cost report that
        # silently prices every layer dense
        workload = workspace / "workload.json"
        hw = "vegeta-m8"
        assignment = workspace / "assignment.json"
        if case == "baseline":
            obj = json.loads(workload.read_text())
            obj["baseline_quality"] = 10**400
            workload = tmp_path / "w.json"
            workload.write_text(json.dumps(obj))
        elif case == "energy":
            obj = vegeta_m8().to_dict()
            obj["energy_pj"]["mac"] = 10**400
            hw = tmp_path / "hw.json"
            hw.write_text(json.dumps(obj))
        else:
            assignment = tmp_path / "a.json"
            assignment.write_text(json.dumps({"ZZ": {"terms": [[2, 8]]}}))
        proc = run_cli("simulate", "--workload", workload, "--hw", hw,
                       "--assignment", assignment, "--out", tmp_path / "c.csv")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize("value", ["2.5", True])
    def test_mistyped_energy_is_data_error(self, workspace, tmp_path, value):
        obj = vegeta_m8().to_dict()
        obj["energy_pj"]["mac"] = value
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps(obj))
        proc = run_cli("simulate", "--workload", workspace / "workload.json", "--hw", hw,
                       "--out", tmp_path / "c.csv")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_mistyped_manifest_path_is_data_error(self, workspace, tmp_path):
        # a numeric weight path used to escape as a TypeError from Path / int
        obj = json.loads((workspace / "workload.json").read_text())
        obj["layers"][0]["weight"] = 5
        workload = workspace / "mistyped_weight.json"
        workload.write_text(json.dumps(obj))
        proc = run_cli("simulate", "--workload", workload, "--hw", "vegeta-m8",
                       "--out", tmp_path / "c.csv")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "c.csv").exists()

    def test_zero_dense_edp_is_data_error(self, workspace, tmp_path):
        # the EDP ratio used to divide by zero after the CSV was written
        obj = vegeta_m8().to_dict()
        obj["energy_pj"] = {key: 0.0 for key in obj["energy_pj"]}
        hw = tmp_path / "hw.json"
        hw.write_text(json.dumps(obj))
        proc = run_cli("simulate", "--workload", workspace / "workload.json", "--hw", hw,
                       "--assignment", workspace / "assignment.json")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


# JSON values put in place of a node: strings where numbers belong and the
# reverse, booleans, null, floats where integers belong, an integer too
# large for a float, the NaN and Infinity literals, and wrong containers
REPLACEMENTS = ["8", "0.9", "L0", True, False, None, 8.0, 8.5, -1, 0, 10**400,
                math.nan, math.inf, -math.inf, [], {}, ["x"]]


def _paths(node, prefix=()):
    """Every path into a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, (*prefix, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, (*prefix, i))


def _zeroed(node):
    if isinstance(node, dict):
        return {key: _zeroed(child) for key, child in node.items()}
    if isinstance(node, list):
        return [_zeroed(child) for child in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return type(node)(0)
    return node


def _mutated(doc, path, op, arg):
    """``doc`` with the node at ``path`` replaced by ``arg``, deleted,
    zeroed (every number under it), written as a JSON string, wrapped in a
    list, or given an extra key."""
    new = {
        "set": lambda node: arg,
        "zero": _zeroed,
        "string": json.dumps,
        "wrap": lambda node: [node],
        "extra": lambda node: {**node, "extra": 1} if isinstance(node, dict) else node,
    }
    doc = copy.deepcopy(doc)
    if not path:
        return doc if op == "delete" else new[op](doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new[op](parent[path[-1]])
    return doc


class TestJsonInputFuzz:
    """Mutated manifests, hardware specs and assignments through
    ``simulate``: exit 0 with a finite cost CSV of the manifest's layers, or
    exit 2 with nothing written. No exception may escape."""

    MANIFEST = {
        "name": "fuzz",
        "baseline_quality": 0.9,
        "layers": [
            {"id": "L0", "m": 16, "n": 8, "k": 8, "weight": "w0.tasd1",
             "calibration_dir": "cal", "weights_sparse": False, "acts_sparse": True},
            {"id": "L1", "m": 8, "n": 4, "k": 16},
        ],
    }
    ASSIGNMENT = {"L0": {"terms": [[4, 8], [1, 8]]}, "L1": {"terms": [[2, 8]]}}
    DOCS = ("manifest", "hw", "assignment")

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        save_matrix(random_matrix(16, 8, 0.5, "uniform", seed=1), root / "w0.tasd1")
        (root / "cal").mkdir()
        return root

    @given(data=st.data(), with_assignment=st.booleans())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_0_with_finite_costs_or_exit_2(self, root, data, with_assignment):
        docs = {"manifest": self.MANIFEST, "hw": vegeta_m8().to_dict(),
                "assignment": self.ASSIGNMENT}
        for _ in range(data.draw(st.integers(1, 2))):
            name = data.draw(st.sampled_from(self.DOCS))
            path = data.draw(st.sampled_from(list(_paths(docs[name]))))
            op = data.draw(st.sampled_from(["set", "delete", "zero", "string", "wrap", "extra"]))
            arg = data.draw(st.sampled_from(REPLACEMENTS)) if op == "set" else None
            docs[name] = _mutated(docs[name], path, op, arg)
        for name, doc in docs.items():
            (root / f"{name}.json").write_text(json.dumps(doc))
        out = root / "cost.csv"
        out.unlink(missing_ok=True)
        argv = ["simulate", "--workload", str(root / "manifest.json"),
                "--hw", str(root / "hw.json"), "--out", str(out)]
        if with_assignment:
            argv += ["--assignment", str(root / "assignment.json")]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code == 2:
            assert not out.exists() and stdout.getvalue() == ""
            return
        assert code == 0
        ratio = stdout.getvalue().removeprefix("edp_vs_dense=")
        assert math.isfinite(float(ratio))
        header, *rows = out.read_text().splitlines()
        assert header == COST_CSV_HEADER
        ids = [layer["id"] for layer in docs["manifest"]["layers"]]
        assert all(isinstance(i, str) for i in ids)
        assert isinstance(docs["manifest"]["name"], str)
        assert [row.split(",")[0] for row in rows] == [*ids, "total"]
        for row in rows:
            assert all(math.isfinite(float(cell)) for cell in row.split(",")[2:])


def _csv_text(mat):
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in mat)


class TestSearchInputFuzz:
    """Mutated manifests, hardware specs and calibration files through
    every ``search`` mode, with the magnitude and error oracles: exit 0
    with an assignment of the manifest's layers that the target can run,
    or exit 2 with nothing written. No exception may escape."""

    MANIFEST = {
        "name": "fuzz",
        "baseline_quality": 0.9,
        "layers": [
            {"id": "L0", "m": 16, "n": 8, "k": 8, "weight": "w0.tasd1",
             "calibration_dir": "cal0"},
            {"id": "L1", "m": 8, "n": 4, "k": 16, "weight": "w1.tasd1",
             "calibration_dir": "cal1"},
        ],
    }
    # what one calibration sample file is replaced by: a sample with one
    # row too many, an all-zero sample, the sample as CSV text, ragged or
    # NaN CSV text; "empty" removes every sample of the layer
    CALIBRATION = (None, "rows", "zero", "csv", "ragged", "nan", "empty")

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("search-fuzz")
        for i, layer in enumerate(self.MANIFEST["layers"]):
            shape = (layer["m"], layer["k"])
            save_matrix(random_matrix(*shape, 0.6, "uniform", seed=i), root / layer["weight"])
        return root

    def write_calibration(self, root, mutation, layer, sample):
        samples = {}
        for i, entry in enumerate(self.MANIFEST["layers"]):
            cal = root / entry["calibration_dir"]
            cal.mkdir(exist_ok=True)
            for stale in cal.iterdir():
                stale.unlink()
            samples[i] = [
                random_matrix(entry["k"], width, 0.7, "uniform", seed=(i, width))
                for width in (3, 2)
            ]
            for s, mat in enumerate(samples[i]):
                save_matrix(mat, cal / f"s{s}.tasd1")
        path = root / self.MANIFEST["layers"][layer]["calibration_dir"] / f"s{sample}.tasd1"
        mat = samples[layer][sample]
        if mutation == "rows":
            save_matrix(np.vstack([mat, mat[:1]]), path)
        elif mutation == "zero":
            save_matrix(np.zeros(mat.shape), path)
        elif mutation == "csv":
            path.write_text(_csv_text(mat))
        elif mutation == "ragged":
            path.write_text(_csv_text(mat) + "1.0\n")
        elif mutation == "nan":
            text = _csv_text(mat)
            path.write_text("nan" + text[text.index(","):])
        elif mutation == "empty":
            for stale in path.parent.iterdir():
                stale.unlink()

    @given(data=st.data(), mode=st.sampled_from(["network", "greedy", "activation"]),
           oracle=st.sampled_from(["magnitude", "error"]),
           threshold=st.sampled_from(["0", "0.9", "1"]),
           mutation=st.sampled_from(CALIBRATION), layer=st.integers(0, 1),
           sample=st.integers(0, 1))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_0_with_a_runnable_assignment_or_exit_2(
        self, root, data, mode, oracle, threshold, mutation, layer, sample
    ):
        docs = {"manifest": self.MANIFEST, "hw": vegeta_m8().to_dict()}
        for _ in range(data.draw(st.integers(0, 2))):
            name = data.draw(st.sampled_from(sorted(docs)))
            path = data.draw(st.sampled_from(list(_paths(docs[name]))))
            op = data.draw(st.sampled_from(["set", "delete", "zero", "string", "wrap", "extra"]))
            arg = data.draw(st.sampled_from(REPLACEMENTS)) if op == "set" else None
            docs[name] = _mutated(docs[name], path, op, arg)
        for name, doc in docs.items():
            (root / f"{name}.json").write_text(json.dumps(doc))
        self.write_calibration(root, mutation, layer, sample)
        out, log_path = root / "a.json", root / "trace.jsonl"
        out.unlink(missing_ok=True)
        log_path.unlink(missing_ok=True)
        code = main(["search", "--workload", str(root / "manifest.json"),
                     "--hw", str(root / "hw.json"), "--mode", mode, "--oracle", oracle,
                     "--threshold", threshold, "--out", str(out), "--log", str(log_path)])
        event(f"{mode} exit {code}")
        if code == 2:
            assert not out.exists() and not log_path.exists()
            return
        assert code == 0
        assignment = load_assignment(out)
        ids = [entry["id"] for entry in docs["manifest"]["layers"]]
        assert set(assignment) <= set(ids)
        menu = HwSpec.from_dict(docs["hw"]).menu
        assert all(is_expressible(cfg, menu) for cfg in assignment.values())
        if mode == "network":
            assert len(set(assignment.values())) <= 1
        for line in log_path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    @pytest.mark.parametrize("mode", ["network", "greedy"])
    def test_all_zero_sample_is_data_error(self, root, mode):
        # network search scores every layer, and greedy's first pair is L1's
        self.write_calibration(root, "zero", 1, 1)
        (root / "manifest.json").write_text(json.dumps(self.MANIFEST))
        out = root / "a.json"
        out.unlink(missing_ok=True)
        proc = run_cli("search", "--workload", root / "manifest.json", "--hw", "vegeta-m8",
                       "--mode", mode, "--oracle", "error", "--out", out)
        assert proc.returncode == 2
        assert "layer 'L1': reference product of sample 1 has zero" in proc.stderr
        assert not out.exists()


class TestPatterns:
    def test_exact_support_table(self):
        proc = run_cli("patterns", "--hw", "vegeta-m8", check=True)
        assert proc.stdout == (
            "total_n,realization\n"
            "1,1:8\n"
            "2,2:8\n"
            "3,2:8+1:8\n"
            "4,4:8\n"
            "5,4:8+1:8\n"
            "6,4:8+2:8\n"
            "7,-\n"
            "8,8:8\n"
        )

    def test_stc_table(self):
        proc = run_cli("patterns", "--hw", "stc-m4", check=True)
        assert proc.stdout == "total_n,realization\n1,-\n2,2:4\n3,-\n4,4:4\n"

    def test_many_terms_finish(self, tmp_path):
        # the table walked every multiset of up to max_terms bases
        spec = tmp_path / "hw.json"
        dataclasses.replace(vegeta_m8(), menu=PatternMenu(8, frozenset(range(1, 9)),
                                                           max_terms=64)).save(spec)
        proc = subprocess.run([sys.executable, "-m", "tasd.cli", "patterns", "--hw", str(spec)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "total_n,realization\n" + "".join(
            f"{n},{n}:8\n" for n in range(1, 9)
        )


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self):
        assert run_cli().returncode == 1
        assert run_cli("frobnicate").returncode == 1

    def test_json_logs_parse(self, tmp_path):
        out = tmp_path / "m.tasd1"
        proc = run_cli("--json-logs", "gen", "--rows", 4, "--cols", 4,
                       "--density", 0.5, "--out", out, check=True)
        lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert lines
        for line in lines:
            entry = json.loads(line)
            assert {"level", "logger", "message"} <= set(entry)
