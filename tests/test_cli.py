"""End-to-end CLI behavior through real subprocess invocations."""

import json
import subprocess
import sys

import numpy as np
import pytest

from tasd import (
    TasdConfig,
    decompose,
    drop_metrics,
    load_assignment,
    load_matrix,
    random_matrix,
    save_matrix,
    vegeta_m8,
)

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
        script = tmp_path / "oracle.py"
        script.write_text("print('1.0')\n")
        out = tmp_path / "ext.json"
        run_cli("search", "--workload", workspace / "workload.json",
                "--hw", "vegeta-m8", "--mode", "greedy",
                "--oracle", f"{sys.executable} {script}", "--out", out)
        # a single-string oracle spec is executed as one path, so this
        # fails cleanly as a data error rather than crashing
        assert run_cli("search", "--workload", workspace / "workload.json",
                       "--hw", "vegeta-m8", "--mode", "greedy",
                       "--oracle", str(tmp_path / "nonexistent"),
                       "--out", out).returncode == 2


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
