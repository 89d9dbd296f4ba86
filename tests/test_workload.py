"""Workload manifests, MAC accounting, and the quality-oracle contract."""

import json
import os
import stat
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasd import (
    DimensionMismatch,
    LayerSpec,
    MissingCalibration,
    NonFiniteEntry,
    OracleFailure,
    QualityOracle,
    SchemaError,
    TasdConfig,
    Workload,
    decompose,
    drop_metrics,
    evaluate_quality,
    load_calibration,
    load_matrix,
    load_workload,
    new_dense,
    random_matrix,
    relative_error,
    save_matrix,
    total_macs,
)

CFG = TasdConfig.parse


def two_layer_workload(baseline=2.0):
    """L0 carries a hand-picked weight whose 2:4 drop is exactly 0.3 of
    the magnitude; L1 stays dense."""
    weight = new_dense(1, 4, [4.0, 3.0, 2.0, 1.0])
    return Workload(
        "toy",
        (
            LayerSpec("L0", 1, 2, 4, weight=weight),
            LayerSpec("L1", 3, 3, 3),
        ),
        baseline_quality=baseline,
    )


class TestLayerSpec:
    def test_positive_dims_required(self):
        for bad in [(0, 1, 1), (1, -2, 1), (1, 1, 0)]:
            with pytest.raises(SchemaError):
                LayerSpec("L0", *bad)

    def test_weight_shape_must_match_m_by_k(self):
        with pytest.raises(DimensionMismatch):
            LayerSpec("L0", 2, 5, 4, weight=np.zeros((2, 5)))
        spec = LayerSpec("L0", 2, 5, 4, weight=np.zeros((2, 4)))
        assert spec.weight.shape == (2, 4)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 11),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @settings(max_examples=30, deadline=None)
    def test_non_finite_weight_rejected(self, seed, pos, bad):
        # a NaN weight used to score as a perfect approximation
        weight = np.array(random_matrix(3, 4, 0.7, "normal", seed=seed))
        weight.flat[pos] = bad
        with pytest.raises(NonFiniteEntry):
            LayerSpec("L0", 3, 2, 4, weight=weight)


class TestWorkload:
    def test_needs_layers_and_unique_ids(self):
        with pytest.raises(SchemaError):
            Workload("empty", (), baseline_quality=1.0)
        dup = (LayerSpec("L0", 1, 1, 1), LayerSpec("L0", 2, 2, 2))
        with pytest.raises(SchemaError):
            Workload("dup", dup, baseline_quality=1.0)

    def test_layer_lookup(self):
        wl = two_layer_workload()
        assert wl.layer("L1").gemm_k == 3
        with pytest.raises(KeyError):
            wl.layer("nope")

    def test_dense_mac_count(self):
        wl = Workload(
            "conv-as-gemm",
            (LayerSpec("L0", 784, 128, 1152),),
            baseline_quality=1.0,
        )
        assert wl.total_macs() == 784 * 128 * 1152 == 115_605_504
        assert wl.total_macs({}) == wl.total_macs(None)

    def test_macs_scale_with_coverage(self):
        wl = Workload(
            "conv-as-gemm",
            (LayerSpec("L0", 784, 128, 1152),),
            baseline_quality=1.0,
        )
        assignment = {"L0": CFG("4:8+1:8")}  # coverage 5/8
        assert wl.total_macs(assignment) == 115_605_504 * 5 // 8 == 72_253_440
        assert total_macs(wl, assignment) == 72_253_440

    def test_coverage_caps_at_dense(self):
        wl = Workload("w", (LayerSpec("L0", 8, 8, 8),), baseline_quality=1.0)
        capped = {"L0": CFG("4:4+2:8+2:8")}  # nominal coverage 1.5
        assert wl.total_macs(capped) == wl.total_macs()

    @given(
        # dims >= 2 keep the dense-vs-sparse MAC gap above one whole MAC,
        # so the final round() cannot bridge it
        st.lists(
            st.tuples(st.integers(2, 32), st.integers(2, 32), st.integers(2, 32)),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.sampled_from(
                [None, "1:4", "2:4", "4:4", "1:8", "4:8+1:8", "8:8", "2:4+2:8"]
            ),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_dense(self, dims, cfg_names):
        layers = tuple(
            LayerSpec(f"L{i}", *d) for i, d in enumerate(dims)
        )
        wl = Workload("w", layers, baseline_quality=1.0)
        assignment = {
            f"L{i}": CFG(name)
            for i, name in enumerate(cfg_names[: len(dims)])
            if name is not None
        }
        sparse = wl.total_macs(assignment)
        dense = wl.total_macs()
        assert sparse <= dense
        all_dense = all(
            cfg.coverage >= 1.0 for cfg in assignment.values()
        )
        assert (sparse == dense) == all_dense


class TestLoadWorkload:
    def write_manifest(self, tmp_path, obj, name="workload.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return path

    def test_round_trip_with_relative_weight(self, tmp_path):
        weight = random_matrix(4, 8, 0.5, "uniform", seed=3)
        save_matrix(weight, tmp_path / "w0.tasd1")
        (tmp_path / "calib").mkdir()
        manifest = self.write_manifest(
            tmp_path,
            {
                "name": "net",
                "baseline_quality": 0.91,
                "layers": [
                    {
                        "id": "L0",
                        "m": 4,
                        "n": 2,
                        "k": 8,
                        "weight": "w0.tasd1",
                        "calibration_dir": "calib",
                        "weights_sparse": True,
                    },
                    {"id": "L1", "m": 2, "n": 2, "k": 2},
                ],
            },
        )
        wl = load_workload(manifest)
        assert wl.name == "net"
        assert wl.baseline_quality == 0.91
        assert [ly.layer_id for ly in wl.layers] == ["L0", "L1"]
        assert np.array_equal(wl.layer("L0").weight, weight)
        assert wl.layer("L0").weights_sparse is True
        assert wl.layer("L0").calibration_dir == str(tmp_path / "calib")
        assert wl.layer("L1").weight is None

    def test_missing_keys_rejected(self, tmp_path):
        for broken in [
            {"baseline_quality": 1.0, "layers": [{"id": "a", "m": 1, "n": 1, "k": 1}]},
            {"name": "x", "layers": [{"id": "a", "m": 1, "n": 1, "k": 1}]},
            {"name": "x", "baseline_quality": 1.0},
            {"name": "x", "baseline_quality": 1.0, "layers": []},
            {"name": "x", "baseline_quality": float("inf"), "layers": [{}]},
            {"name": "x", "baseline_quality": 1.0, "layers": [{"id": "a", "m": 1}]},
            ["not", "an", "object"],
        ]:
            path = self.write_manifest(tmp_path, broken)
            with pytest.raises(SchemaError):
                load_workload(path)

    def test_unparsable_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        with pytest.raises(SchemaError):
            load_workload(path)

    def test_weight_dims_checked(self, tmp_path):
        save_matrix(np.ones((3, 3)), tmp_path / "w.tasd1")
        manifest = self.write_manifest(
            tmp_path,
            {
                "name": "x",
                "baseline_quality": 1.0,
                "layers": [{"id": "a", "m": 2, "n": 2, "k": 2, "weight": "w.tasd1"}],
            },
        )
        with pytest.raises(DimensionMismatch):
            load_workload(manifest)


class TestRetainedMagnitudeOracle:
    def test_dense_scores_exactly_baseline(self):
        wl = two_layer_workload(baseline=0.875)
        oracle = QualityOracle.retained_magnitude()
        assert oracle.evaluate(wl, {}) == 0.875
        assert oracle.evaluate(wl, {"L0": CFG("4:4")}) == 0.875

    def test_known_drop(self):
        wl = two_layer_workload(baseline=2.0)
        oracle = QualityOracle.retained_magnitude()
        # L0 keeps (4+3)/10 of its magnitude under 2:4, L1 counts as 1.0
        quality = oracle.evaluate(wl, {"L0": CFG("2:4")})
        assert quality == pytest.approx(2.0 * (0.7 + 1.0) / 2)

    def test_escalation_lowers_quality(self):
        weight = random_matrix(16, 16, 1.0, "normal", seed=5)
        wl = Workload(
            "w", (LayerSpec("L0", 16, 4, 16, weight=weight),), baseline_quality=1.0
        )
        oracle = QualityOracle.retained_magnitude()
        qualities = [
            oracle.evaluate(wl, {"L0": CFG(c)}) for c in ("6:8", "4:8", "2:8", "1:8")
        ]
        assert qualities == sorted(qualities, reverse=True)
        assert qualities[-1] < 1.0

    def test_configured_layer_without_weight_fails(self):
        wl = two_layer_workload()
        oracle = QualityOracle.retained_magnitude()
        with pytest.raises(OracleFailure):
            oracle.evaluate(wl, {"L1": CFG("1:2")})


class TestOutputErrorOracle:
    def build(self, tmp_path, weight_rows, sample_rows, k=2):
        calib = tmp_path / "calib"
        calib.mkdir()
        save_matrix(np.asarray(sample_rows, dtype=np.float64), calib / "s0.tasd1")
        weight = new_dense(1, k, weight_rows)
        wl = Workload(
            "w",
            (LayerSpec("L0", 1, 1, k, weight=weight, calibration_dir=str(calib)),),
            baseline_quality=1.0,
        )
        return wl

    def test_dense_scores_baseline(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [1.0]])
        oracle = QualityOracle.output_error()
        assert oracle.evaluate(wl, {}) == 1.0

    def test_compliant_weight_is_error_free(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 0.0], [[1.0], [1.0]])
        oracle = QualityOracle.output_error()
        assert oracle.evaluate(wl, {"L0": CFG("1:2")}) == 1.0

    def test_known_relative_error(self, tmp_path):
        # weight [1, 1] halves under 1:2; with sample [1, 1]^T the
        # residual product is 1 against a reference of 2.
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [1.0]])
        oracle = QualityOracle.output_error()
        assert oracle.evaluate(wl, {"L0": CFG("1:2")}) == 0.5

    def test_missing_calibration_dir(self):
        wl = two_layer_workload()
        oracle = QualityOracle.output_error()
        with pytest.raises(MissingCalibration):
            oracle.evaluate(wl, {"L0": CFG("2:4")})

    def test_empty_calibration_dir(self, tmp_path):
        calib = tmp_path / "calib"
        calib.mkdir()
        weight = new_dense(1, 4, [4.0, 3.0, 2.0, 1.0])
        wl = Workload(
            "w",
            (LayerSpec("L0", 1, 1, 4, weight=weight, calibration_dir=str(calib)),),
            baseline_quality=1.0,
        )
        with pytest.raises(MissingCalibration):
            QualityOracle.output_error().evaluate(wl, {"L0": CFG("2:4")})

    def test_sample_rows_must_match_k(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [1.0], [1.0]])
        with pytest.raises(DimensionMismatch):
            QualityOracle.output_error().evaluate(wl, {"L0": CFG("1:2")})

    def test_zero_reference_product_fails(self, tmp_path):
        wl = self.build(tmp_path, [0.0, 0.0], [[1.0], [1.0]])
        with pytest.raises(OracleFailure):
            QualityOracle.output_error().evaluate(wl, {"L0": CFG("1:2")})

    def test_loader_sorts_by_file_name(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [2.0]])
        save_matrix(np.array([[3.0], [4.0]]), tmp_path / "calib" / "a.tasd1")
        samples = load_calibration(wl.layer("L0"))
        assert [s.tolist() for s in samples] == [[[3.0], [4.0]], [[1.0], [2.0]]]

    def test_samples_are_cached(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [1.0]])
        oracle = QualityOracle.output_error()
        first = oracle.evaluate(wl, {"L0": CFG("1:2")})
        for p in (tmp_path / "calib").iterdir():
            p.unlink()
        again = oracle.evaluate(wl, {"L0": CFG("1:2")})
        assert again == first

    def test_caches_follow_the_workload(self, tmp_path):
        # A and B share the layer id L0 but not its calibration data
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        wl_a = self.build(tmp_path / "a", [1.0, 1.0], [[1.0], [1.0]])
        wl_b = self.build(tmp_path / "b", [1.0, 1.0], [[1.0], [0.0]])
        assignment = {"L0": CFG("1:2")}
        fresh_b = QualityOracle.output_error().evaluate(wl_b, assignment)
        assert fresh_b == 1.0
        oracle = QualityOracle.output_error()
        assert oracle.evaluate(wl_a, assignment) == 0.5
        assert oracle.evaluate(wl_b, assignment) == fresh_b
        assert oracle.evaluate(wl_a, assignment) == 0.5


ECHO_SCRIPT = 'print("0.761")\n'

SNOOP_SCRIPT = textwrap.dedent(
    """\
    import os, shutil, sys
    src = os.path.dirname(sys.argv[1])
    shutil.copytree(src, os.environ["HANDOFF_COPY_DIR"])
    print("1.0")
    """
)


class TestExternalCommandOracle:
    def test_returns_printed_float(self, tmp_path):
        script = tmp_path / "oracle.py"
        script.write_text(ECHO_SCRIPT)
        oracle = QualityOracle.external_command([sys.executable, str(script)])
        wl = two_layer_workload()
        assert oracle.evaluate(wl, {}) == 0.761
        # referentially transparent: same inputs, same answer
        assert oracle.evaluate(wl, {}) == 0.761

    def test_string_command_accepted(self, tmp_path):
        script = tmp_path / "oracle"
        script.write_text(f"#!{sys.executable}\n" + ECHO_SCRIPT)
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        oracle = QualityOracle.external_command(str(script))
        assert oracle.evaluate(two_layer_workload(), {}) == 0.761

    def test_handoff_contract(self, tmp_path, monkeypatch):
        from tasd import approximate, load_matrix

        copy_dir = tmp_path / "copied"
        monkeypatch.setenv("HANDOFF_COPY_DIR", str(copy_dir))
        script = tmp_path / "snoop.py"
        script.write_text(SNOOP_SCRIPT)

        wl = two_layer_workload(baseline=0.9)
        oracle = QualityOracle.external_command([sys.executable, str(script)])
        assignment = {"L0": CFG("2:4")}
        assert oracle.evaluate(wl, assignment) == 1.0

        manifest = json.loads((copy_dir / "manifest.json").read_text())
        assert manifest["name"] == "toy"
        assert manifest["baseline_quality"] == 0.9
        by_id = {entry["id"]: entry for entry in manifest["layers"]}
        assert by_id["L0"]["config"] == "2:4"
        assert by_id["L1"]["config"] == "dense"
        assert (by_id["L0"]["m"], by_id["L0"]["n"], by_id["L0"]["k"]) == (1, 2, 4)
        assert by_id["L1"]["weight"] is None

        handed = load_matrix(copy_dir / by_id["L0"]["weight"])
        expected = approximate(wl.layer("L0").weight, CFG("2:4"))
        assert np.array_equal(handed, expected)

    def test_failure_modes(self, tmp_path):
        wl = two_layer_workload()
        cases = [
            "import sys; sys.exit(3)",
            "print('not a number')",
            "print('nan')",
            "print('inf')",
        ]
        for body in cases:
            script = tmp_path / "bad.py"
            script.write_text(body)
            oracle = QualityOracle.external_command([sys.executable, str(script)])
            with pytest.raises(OracleFailure):
                oracle.evaluate(wl, {})

    def test_missing_binary(self):
        oracle = QualityOracle.external_command([os.path.join(os.sep, "definitely", "missing")])
        with pytest.raises(OracleFailure):
            oracle.evaluate(two_layer_workload(), {})


class TestOracleConstruction:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            QualityOracle("telepathy")
        with pytest.raises(ValueError):
            QualityOracle("external_command")

    def test_evaluate_quality_wrapper(self):
        wl = two_layer_workload(baseline=1.0)
        oracle = QualityOracle.retained_magnitude()
        assert evaluate_quality(oracle, wl, {}) == oracle.evaluate(wl, {})


class TestOracleWork:
    """A greedy search scores each (layer, config) pair once and computes
    each reference product once, yet logs exactly the qualities of the
    direct per-candidate computation."""

    LAYERS, SAMPLES, DIM = 3, 2, 32

    @pytest.fixture
    def workspace(self, tmp_path):
        layers = []
        for li in range(self.LAYERS):
            weight = random_matrix(self.DIM, self.DIM, 0.4 + 0.2 * li, "normal", seed=(7, li))
            save_matrix(weight, tmp_path / f"w{li}.tasd1")
            (tmp_path / f"cal{li}").mkdir()
            for si in range(self.SAMPLES):
                sample = random_matrix(self.DIM, 8, 1.0, "uniform", seed=(8, li, si))
                save_matrix(sample, tmp_path / f"cal{li}" / f"s{si}.tasd1")
            layers.append({"id": f"L{li}", "m": self.DIM, "n": 8, "k": self.DIM,
                           "weight": f"w{li}.tasd1", "calibration_dir": f"cal{li}"})
        manifest = tmp_path / "workload.json"
        manifest.write_text(json.dumps(
            {"name": "w", "baseline_quality": 0.9, "layers": layers}
        ))
        return manifest

    def layer_score(self, oracle, weight, cfg, samples):
        if oracle == "magnitude":
            return drop_metrics(decompose(weight, cfg)).retained_magnitude_fraction
        return float(np.mean([relative_error(weight, cfg, b) for b in samples]))

    @pytest.mark.parametrize("oracle", ["error", "magnitude"])
    def test_each_pair_scored_once(self, workspace, monkeypatch, oracle):
        import tasd._kernels
        import tasd.workload
        from tasd.cli import main

        work = {"decompose": 0, "matmul": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                work[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            tasd.workload, "decompose", counted("decompose", tasd.workload.decompose)
        )
        monkeypatch.setattr(
            tasd._kernels, "matmul_into", counted("matmul", tasd._kernels.matmul_into)
        )
        log = workspace.parent / "greedy.jsonl"
        assert main(["search", "--workload", str(workspace), "--hw", "vegeta-m8",
                     "--mode", "greedy", "--oracle", oracle, "--threshold", "0.97",
                     "--skip-and-continue", "--out", str(workspace.parent / "a.json"),
                     "--log", str(log)]) == 0
        monkeypatch.undo()

        steps = [json.loads(line) for line in log.read_text().splitlines()]
        pairs = {(s["layer"], s["config"]) for s in steps}
        assert len(pairs) == len(steps) == self.LAYERS * 6  # vegeta-m8: 6 sparse configs
        assert any(s["applied"] for s in steps) and not all(s["applied"] for s in steps)
        assert work["decompose"] == len(pairs)
        if oracle == "error":
            assert work["matmul"] <= (len(pairs) + self.LAYERS) * self.SAMPLES
        else:
            assert work["matmul"] == 0

        wl = load_workload(workspace)
        samples = {ly.layer_id: load_calibration(ly) for ly in wl.layers}
        assignment = {}
        for step in steps:
            previous = assignment.get(step["layer"])
            assignment[step["layer"]] = CFG(step["config"])
            scores = [
                self.layer_score(oracle, ly.weight, assignment[ly.layer_id],
                                 samples[ly.layer_id])
                if ly.layer_id in assignment else float(oracle == "magnitude")
                for ly in wl.layers
            ]
            mean = float(np.mean(scores))
            expected = 0.9 * (mean if oracle == "magnitude" else 1.0 - mean)
            assert step["quality"] == expected
            if not step["applied"]:
                if previous is None:
                    del assignment[step["layer"]]
                else:
                    assignment[step["layer"]] = previous
