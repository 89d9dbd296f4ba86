"""Workload manifests and the quality-oracle contract."""

import json
import os
import stat
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SLOW_SCRIPT, assert_gone, record_calls
from tasd import (
    CommandOracle,
    DimensionMismatch,
    ErrorOracle,
    LayerSpec,
    MagnitudeOracle,
    MissingCalibration,
    NonFiniteEntry,
    OracleFailure,
    SchemaError,
    TasdConfig,
    Workload,
    decompose,
    drop_metrics,
    load_calibration,
    load_matrix,
    load_workload,
    new_dense,
    random_matrix,
    relative_error,
    save_matrix,
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

    @pytest.mark.parametrize(
        "dims, flags",
        [((2.0, 1, 1), {}), ((1, True, 1), {}), ((1, 1, 1), {"weights_sparse": 1}),
         ((1, 1, 1), {"acts_sparse": "yes"})],
    )
    def test_typed_fields_required(self, dims, flags):
        with pytest.raises(SchemaError):
            LayerSpec("L0", *dims, **flags)

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

    def test_name_and_layer_ids_must_be_strings(self):
        with pytest.raises(SchemaError):
            LayerSpec(None, 1, 1, 1)
        with pytest.raises(SchemaError):
            Workload(5, (LayerSpec("L0", 1, 1, 1),), baseline_quality=1.0)

    def test_layer_lookup(self):
        wl = two_layer_workload()
        assert wl.layer("L1").gemm_k == 3
        with pytest.raises(KeyError):
            wl.layer("nope")

    @pytest.mark.parametrize(
        "baseline",
        [float("nan"), float("inf"), -float("inf"), True, "0.9", None,
         pytest.param(10**400, id="10**400")],
    )
    def test_baseline_must_be_a_finite_number(self, baseline):
        # a NaN baseline used to be accepted, and greedy search then
        # configured no layer
        with pytest.raises(SchemaError, match="baseline_quality"):
            Workload("w", (LayerSpec("L0", 1, 1, 1),), baseline_quality=baseline)
        assert Workload("w", (LayerSpec("L0", 1, 1, 1),), 1).baseline_quality == 1.0


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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("m", 8.7),
            ("n", True),
            ("k", "8"),
            ("weights_sparse", "false"),
            ("acts_sparse", 1),
            ("baseline_quality", True),
            ("baseline_quality", "0.9"),
            ("name", 5),
            ("name", None),
            ("id", None),
            ("id", ["x"]),
            ("id", 3),
            ("weight", 5),
            ("weight", ["w.tasd1"]),
            ("calibration_dir", ["a"]),
            ("calibration_dir", 1),
        ],
    )
    def test_mistyped_values_rejected(self, tmp_path, key, value):
        # each of these used to be coerced: 8.7 to 8, true to 1, "8" to 8,
        # "false" to True, "0.9" to 0.9, a null id to "None" and ["x"] to
        # "['x']"; a numeric or list path escaped as a TypeError
        layer = {"id": "a", "m": 8, "n": 8, "k": 8}
        obj = {"name": "x", "baseline_quality": 0.9, "layers": [layer]}
        (obj if key in ("baseline_quality", "name") else layer)[key] = value
        with pytest.raises(SchemaError):
            load_workload(self.write_manifest(tmp_path, obj))

    def test_null_paths_mean_absent(self, tmp_path):
        # the handoff manifest of CommandOracle writes "weight": null
        layer = {"id": "a", "m": 8, "n": 8, "k": 8, "weight": None, "calibration_dir": None}
        obj = {"name": "x", "baseline_quality": 0.9, "layers": [layer]}
        loaded = load_workload(self.write_manifest(tmp_path, obj)).layer("a")
        assert loaded.weight is None and loaded.calibration_dir is None

    @pytest.mark.parametrize("sign", [1, -1])
    def test_baseline_too_large_for_a_float_rejected(self, tmp_path, sign):
        # float() of a 401-digit JSON integer raises OverflowError
        layer = {"id": "a", "m": 8, "n": 8, "k": 8}
        obj = {"name": "x", "baseline_quality": sign * 10**400, "layers": [layer]}
        with pytest.raises(SchemaError):
            load_workload(self.write_manifest(tmp_path, obj))

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
        oracle = MagnitudeOracle()
        assert oracle.evaluate(wl, {}) == 0.875
        assert oracle.evaluate(wl, {"L0": CFG("4:4")}) == 0.875

    def test_known_drop(self):
        wl = two_layer_workload(baseline=2.0)
        oracle = MagnitudeOracle()
        # L0 keeps (4+3)/10 of its magnitude under 2:4, L1 counts as 1.0
        quality = oracle.evaluate(wl, {"L0": CFG("2:4")})
        assert quality == pytest.approx(2.0 * (0.7 + 1.0) / 2)

    def test_escalation_lowers_quality(self):
        weight = random_matrix(16, 16, 1.0, "normal", seed=5)
        wl = Workload(
            "w", (LayerSpec("L0", 16, 4, 16, weight=weight),), baseline_quality=1.0
        )
        oracle = MagnitudeOracle()
        qualities = [
            oracle.evaluate(wl, {"L0": CFG(c)}) for c in ("6:8", "4:8", "2:8", "1:8")
        ]
        assert qualities == sorted(qualities, reverse=True)
        assert qualities[-1] < 1.0

    def test_configured_layer_without_weight_fails(self):
        wl = two_layer_workload()
        oracle = MagnitudeOracle()
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
        oracle = ErrorOracle()
        assert oracle.evaluate(wl, {}) == 1.0

    def test_compliant_weight_is_error_free(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 0.0], [[1.0], [1.0]])
        oracle = ErrorOracle()
        assert oracle.evaluate(wl, {"L0": CFG("1:2")}) == 1.0

    def test_known_relative_error(self, tmp_path):
        # weight [1, 1] halves under 1:2; with sample [1, 1]^T the
        # residual product is 1 against a reference of 2.
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [1.0]])
        oracle = ErrorOracle()
        assert oracle.evaluate(wl, {"L0": CFG("1:2")}) == 0.5

    def test_missing_calibration_dir(self):
        wl = two_layer_workload()
        oracle = ErrorOracle()
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
            ErrorOracle().evaluate(wl, {"L0": CFG("2:4")})

    def test_sample_rows_must_match_k(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [1.0], [1.0]])
        with pytest.raises(DimensionMismatch):
            ErrorOracle().evaluate(wl, {"L0": CFG("1:2")})

    def test_zero_reference_product_fails(self, tmp_path):
        wl = self.build(tmp_path, [0.0, 0.0], [[1.0], [1.0]])
        with pytest.raises(OracleFailure):
            ErrorOracle().evaluate(wl, {"L0": CFG("1:2")})

    def sampled_layer(self, tmp_path, samples):
        """One 16x16 layer with the given calibration samples."""
        calib = tmp_path / "calib"
        calib.mkdir()
        for si, sample in enumerate(samples):
            save_matrix(sample, calib / f"s{si}.tasd1")
        weight = random_matrix(16, 16, 0.8, "normal", seed=11)
        layer = LayerSpec("L0", 16, 8, 16, weight=weight, calibration_dir=str(calib))
        return Workload("w", (layer,), baseline_quality=1.0), weight

    @pytest.mark.parametrize("config", ["1:4", "2:4", "1:8", "2:8+1:8", "4:8"])
    def test_samples_of_unequal_widths(self, tmp_path, config):
        # one product per config over the samples side by side gives each
        # sample's error bit for bit
        samples = [random_matrix(16, cols, 0.9, "uniform", seed=(12, cols))
                   for cols in (8, 1, 5)]
        wl, weight = self.sampled_layer(tmp_path, samples)
        score = float(np.mean([relative_error(weight, config, b) for b in samples]))
        assert ErrorOracle().evaluate(wl, {"L0": CFG(config)}) == 1.0 - score

    def test_one_all_zero_sample_fails(self, tmp_path):
        samples = [random_matrix(16, 4, 1.0, "uniform", seed=13), np.zeros((16, 3)),
                   random_matrix(16, 2, 1.0, "uniform", seed=14)]
        wl, _ = self.sampled_layer(tmp_path, samples)
        with pytest.raises(OracleFailure, match="'L0'.*sample 1 has zero"):
            ErrorOracle().evaluate(wl, {"L0": CFG("2:4")})

    def test_loader_sorts_by_file_name(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [2.0]])
        save_matrix(np.array([[3.0], [4.0]]), tmp_path / "calib" / "a.tasd1")
        samples = load_calibration(wl.layer("L0"))
        assert [s.tolist() for s in samples] == [[[3.0], [4.0]], [[1.0], [2.0]]]

    def test_samples_are_cached(self, tmp_path):
        wl = self.build(tmp_path, [1.0, 1.0], [[1.0], [1.0]])
        oracle = ErrorOracle()
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
        fresh_b = ErrorOracle().evaluate(wl_b, assignment)
        assert fresh_b == 1.0
        oracle = ErrorOracle()
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


COPY_EACH_SCRIPT = textwrap.dedent(
    """\
    import os, shutil, sys
    root = os.environ["HANDOFF_COPY_ROOT"]
    os.makedirs(root, exist_ok=True)
    shutil.copytree(os.path.dirname(sys.argv[1]), os.path.join(root, "%03d" % len(os.listdir(root))))
    print("1.0" if len(os.listdir(root)) % 2 else "0.0")
    """
)

class TestExternalCommandOracle:
    def test_returns_printed_float(self, tmp_path):
        script = tmp_path / "oracle.py"
        script.write_text(ECHO_SCRIPT)
        oracle = CommandOracle([sys.executable, str(script)])
        wl = two_layer_workload()
        assert oracle.evaluate(wl, {}) == 0.761
        # referentially transparent: same inputs, same answer
        assert oracle.evaluate(wl, {}) == 0.761

    def test_string_command_accepted(self, tmp_path):
        script = tmp_path / "oracle"
        script.write_text(f"#!{sys.executable}\n" + ECHO_SCRIPT)
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        oracle = CommandOracle(str(script))
        assert oracle.evaluate(two_layer_workload(), {}) == 0.761

    def test_handoff_contract(self, tmp_path, monkeypatch):
        from tasd import approximate, load_matrix

        copy_dir = tmp_path / "copied"
        monkeypatch.setenv("HANDOFF_COPY_DIR", str(copy_dir))
        script = tmp_path / "snoop.py"
        script.write_text(SNOOP_SCRIPT)

        wl = two_layer_workload(baseline=0.9)
        oracle = CommandOracle([sys.executable, str(script)])
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

    def test_layer_ids_cannot_place_files(self, tmp_path, monkeypatch):
        import tempfile

        from tasd import approximate

        temp_root = tmp_path / "temp"
        temp_root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp_root))
        copy_dir = tmp_path / "copied"
        monkeypatch.setenv("HANDOFF_COPY_DIR", str(copy_dir))
        script = tmp_path / "snoop.py"
        script.write_text(SNOOP_SCRIPT)

        weights = [new_dense(2, 4, [4.0, 3.0, 2.0, 1.0, 0.0, 5.0, 6.0, 7.0]) * s for s in (1, 2)]
        layers = [LayerSpec(i, 2, 3, 4, weight=w) for i, w in zip(("../escaped", "a/b"), weights)]
        wl = Workload("ids", tuple(layers), baseline_quality=1.0)
        assignment = {"a/b": CFG("2:4")}
        assert CommandOracle([sys.executable, str(script)]).evaluate(wl, assignment) == 1.0

        assert list(temp_root.iterdir()) == []  # the oracle's temp dir is gone, nothing beside it
        manifest = json.loads((copy_dir / "manifest.json").read_text())
        expected = {"../escaped": weights[0], "a/b": approximate(weights[1], CFG("2:4"))}
        for entry in manifest["layers"]:
            handed = copy_dir / entry["weight"]
            assert handed.parent == copy_dir
            assert np.array_equal(load_matrix(handed), expected[entry["id"]])
        assert sorted(p.name for p in copy_dir.iterdir()) == sorted(
            ["manifest.json", *(entry["weight"] for entry in manifest["layers"])]
        )

    def test_greedy_handoffs_come_from_one_rank_pass_per_layer(self, tmp_path, monkeypatch):
        import tasd._kernels
        import tasd.decomp
        from tasd import approximate, layer_wise_greedy, vegeta_m8

        copy_root = tmp_path / "copies"
        monkeypatch.setenv("HANDOFF_COPY_ROOT", str(copy_root))
        script = tmp_path / "snoop.py"
        script.write_text(COPY_EACH_SCRIPT)
        # negated draws hold -0.0 where the weight is empty
        weights = [random_matrix(16, 16, d, "normal", seed=(5, i)) * (-1.0) ** i
                   for i, d in enumerate((0.3, 0.7, 1.0))]
        wl = Workload("w", tuple(LayerSpec(f"L{i}", 16, 4, 16, weight=w)
                                 for i, w in enumerate(weights)), baseline_quality=1.0)

        passes = record_calls(monkeypatch, tasd.decomp, "block_ranks")
        extractions = record_calls(monkeypatch, tasd._kernels, "extract_term_blocks")
        oracle = CommandOracle([sys.executable, str(script)])
        trace = []
        layer_wise_greedy(wl, vegeta_m8().menu, oracle, threshold=0.5,
                          skip_and_continue=True, trace=trace)
        monkeypatch.undo()
        assert (len(passes), len(extractions)) == (3, 0)
        assert len(trace) == 18 and any(t["applied"] for t in trace)

        handoffs = sorted(copy_root.iterdir())
        assert len(handoffs) == 18
        checked = 0
        for handoff in handoffs:
            manifest = json.loads((handoff / "manifest.json").read_text())
            for li, entry in enumerate(manifest["layers"]):
                handed = load_matrix(handoff / entry["weight"])
                if entry["config"] == "dense":
                    expected = weights[li]
                else:
                    expected = approximate(weights[li], CFG(entry["config"]))
                    checked += 1
                assert handed.tobytes() == expected.tobytes()
        assert checked > 18

    def test_timeout_kills_the_process_group(self, tmp_path):
        pid_file = tmp_path / "child.pid"
        script = tmp_path / "slow.py"
        script.write_text(SLOW_SCRIPT.format(pid_file=str(pid_file)))
        oracle = CommandOracle([sys.executable, str(script)], timeout=2.0)
        with pytest.raises(OracleFailure, match="timeout"):
            oracle.evaluate(two_layer_workload(), {})
        assert_gone(int(pid_file.read_text()))

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError):
            CommandOracle("oracle", timeout=timeout)

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
            oracle = CommandOracle([sys.executable, str(script)])
            with pytest.raises(OracleFailure):
                oracle.evaluate(wl, {})

    def test_missing_binary(self):
        oracle = CommandOracle([os.path.join(os.sep, "definitely", "missing")])
        with pytest.raises(OracleFailure):
            oracle.evaluate(two_layer_workload(), {})


class TestOracleConstruction:
    def test_command_required(self):
        with pytest.raises(ValueError):
            CommandOracle("")
        with pytest.raises(ValueError):
            CommandOracle([])


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
        import tasd.decomp
        import tasd.workload
        from tasd.cli import main

        work = {"decompose": 0, "matmul": 0, "rank": 0}

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
        monkeypatch.setattr(
            tasd.decomp, "block_ranks", counted("rank", tasd.decomp.block_ranks)
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
        if oracle == "error":
            # one rank pass per layer gives every residual
            assert (work["decompose"], work["rank"]) == (0, self.LAYERS)
            # one product per layer for the reference norms and one per
            # pair, each over the layer's samples side by side
            assert work["matmul"] == len(pairs) + self.LAYERS
        else:
            assert (work["decompose"], work["rank"]) == (len(pairs), 0)
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
