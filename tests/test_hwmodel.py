"""Analytical latency/energy model of the structured-sparse target."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from tasd import (
    CostReport,
    HwSpec,
    LayerSpec,
    MixedM,
    NmPattern,
    NotExpressible,
    PatternMenu,
    SchemaError,
    TasdConfig,
    Workload,
    decomp_latency,
    enumerate_configs,
    gemm_cost,
    pattern_table,
    required_tasd_units,
    stc_m4,
    vegeta_m8,
    workload_cost,
)
from tasd.hwmodel import BUILTIN_SPECS, COST_CSV_HEADER, render_cost_csv

CFG = TasdConfig.parse
HW = vegeta_m8()

BASE_ENERGY = {
    "mac": 2.0,
    "rf_access": 0.5,
    "l1_access": 1.0,
    "l2_access": 4.0,
    "dram_access": 80.0,
}


def custom_hw(**overrides):
    fields = dict(
        menu=PatternMenu(8, frozenset({1, 2, 4}), max_terms=2),
        ttc_count=4,
        pe_rows=16,
        pe_cols=16,
        tasd_units_per_ttc=16,
        blocks_out_per_cycle=2,
        elem_bytes=2,
        energy_pj=dict(BASE_ENERGY),
    )
    fields.update(overrides)
    return HwSpec(**fields)


class TestHwSpec:
    def test_counts_must_be_positive(self):
        with pytest.raises(SchemaError):
            custom_hw(pe_rows=0)
        with pytest.raises(SchemaError):
            custom_hw(elem_bytes=-1)

    def test_base_patterns_within_block(self):
        # a menu built in Python fails in PatternMenu; a spec file's, as a SchemaError
        for bases in ({9}, {0}):
            with pytest.raises(ValueError):
                PatternMenu(8, frozenset(bases))
            with pytest.raises(SchemaError):
                HwSpec.from_dict({**HW.to_dict(), "base_patterns": sorted(bases)})

    def test_energy_table_complete(self):
        short = {k: v for k, v in BASE_ENERGY.items() if k != "dram_access"}
        with pytest.raises(SchemaError):
            custom_hw(energy_pj=short)
        with pytest.raises(SchemaError):
            custom_hw(energy_pj={**BASE_ENERGY, "mac": -1.0})

    def test_decomposition_energy_defaults_to_rf(self):
        hw = custom_hw()
        assert hw.energy_pj["tasd_unit"] == hw.energy_pj["rf_access"]
        explicit = custom_hw(energy_pj={**BASE_ENERGY, "tasd_unit": 0.25})
        assert explicit.energy_pj["tasd_unit"] == 0.25

    def test_menu_property(self):
        menu = HW.menu
        assert (menu.m, menu.max_terms) == (8, 2)
        assert menu.base_patterns == frozenset({1, 2, 4})

    def test_dict_and_json_round_trip(self, tmp_path):
        path = tmp_path / "hw.json"
        HW.save(path)
        again = HwSpec.from_json(path)
        assert again == HW
        assert HwSpec.from_dict(HW.to_dict()) == HW

    def test_bad_spec_files(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text("{broken")
        with pytest.raises(SchemaError):
            HwSpec.from_json(path)
        with pytest.raises(SchemaError):
            HwSpec.from_dict({"m": 8})
        with pytest.raises(SchemaError):
            HwSpec.from_dict(["nope"])

    def test_builtins_differ(self):
        assert vegeta_m8().menu.m == 8
        assert stc_m4().menu.m == 4
        assert stc_m4().menu.base_patterns == frozenset({2})

    def test_shipped_config_files_match_factories(self):
        # configs/<name>.json mirrors the built-in spec <name> with "-" for "_"
        configs = Path(__file__).resolve().parent.parent / "configs"
        files = {path.stem.replace("_", "-"): path for path in configs.glob("*.json")}
        assert set(files) == set(BUILTIN_SPECS)
        for name, path in files.items():
            assert HwSpec.from_json(path) == BUILTIN_SPECS[name]()

    def test_builtins_save_their_shipped_files_byte_for_byte(self, tmp_path):
        # the spec JSON stays flat: the menu's m, base_patterns and
        # max_terms sit beside the counts
        configs = Path(__file__).resolve().parent.parent / "configs"
        for name, factory in BUILTIN_SPECS.items():
            path = tmp_path / f"{name}.json"
            factory().save(path)
            assert path.read_bytes() == (configs / f"{name.replace('-', '_')}.json").read_bytes()

    def test_spec_keeps_the_menu_it_was_given(self):
        menu = PatternMenu(8, frozenset({2, 4}), max_terms=1)
        hw = custom_hw(menu=menu)
        assert hw.menu is menu
        assert pattern_table(hw)[1] == (2, CFG("2:8"))

    def test_menu_must_be_a_pattern_menu(self):
        with pytest.raises(SchemaError):
            custom_hw(menu={"m": 8, "base_patterns": [2], "max_terms": 1})


    def test_spec_with_retired_capacity_keys_prices_the_same(self, tmp_path):
        # rf_bytes, l1_bytes and l2_bytes were fields that no cost read; spec
        # files that still carry them load as the spec without them
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(
            {**HW.to_dict(), "rf_bytes": 256, "l1_bytes": 65536, "l2_bytes": 524288}
        ))
        old = HwSpec.from_json(path)
        assert old == HW
        wl = three_layer_workload()
        assignment = {"L0": CFG("4:8+1:8"), "L2": CFG("2:8")}
        assert workload_cost(old, wl, assignment) == workload_cost(HW, wl, assignment)


class TestHwSpecNumbers:
    """A spec file's values are taken as they are or refused with
    SchemaError: no NaN or Inf energy reaches the cost, and no count is
    silently truncated."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["mac", "dram_access", "tasd_unit"])
    def test_non_finite_energy_rejected(self, key, value):
        obj = HW.to_dict()
        obj["energy_pj"][key] = value
        with pytest.raises(SchemaError):
            HwSpec.from_dict(obj)
        with pytest.raises(SchemaError):
            custom_hw(energy_pj={**BASE_ENERGY, key: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", 8.7),
            ("pe_rows", 16.5),
            ("ttc_count", "4"),
            ("max_terms", True),
            ("elem_bytes", True),
            ("base_patterns", [1, 2.5, 4]),
            ("base_patterns", [True, 2, 4]),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        obj = HW.to_dict()
        obj[field] = value
        with pytest.raises(SchemaError):
            HwSpec.from_dict(obj)

    @pytest.mark.parametrize("key", ["mac", "tasd_unit"])
    def test_energy_too_large_for_a_float_rejected(self, key):
        # float() of a 401-digit JSON integer raises OverflowError
        obj = HW.to_dict()
        obj["energy_pj"][key] = 10**400
        with pytest.raises(SchemaError):
            HwSpec.from_dict(obj)
        with pytest.raises(SchemaError):
            custom_hw(energy_pj={**BASE_ENERGY, key: 10**400})

    @pytest.mark.parametrize("value", ["2.5", True, False, None, [2.0]])
    @pytest.mark.parametrize("key", ["mac", "tasd_unit"])
    def test_energy_must_be_a_json_number(self, key, value):
        # "2.5" used to load as 2.5 and true as 1.0, while the same values
        # in a count field were refused
        obj = HW.to_dict()
        obj["energy_pj"][key] = value
        with pytest.raises(SchemaError):
            HwSpec.from_dict(obj)
        with pytest.raises(SchemaError):
            custom_hw(energy_pj={**BASE_ENERGY, key: value})

    def test_integer_energy_loads_as_float(self):
        obj = HW.to_dict()
        obj["energy_pj"]["mac"] = 2
        loaded = HwSpec.from_dict(obj)
        assert loaded == HW
        assert type(loaded.energy_pj["mac"]) is float

    def test_energy_table_of_pairs_rejected(self):
        # dict() of a list of pairs used to pass for a table
        pairs = [[key, value] for key, value in BASE_ENERGY.items()]
        obj = HW.to_dict()
        obj["energy_pj"] = pairs
        with pytest.raises(SchemaError):
            HwSpec.from_dict(obj)
        with pytest.raises(SchemaError):
            custom_hw(energy_pj=pairs)

    def test_energy_table_must_be_an_object(self):
        obj = HW.to_dict()
        obj["energy_pj"] = [2.0, 0.5, 1.0, 4.0, 80.0]
        with pytest.raises(SchemaError):
            HwSpec.from_dict(obj)


class TestPatternSupport:
    def test_supported_totals(self):
        table = pattern_table(HW)
        rendered = {
            total: cfg.canonical() if cfg else None for total, cfg in table
        }
        assert rendered == {
            1: "1:8",
            2: "2:8",
            3: "2:8+1:8",
            4: "4:8",
            5: "4:8+1:8",
            6: "4:8+2:8",
            7: None,
            8: "8:8",
        }

    def test_stc_table(self):
        rendered = {
            total: cfg.canonical() if cfg else None
            for total, cfg in pattern_table(stc_m4())
        }
        assert rendered == {1: None, 2: "2:4", 3: None, 4: "4:4"}


class TestDecompLatency:
    def test_series_latency_sums_term_widths(self):
        assert decomp_latency(CFG("4:8+1:8")) == 5
        assert decomp_latency("2:8") == 2
        assert decomp_latency("8:8") == 8

    def test_mixed_block_sizes_rejected(self):
        with pytest.raises(MixedM):
            decomp_latency("2:4+2:8")

    def test_required_units(self):
        assert required_tasd_units(HW) == 16  # 2 blocks/cycle x worst-case 8
        assert required_tasd_units(HW, CFG("4:8+1:8")) == 10
        assert required_tasd_units(stc_m4()) == 4
        assert required_tasd_units(custom_hw(blocks_out_per_cycle=1,
                                             menu=PatternMenu(4, frozenset({2})))) == 4


class TestGemmCost:
    def test_zero_dims_cost_nothing(self):
        report = gemm_cost(HW, 0, 16, 16)
        assert report.cycles == report.mac_count == report.stall_cycles == 0
        assert report.energy_pj == report.edp == 0.0
        with pytest.raises(ValueError):
            gemm_cost(HW, -1, 16, 16)

    @pytest.mark.parametrize(
        "dims, error",
        [
            ((8.5, 8, 8), ValueError),  # was priced at 544 MACs
            ((8, 8.0, 8), ValueError),
            ((True, 8, 8), ValueError),  # was priced as 1 row
            ((8, 8, "8"), ValueError),
            ((10**400, 8, 8), SchemaError),  # escaped as an OverflowError
            ((10**120, 10**120, 8), SchemaError),  # was an infinite EDP
        ],
    )
    def test_dims_must_be_integers_with_a_finite_cost(self, dims, error):
        with pytest.raises(error):
            gemm_cost(HW, *dims)

    @pytest.mark.parametrize("text", ["2:8", "8:8", "4:8+1:8"])
    def test_any_config_spec(self, text):
        # a string or an NmPattern used to fail with an AttributeError
        specs = [text, CFG(text), *([CFG(text).terms[0]] if "+" not in text else [])]
        reports = [gemm_cost(HW, 64, 48, 40, spec) for spec in specs]
        assert all(report == reports[0] for report in reports)
        with pytest.raises(NotExpressible):
            gemm_cost(HW, 64, 48, 40, "3:8")

    def test_unsupported_configs_rejected(self):
        for bad in ("3:8", "7:8", "2:4", "2:4+2:8", "1:8+1:8+1:8"):
            with pytest.raises(NotExpressible):
                gemm_cost(HW, 64, 64, 64, CFG(bad))

    def test_single_term_halves_compute(self):
        dense = gemm_cost(HW, 128, 128, 128)
        half = gemm_cost(HW, 128, 128, 128, CFG("4:8"))
        assert half.cycles * 2 == dense.cycles
        assert half.mac_count * 2 == dense.mac_count

    def test_cycle_ratio_tracks_coverage(self):
        dense = gemm_cost(HW, 1024, 1024, 1024).cycles
        for cfg in enumerate_configs(HW.menu):
            ratio = gemm_cost(HW, 1024, 1024, 1024, cfg).cycles / dense
            assert ratio == pytest.approx(cfg.coverage, rel=0.02)
        series = gemm_cost(HW, 1024, 1024, 1024, CFG("4:8+1:8"))
        assert series.cycles / dense == 0.625

    def test_dense_skips_decomposition_machinery(self):
        report = gemm_cost(HW, 256, 256, 256)
        assert report.stall_cycles == 0
        assert report.breakdown["tasd_unit"] == 0.0
        explicit = gemm_cost(HW, 256, 256, 256, CFG("8:8"))
        assert explicit == report

    def test_sparse_configs_pay_decomposition_energy(self):
        report = gemm_cost(HW, 256, 256, 256, CFG("4:8+1:8"))
        assert report.breakdown["tasd_unit"] > 0.0

    def test_edp_and_breakdown_identities(self):
        for cfg in (None, CFG("4:8"), CFG("4:8+2:8")):
            report = gemm_cost(HW, 96, 80, 72, cfg)
            assert report.edp == report.energy_pj * report.cycles
            assert report.energy_pj == pytest.approx(sum(report.breakdown.values()))
            assert set(report.breakdown) == {"mac", "rf", "l1", "l2", "dram", "tasd_unit"}

    def test_cycles_and_energy_monotone_in_coverage(self):
        for dims in [(64, 64, 64), (256, 256, 256), (96, 80, 72)]:
            reports = [
                (cfg.coverage, gemm_cost(HW, *dims, cfg)) for cfg in enumerate_configs(HW.menu)
            ]
            reports.sort(key=lambda t: t[0])
            for (_, lo), (_, hi) in zip(reports, reports[1:]):
                assert lo.cycles < hi.cycles
                assert lo.energy_pj < hi.energy_pj

    def test_stalls_appear_when_units_are_scarce(self):
        enough = custom_hw(tasd_units_per_ttc=10)
        starved = custom_hw(tasd_units_per_ttc=4)
        cfg = CFG("4:8+1:8")  # needs 2 x 5 = 10 units
        assert gemm_cost(enough, 128, 128, 128, cfg).stall_cycles == 0
        report = gemm_cost(starved, 128, 128, 128, cfg)
        assert report.stall_cycles > 0
        baseline = gemm_cost(enough, 128, 128, 128, cfg)
        assert report.cycles == baseline.cycles + report.stall_cycles
        # starving the decomposition stage costs time, not energy
        assert report.energy_pj == baseline.energy_pj

    def test_report_is_frozen(self):
        report = gemm_cost(HW, 16, 16, 16)
        assert isinstance(report, CostReport)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.cycles = 0
        with pytest.raises(TypeError):
            report.breakdown["mac"] = 0.0


def three_layer_workload():
    return Workload(
        "synthetic",
        (
            LayerSpec("L0", 256, 128, 512),
            LayerSpec("L1", 128, 128, 1024),
            LayerSpec("L2", 512, 64, 256),
        ),
        baseline_quality=1.0,
    )


class TestWorkloadCost:
    def test_aggregate_equals_row_sums(self):
        wl = three_layer_workload()
        assignment = {"L0": CFG("4:8+1:8"), "L2": CFG("2:8")}
        total, rows = workload_cost(HW, wl, assignment)
        assert [r["layer"] for r in rows] == ["L0", "L1", "L2"]
        assert [r["config"] for r in rows] == ["4:8+1:8", "dense", "2:8"]
        assert total.cycles == sum(r["cycles"] for r in rows)
        assert total.mac_count == sum(r["macs"] for r in rows)
        assert total.energy_pj == pytest.approx(
            sum(r["e_mac"] + r["e_rf"] + r["e_l1"] + r["e_l2"] + r["e_dram"] + r["e_tasd"]
                for r in rows)
        )
        # aggregate EDP couples total energy with total latency
        assert total.edp == total.energy_pj * total.cycles
        assert total.edp != pytest.approx(sum(r["edp"] for r in rows))

    def test_config_strings_cost_as_their_configs(self):
        # each layer's config is read through ``config_of``, as in gemm_cost
        wl = three_layer_workload()
        parsed = workload_cost(HW, wl, {"L0": CFG("4:8+1:8"), "L2": CFG("2:8")})
        assert workload_cost(HW, wl, {"L0": "4:8+1:8", "L2": "2:8"}) == parsed

    def test_all_dense_matches_per_layer_dense(self):
        wl = three_layer_workload()
        total, rows = workload_cost(HW, wl)
        per_layer = [gemm_cost(HW, ly.gemm_m, ly.gemm_n, ly.gemm_k) for ly in wl.layers]
        assert total.cycles == sum(r.cycles for r in per_layer)
        assert total.energy_pj == pytest.approx(sum(r.energy_pj for r in per_layer))
        assert all(r["config"] == "dense" for r in rows)

    def test_assignment_beats_dense_on_edp(self):
        wl = three_layer_workload()
        assignment = {lid: CFG("4:8+1:8") for lid in ("L0", "L1", "L2")}
        sparse, _ = workload_cost(HW, wl, assignment)
        dense, _ = workload_cost(HW, wl)
        assert sparse.edp < dense.edp

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"assignment": {"ZZ": CFG("2:8")}},
            {"assignment": {"L0": CFG("2:8"), "ZZ": CFG("4:8")}},
        ],
    )
    def test_unknown_layer_ids_rejected(self, kwargs):
        # ignoring the id would price every layer dense without a word
        with pytest.raises(SchemaError, match="'ZZ'"):
            workload_cost(HW, three_layer_workload(), **kwargs)

    @pytest.mark.parametrize(
        "dims, mac_energy",
        [((10**400, 8, 8), 2.0), ((10**120, 10**120, 8), 2.0), ((64, 64, 64), 1e308)],
    )
    def test_cost_overflowing_a_float_rejected(self, dims, mac_energy):
        # 10**400 rows used to escape as an OverflowError; the other two
        # used to price the workload at an infinite EDP
        hw = custom_hw(energy_pj={**BASE_ENERGY, "mac": mac_energy})
        wl = Workload("w", (LayerSpec("L0", *dims),), baseline_quality=1.0)
        with pytest.raises(SchemaError, match="overflows"):
            workload_cost(hw, wl)

    def test_total_overflowing_a_float_rejected(self):
        # each layer's cost is finite; only their sum overflows
        hw = custom_hw(energy_pj={**BASE_ENERGY, "mac": 1e308})
        layers = (LayerSpec("L0", 1, 1, 1), LayerSpec("L1", 1, 1, 1))
        assert math.isfinite(gemm_cost(hw, 1, 1, 1).edp)
        with pytest.raises(SchemaError, match="the workload's cost overflows a float"):
            workload_cost(hw, Workload("w", layers, baseline_quality=1.0))

    def test_total_mac_count_too_large_for_a_float_rejected(self):
        # each layer prices finite, but converting the summed MAC count to a
        # float raises OverflowError, which must surface as a SchemaError
        hw = dataclasses.replace(HW, energy_pj={key: 1e-310 for key in HW.energy_pj})
        dim = 49 * 10**101
        layer = gemm_cost(hw, dim, dim, dim)
        assert math.isfinite(float(layer.mac_count)) and math.isfinite(layer.edp)
        with pytest.raises(OverflowError):
            float(2 * layer.mac_count)
        layers = (LayerSpec("L0", dim, dim, dim), LayerSpec("L1", dim, dim, dim))
        with pytest.raises(SchemaError, match="the workload's cost overflows a float"):
            workload_cost(hw, Workload("w", layers, baseline_quality=1.0))

    def test_csv_rendering(self):
        wl = three_layer_workload()
        _, rows = workload_cost(HW, wl, {"L0": CFG("2:8")})
        text = render_cost_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == COST_CSV_HEADER
        assert len(lines) == 1 + len(rows)
        first = lines[1].split(",")
        assert first[0] == "L0"
        assert first[1] == "2:8"
        assert int(first[2]) == rows[0]["cycles"]
        assert float(first[-1]) == rows[0]["edp"]
