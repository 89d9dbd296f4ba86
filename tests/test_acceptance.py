"""Acceptance gate: nine behavioral criteria, one test (and one printed
PASS/FAIL line) per criterion. Each criterion carries a wall-clock budget
enforced after its assertions pass."""

import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pytest

from tasd import (
    LayerSpec,
    MagnitudeOracle,
    PatternMenu,
    TasdConfig,
    Workload,
    approximate,
    decode,
    decompose,
    dense_config,
    enumerate_configs,
    layer_wise_greedy,
    load_matrix,
    matmul,
    random_matrix,
    required_tasd_units,
    save_matrix,
    sparsity_select,
    sweep_synthetic,
    tasd_matmul,
    vegeta_m8,
    workload_cost,
)
from tasd.approxmm import error_sweep
from tasd.hwmodel import decomp_latency, gemm_cost
from tasd.search import ranked_pairs

from conftest import CONFIG_POOL, LOSSLESS_POOL

CFG = TasdConfig.parse


@contextmanager
def criterion(number: int, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"[criterion {number}] FAIL")
        raise AssertionError(
            f"criterion {number} blew its {budget_s:.0f}s budget: {elapsed:.2f}s"
        )
    print(f"[criterion {number}] PASS ({elapsed:.2f}s)")


def test_criterion_01_exact_reconstruction_across_random_matrices():
    with criterion(1, budget_s=10.0):
        rng = np.random.default_rng(20260819)
        densities = np.round(np.linspace(0.05, 1.0, 20), 4)
        pool = CONFIG_POOL + LOSSLESS_POOL
        for i in range(1000):
            rows = int(rng.integers(1, 65))
            cols = int(rng.integers(1, 65))
            density = float(densities[i % len(densities)])
            dist = ("uniform", "normal")[i % 2]
            cfg_name = pool[int(rng.integers(len(pool)))]
            mat = random_matrix(rows, cols, density, dist, seed=i)
            d = decompose(mat, CFG(cfg_name))
            total = d.residual.copy()
            for term in d.terms:
                total += decode(term)
            assert total.tobytes() == mat.tobytes(), (
                f"matrix {i} ({rows}x{cols}, {density}, {dist}, {cfg_name}) "
                "did not reassemble bit-exactly"
            )
            if cfg_name in LOSSLESS_POOL:
                assert np.count_nonzero(d.residual) == 0, (
                    f"full-coverage series {cfg_name} left residual entries"
                )


def test_criterion_02_series_product_distributes_over_terms():
    with criterion(2, budget_s=10.0):
        rng = np.random.default_rng(8151)
        for i in range(200):
            am = int(rng.integers(1, 49))
            ak = int(rng.integers(1, 49))
            bn = int(rng.integers(1, 17))
            density = float(rng.choice([0.05, 0.2, 0.5, 0.8, 1.0]))
            cfg = CFG(CONFIG_POOL[int(rng.integers(len(CONFIG_POOL)))])
            a = random_matrix(am, ak, density, "normal", seed=(1, i))
            b = random_matrix(ak, bn, 1.0, "uniform", seed=(2, i))
            ours, _ = tasd_matmul(decompose(a, cfg), b)
            ref = matmul(approximate(a, cfg), b)
            diff = float(np.linalg.norm(ours - ref))
            scale = max(float(np.linalg.norm(ref)), 1.0)
            assert diff <= 1e-10 * scale, f"triple {i}: {diff} vs {scale}"


def test_criterion_03_synthetic_sweep_reproduces_drop_statistics():
    with criterion(3, budget_s=60.0):
        densities = [round(0.10 + 0.05 * i, 2) for i in range(14)]
        configs = ("2:4", "2:4+2:8", "2:4+2:8+2:16")
        table = sweep_synthetic(
            (128, 128), densities, ("uniform", "normal"), configs,
            seeds=range(20), master_seed=0,
        )
        cells = defaultdict(lambda: {"nnz": [], "mag": []})
        for row in table:
            cell = cells[(row["density"], row["distribution"], row["config"])]
            cell["nnz"].append(row["dropped_nnz"])
            cell["mag"].append(row["dropped_mag"])
        means = {
            key: (float(np.mean(v["nnz"])), float(np.mean(v["mag"])))
            for key, v in cells.items()
        }

        # (a) the two-term series is near-lossless on 10%-dense matrices
        for dist in ("uniform", "normal"):
            mean_nnz, _ = means[(0.10, dist, "2:4+2:8")]
            assert mean_nnz < 0.01, f"{dist}: mean dropped nnz {mean_nnz}"

        # (b) dropped magnitude never exceeds dropped nnz, cell by cell:
        # greedy extraction keeps the largest entries first
        for key, (mean_nnz, mean_mag) in means.items():
            assert mean_mag <= mean_nnz, f"cell {key}: {mean_mag} > {mean_nnz}"

        # (c) both dropped fractions grow (weakly) with density
        for dist in ("uniform", "normal"):
            for cfg_name in configs:
                series = [means[(d, dist, cfg_name)] for d in densities]
                for (lo_n, lo_m), (hi_n, hi_m) in zip(series, series[1:]):
                    assert hi_n >= lo_n - 1e-12, f"{dist}/{cfg_name}: nnz dipped"
                    assert hi_m >= lo_m - 1e-12, f"{dist}/{cfg_name}: mag dipped"


def test_criterion_04_product_error_trends_across_configs():
    with criterion(4, budget_s=300.0):
        table = error_sweep()  # 256x256, A sparsity {0.2, 0.8}, 20 seeds
        err = {(row["a_sparsity"], row["config"]): row["mean_rel_error"] for row in table}

        # (i) within one block-size family, error falls as coverage grows;
        # equality is tolerated only once the error has hit exactly zero
        families = {4: [f"{n}:4" for n in range(1, 5)],
                    8: [f"{n}:8" for n in range(1, 9)]}
        for sp in (0.2, 0.8):
            for names in families.values():
                curve = [err[(sp, name)] for name in names]
                for hi, lo in zip(curve, curve[1:]):
                    if hi == 0.0 and lo == 0.0:
                        continue
                    assert lo < hi, f"sparsity {sp}: {names} not decreasing ({curve})"

        # (ii) at matched approximated sparsity, finer-grained m=8 blocks
        # track the matrix better than m=4
        for sp in (0.2, 0.8):
            assert err[(sp, "2:8")] < err[(sp, "1:4")]
            assert err[(sp, "4:8")] < err[(sp, "2:4")]

        # (iii) a sparser A is easier to approximate at every config
        for n in range(1, 5):
            name = f"{n}:4"
            assert err[(0.8, name)] <= err[(0.2, name)]
            if err[(0.2, name)] > 0.0:
                assert err[(0.8, name)] < err[(0.2, name)]
        for n in range(1, 9):
            name = f"{n}:8"
            assert err[(0.8, name)] <= err[(0.2, name)]
            if err[(0.2, name)] > 0.0:
                assert err[(0.8, name)] < err[(0.2, name)]


def test_criterion_05_two_term_menu_expresses_documented_totals():
    with criterion(5, budget_s=5.0):
        menu = PatternMenu(m=8, base_patterns=frozenset({1, 2, 4}), max_terms=2)
        configs = enumerate_configs(menu)
        table = {cfg.sum_n: cfg.canonical() for cfg in configs}
        assert sorted(table) == [1, 2, 3, 4, 5, 6, 8]
        assert 7 not in table
        assert table[3] == "2:8+1:8"
        assert table[5] == "4:8+1:8"
        assert table[6] == "4:8+2:8"


def test_criterion_06_sparsity_guided_selection_matches_linear_scan():
    with criterion(6, budget_s=5.0):
        quarters = PatternMenu(4, frozenset({1, 2, 3}), 1)  # H = {0,.25,.5,.75}
        assert sparsity_select(0.60, 0.10, quarters).approximated_sparsity == 0.50
        assert sparsity_select(0.90, 0.10, quarters).approximated_sparsity == 0.75
        assert sparsity_select(0.0, 0.0, quarters).is_dense

        rng = np.random.default_rng(66)
        for _ in range(50):
            m = int(rng.choice([4, 8, 16]))
            size = int(rng.integers(1, min(m, 5) + 1))
            base = frozenset(int(n) for n in rng.choice(m, size=size, replace=False) + 1)
            menu = PatternMenu(m, base, int(rng.integers(1, 4)))
            s = float(rng.uniform(0, 1))
            alpha = float(rng.uniform(0, 0.3))
            chosen = sparsity_select(s, alpha, menu)
            target = s + alpha
            fits = [
                c for c in enumerate_configs(menu)
                if c.approximated_sparsity < target
            ]
            if not fits or target <= 0.0:
                assert chosen.is_dense
            else:
                best = max(fits, key=lambda c: c.approximated_sparsity)
                assert chosen == best


def test_criterion_07_greedy_assignment_equals_prefix_oracle():
    with criterion(7, budget_s=30.0):
        menu = vegeta_m8().menu
        oracle = MagnitudeOracle()
        rng = np.random.default_rng(7)
        for trial in range(100):
            layers = []
            for i in range(3):
                density = float(rng.uniform(0.05, 1.0))
                weight = random_matrix(
                    16, 16, density, "normal", seed=int(rng.integers(2**31))
                )
                layers.append(LayerSpec(f"L{i}", 16, 16, 16, weight=weight))
            wl = Workload(f"t{trial}", tuple(layers), baseline_quality=1.0)
            gate = 0.99 * wl.baseline_quality

            greedy = layer_wise_greedy(wl, menu, oracle, threshold=0.99)

            # oracle: fold every prefix of the drop-sorted pair list and
            # keep the longest one that still clears the gate
            snapshots = [{}]
            running = {}
            for _, layer_id, cfg in ranked_pairs(wl, menu):
                running[layer_id] = cfg
                snapshots.append(dict(running))
            longest = max(
                k for k, snap in enumerate(snapshots)
                if oracle.evaluate(wl, snap) >= gate
            )
            assert greedy == snapshots[longest], f"trial {trial} diverged"
            assert oracle.evaluate(wl, greedy) >= gate, f"trial {trial} below gate"


def test_criterion_08_cost_model_fixed_points_and_directions():
    with criterion(8, budget_s=10.0):
        hw = vegeta_m8()

        # (a) per-block latency of the documented series; stall-free unit
        # count for two blocks per cycle at worst-case m
        assert decomp_latency(CFG("4:8+1:8")) == 5
        assert required_tasd_units(hw) == 16

        # (b) compute cycles track coverage on a 1024^3 GEMM
        dense_cycles = gemm_cost(hw, 1024, 1024, 1024).cycles
        for cfg in enumerate_configs(hw.menu):
            ratio = gemm_cost(hw, 1024, 1024, 1024, cfg).cycles / dense_cycles
            assert ratio == pytest.approx(cfg.coverage, rel=0.02)

        # (c) dense execution touches no decomposition machinery
        dense_report = gemm_cost(hw, 1024, 1024, 1024)
        assert dense_report.breakdown["tasd_unit"] == 0.0
        assert dense_report.stall_cycles == 0

        # (d) an aggressive assignment on a large workload wins on EDP
        wl = Workload(
            "synthetic",
            (
                LayerSpec("L0", 256, 128, 512),
                LayerSpec("L1", 128, 128, 1024),
                LayerSpec("L2", 512, 64, 256),
            ),
            baseline_quality=1.0,
        )
        assignment = {ly.layer_id: CFG("2:8") for ly in wl.layers}
        sparse, _ = workload_cost(hw, wl, assignment)
        dense, _ = workload_cost(hw, wl)
        assert sparse.edp < dense.edp


def test_criterion_09_file_round_trip_and_reproducible_cli(tmp_path):
    with criterion(9, budget_s=60.0):
        for rows, cols, density, dist in [
            (1, 1, 1.0, "uniform"),
            (64, 32, 0.3, "normal"),
            (128, 128, 0.7, "uniform"),
        ]:
            mat = random_matrix(rows, cols, density, dist, seed=(9, rows, cols))
            path = tmp_path / f"rt_{rows}x{cols}.tasd1"
            save_matrix(mat, path)
            again = load_matrix(path)
            assert again.tobytes() == mat.tobytes()
            assert again.shape == mat.shape

        outs = [tmp_path / f"sweep_{i}.csv" for i in range(2)]
        for out in outs:
            proc = subprocess.run(
                [sys.executable, "-m", "tasd.cli", "analyze",
                 "--sweep", "appendixA", "--seed", "1", "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        first, second = outs[0].read_bytes(), outs[1].read_bytes()
        assert first == second, "repeated sweep runs must be byte-identical"
        assert first.startswith(b"density,distribution,config,seed,")
