"""Greedy structured decomposition into N:M terms plus residual, the
approximation-quality metrics, and the synthetic drop-rate sweep.

Each term takes, per m-element block, the largest-magnitude non-zeros of
the *previous* residual (ties keep the lowest column). Entries are moved,
never altered, so the terms plus the residual always rebuild the source
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered
from .matrix import (
    DenseMatrix,
    NmCompressed,
    TasdConfig,
    as_matrix,
    config_of,
    extract_term,
    freeze,
    render_csv,
)

SWEEP_CSV_HEADER = "density,distribution,config,seed,dropped_nnz,dropped_mag,mse"

DISTRIBUTIONS = ("uniform", "normal")
_NORMAL_STD = 1.0 / 3.0


@dataclass(frozen=True)
class Decomposition:
    config: TasdConfig
    terms: tuple[NmCompressed, ...]
    residual: DenseMatrix


@dataclass(frozen=True)
class DropMetrics:
    dropped_nnz_fraction: float
    dropped_magnitude_fraction: float
    mse: float
    retained_magnitude_fraction: float


def decompose(mat, config) -> Decomposition:
    """Apply the series left to right, each term extracting from the last
    residual."""
    cfg = config_of(config)
    residual = as_matrix(mat)
    terms = []
    for pattern in cfg.terms:
        term, residual = extract_term(residual, pattern)
        terms.append(term)
    return Decomposition(cfg, tuple(terms), residual)


def approximate(mat, config) -> DenseMatrix:
    """Sum of the terms, bit for bit: ``mat - residual`` (their supports are disjoint)."""
    arr = as_matrix(mat)
    return freeze(arr - decompose(arr, config).residual)


def drop_metrics(d: Decomposition) -> DropMetrics:
    """Loss of the decomposition measured against its source matrix.

    Extraction moves entries, so source totals are recovered exactly from
    the terms plus the residual (their supports are disjoint).
    """
    residual = d.residual
    res_abs = float(np.abs(residual).sum())
    res_nnz = int(np.count_nonzero(residual))
    kept_abs = sum(float(np.abs(t.values).sum()) for t in d.terms)
    kept_nnz = sum(t.nnz for t in d.terms)
    src_abs = res_abs + kept_abs
    src_nnz = res_nnz + kept_nnz
    dropped_nnz = res_nnz / src_nnz if src_nnz else 0.0
    dropped_mag = res_abs / src_abs if src_abs > 0.0 else 0.0
    mse = float(np.square(residual).sum()) / residual.size
    return DropMetrics(dropped_nnz, dropped_mag, mse, 1.0 - dropped_mag)


# ---------------------------------------------------------------------------
# synthetic matrices and the drop-rate sweep


def random_matrix(rows: int, cols: int, density: float, dist: str, seed) -> DenseMatrix:
    """Matrix whose entries are independently non-zero with probability
    ``density``, drawn from ``uniform`` [0,1) or ``normal`` (mean 0,
    std 1/3).

    ``seed`` may be an int or a tuple of ints; either feeds a counter-based
    generator through ``np.random.SeedSequence``, so streams are
    reproducible and cheap to split per sweep cell.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {dist!r}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    gen = np.random.Generator(np.random.Philox(seed))
    mask = gen.random((rows, cols)) < density
    if dist == "uniform":
        vals = gen.random((rows, cols))
    else:
        vals = gen.normal(0.0, _NORMAL_STD, (rows, cols))
    return freeze(np.where(mask, vals, 0.0))


def sweep_synthetic(
    dims: tuple[int, int],
    densities,
    distributions,
    configs,
    seeds,
    master_seed: int = 0,
    workers: int | None = None,
) -> list[dict]:
    """Drop metrics over the (density, distribution, config, seed) grid.

    One matrix is drawn per (density, distribution, seed) cell and shared
    by every config, so series can be compared on identical draws. The
    cell seed is SeedSequence((master_seed, density_idx, dist_idx, seed)).
    Rows come back sorted by the grid key, independent of worker count.
    """
    rows, cols = dims
    densities = list(densities)
    distributions = list(distributions)
    configs = [config_of(c) for c in configs]
    seeds = [int(s) for s in seeds]

    draws = [
        (di, ki, s)
        for di in range(len(densities))
        for ki in range(len(distributions))
        for s in seeds
    ]

    def run_draw(draw):
        di, ki, seed = draw
        mat = random_matrix(
            rows,
            cols,
            densities[di],
            distributions[ki],
            seed=(master_seed, di, ki, seed),
        )
        out = []
        for ci, cfg in enumerate(configs):
            metrics = drop_metrics(decompose(mat, cfg))
            out.append((draw, ci, metrics))
        return out

    cells = {}
    for chunk in map_ordered(run_draw, draws, workers):
        for (di, ki, seed), ci, metrics in chunk:
            cells[(di, ki, ci, seed)] = metrics

    table = []
    for di, density in enumerate(densities):
        for ki, dist in enumerate(distributions):
            for ci, cfg in enumerate(configs):
                for seed in seeds:
                    metrics = cells[(di, ki, ci, seed)]
                    table.append(
                        {
                            "density": density,
                            "distribution": dist,
                            "config": cfg.canonical(),
                            "seed": seed,
                            "dropped_nnz": metrics.dropped_nnz_fraction,
                            "dropped_mag": metrics.dropped_magnitude_fraction,
                            "mse": metrics.mse,
                        }
                    )
    return table


def render_sweep_csv(table) -> str:
    return render_csv(SWEEP_CSV_HEADER, table)
