"""Greedy structured decomposition into N:M terms plus residual, the
approximation-quality metrics, and the synthetic drop-rate sweep.

Each term takes, per m-element block, the largest-magnitude non-zeros of
the *previous* residual (ties keep the lowest column). Entries are moved,
never altered, so the terms plus the residual always rebuild the source
bit for bit.

A ``RankedMatrix`` holds everything derived from one matrix, so that
work is shared when the matrix meets many configs: each series prefix is
extracted once, and, since a same-m series of total width sum_n keeps
exactly the non-zeros whose magnitude rank in their block is below sum_n,
every same-m residual comes from one stable sort per block size.
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
    pad_blocks,
    render_csv,
)

SWEEP_CSV_HEADER = "density,distribution,config,seed,dropped_nnz,dropped_mag,mse"

DISTRIBUTIONS = ("uniform", "normal")
# the Appendix A grid: densities 0.10 .. 0.75 and the series it compares
APPENDIX_DENSITIES = tuple(round(0.10 + 0.05 * i, 2) for i in range(14))
APPENDIX_CONFIGS = ("2:4", "2:4+2:8", "2:4+2:8+2:16")
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
    return RankedMatrix(mat).decompose(config)


def approximate(mat, config) -> DenseMatrix:
    """Sum of the terms, bit for bit: ``mat - residual`` (their supports are disjoint)."""
    return RankedMatrix(mat).approximation(config_of(config))


def block_ranks(mat, m: int) -> np.ndarray:
    """Rank of each entry's magnitude within its m-block of its row: 0 for
    the largest, ties to the lowest column, the order in which greedy
    extraction takes entries. One stable sort; the dtype is the smallest
    unsigned integer that holds m."""
    arr = as_matrix(mat)
    rows, cols = arr.shape
    mags = np.abs(pad_blocks(arr, m).reshape(rows, -1, m))
    order = np.argsort(-mags, axis=2, kind="stable")
    ranks = np.empty(order.shape, dtype=np.min_scalar_type(m))
    np.put_along_axis(ranks, order, np.arange(m, dtype=ranks.dtype), axis=2)
    return ranks.reshape(rows, -1)[:, :cols]


class RankedMatrix:
    """A matrix and the series work derived from it, cached on first use:
    each series prefix's extraction (``decompose``) and one ``block_ranks``
    pass per block size (``ranks``). The caches are not locked: threads may
    share an instance once it holds every block size they need, and two
    that decompose one uncached prefix at once both extract it, to the
    same bytes.

    Extraction never takes an exact zero and moves entries in rank order,
    so a same-m series keeps the non-zeros ranked below its sum_n. Each
    residual is built on request and equals, byte for byte, the one from
    ``decompose``; a mixed-m residual comes from the prefix cache.
    """

    def __init__(self, mat):
        self.mat = as_matrix(mat)
        self._ranks: dict[int, np.ndarray] = {}
        # term prefix -> (its last term, the residual it leaves)
        self._steps = {(): (None, self.mat)}

    def decompose(self, config) -> Decomposition:
        """``decompose(mat, config)``; each series prefix is extracted once
        per instance, so ``2:4``, ``2:4+2:8`` and ``2:4+2:8+2:16`` take
        three extractions."""
        cfg = config_of(config)
        steps = self._steps
        prefixes = [cfg.terms[: i + 1] for i in range(len(cfg.terms))]
        for prefix in prefixes:
            if prefix not in steps:
                steps[prefix] = extract_term(steps[prefix[:-1]][1], prefix[-1])
        terms = tuple(steps[prefix][0] for prefix in prefixes)
        return Decomposition(cfg, terms, steps[cfg.terms][1])

    def residual(self, cfg: TasdConfig) -> DenseMatrix:
        """``decompose(mat, cfg).residual``; kept entries become +0.0 and
        every other entry, -0.0 included, stays."""
        if not cfg.same_m:
            return self.decompose(cfg).residual
        kept = (self.ranks(cfg.terms[0].m) < cfg.sum_n) & (self.mat != 0.0)
        return freeze(np.where(kept, 0.0, self.mat))

    def ranks(self, m: int) -> np.ndarray:
        """``block_ranks(mat, m)``, computed once."""
        ranks = self._ranks.get(m)
        if ranks is None:
            ranks = self._ranks[m] = block_ranks(self.mat, m)
        return ranks

    def approximation(self, cfg: TasdConfig) -> DenseMatrix:
        """``approximate(mat, cfg)``: ``mat - residual`` keeps each kept
        entry and gives +0.0 everywhere else."""
        return freeze(self.mat - self.residual(cfg))


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

    ``seed`` may be an int, a tuple of ints or a ``np.random.SeedSequence``;
    the counter-based generator takes each through a ``SeedSequence``, so
    streams are reproducible and cheap to split per sweep cell.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if dist not in DISTRIBUTIONS:
        raise ValueError(f"dist must be one of {DISTRIBUTIONS}, got {dist!r}")
    gen = np.random.Generator(np.random.Philox(seed))
    mask = gen.random((rows, cols)) < density
    if dist == "uniform":
        vals = gen.random((rows, cols))
    else:
        vals = gen.normal(0.0, _NORMAL_STD, (rows, cols))
    return freeze(np.where(mask, vals, 0.0))


def sweep_synthetic(
    dims: tuple[int, int] = (128, 128),
    densities=APPENDIX_DENSITIES,
    distributions=DISTRIBUTIONS,
    configs=APPENDIX_CONFIGS,
    seeds=range(20),
    master_seed: int = 0,
) -> list[dict]:
    """Drop metrics over the (density, distribution, config, seed) grid. The
    defaults are the paper's Appendix A grid, as ``tasd analyze`` runs it.

    One matrix is drawn per (density, distribution, seed) cell and shared
    by every config, so series can be compared on identical draws; a
    series prefix that configs share is extracted once per draw. The
    cell seed is SeedSequence((master_seed, density_idx, dist_idx, seed)).
    Rows come back sorted by the grid key, independent of the worker
    count, which ``TASD_THREADS`` sets.
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
        ranked = RankedMatrix(mat)
        return [drop_metrics(ranked.decompose(cfg)) for cfg in configs]

    results = dict(zip(draws, map_ordered(run_draw, draws)))
    table = []
    for di, density in enumerate(densities):
        for ki, dist in enumerate(distributions):
            for ci, cfg in enumerate(configs):
                for seed in seeds:
                    metrics = results[(di, ki, seed)][ci]
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
