"""Approximate matrix multiplication over structured terms.

Products are computed with a pinned summation order (ascending k per
output element, then ascending term index), so the distributivity
identity sum_i(term_i) @ B == (A - residual) @ B holds to tight
tolerances and repeated runs are byte-identical.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._parallel import map_ordered
from .decomp import Decomposition, decompose, random_matrix
from .errors import DegenerateProduct, DimensionMismatch
from .matrix import DenseMatrix, NmCompressed, NmPattern, TasdConfig, as_matrix, config_of, freeze

ERROR_CSV_HEADER = "a_sparsity,config,approx_sparsity,mean_rel_error,std_rel_error,seeds"


def matmul(a, b) -> DenseMatrix:
    """Exact reference product with ascending-k accumulation."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    _kernels.matmul_into(a, b, out)
    return freeze(out)


def spmm_term(term: NmCompressed, b):
    """Compressed times dense; returns (product, MACs actually performed).

    Only valid slots multiply, so the MAC count is nnz(term) * b.cols.
    """
    b = as_matrix(b)
    if term.cols != b.shape[0]:
        raise DimensionMismatch(
            f"term has {term.cols} cols but b has {b.shape[0]} rows"
        )
    out = np.zeros((term.rows, b.shape[1]))
    _kernels.spmm_into(term.values, term.indices, term.pattern.m, b, out)
    return freeze(out), term.nnz * b.shape[1]


def tasd_matmul(d: Decomposition, b):
    """Distribute the product over the series: sum of term @ b, in order."""
    b = as_matrix(b)
    rows, cols = d.source_dims
    if cols != b.shape[0]:
        raise DimensionMismatch(
            f"decomposition has {cols} cols but b has {b.shape[0]} rows"
        )
    out = np.zeros((rows, b.shape[1]))
    macs = 0
    for term in d.terms:
        _kernels.spmm_into(term.values, term.indices, term.pattern.m, b, out)
        macs += term.nnz * b.shape[1]
    return freeze(out), macs


def reference_norm(a, b) -> float:
    """|| A @ B ||_F, the denominator of every relative error."""
    denom = float(np.linalg.norm(matmul(a, b)))
    if denom == 0.0:
        raise DegenerateProduct("reference product has zero Frobenius norm")
    return denom


def residual_error(residual, b, denom: float) -> float:
    """|| R @ B ||_F / denom, with R = A - approx(A) and denom from
    ``reference_norm(A, B)``."""
    return float(np.linalg.norm(matmul(residual, b))) / denom


def relative_error(a, config, b) -> float:
    """|| (A - approx(A)) @ B ||_F / || A @ B ||_F."""
    a = as_matrix(a)
    b = as_matrix(b)
    denom = reference_norm(a, b)
    return residual_error(decompose(a, config).residual, b, denom)


def default_error_configs(ms=(4, 8)) -> list[TasdConfig]:
    """Single-term grid 1:m .. m:m for each block size."""
    return [TasdConfig((NmPattern(n, m),)) for m in ms for n in range(1, m + 1)]


def error_sweep(
    dims: tuple[int, int] = (256, 256),
    a_sparsities=(0.2, 0.8),
    configs=None,
    seeds=range(20),
    master_seed: int = 0,
    workers: int | None = None,
) -> list[dict]:
    """Mean/std relative product error per (A sparsity, config) cell.

    A is uniform [0,1) masked to the requested sparsity; B is dense
    uniform [0,1). One (A, B) pair is drawn per (sparsity, seed) and
    shared by every config, so configs are compared on identical draws.
    """
    rows, cols = dims
    sparsities = list(a_sparsities)
    configs = (
        default_error_configs() if configs is None else [config_of(c) for c in configs]
    )
    seeds = [int(s) for s in seeds]

    draws = [(si, s) for si in range(len(sparsities)) for s in seeds]

    def run_draw(draw):
        si, seed = draw
        a = random_matrix(
            rows, cols, 1.0 - sparsities[si], "uniform", seed=(master_seed, 0, si, seed)
        )
        b = random_matrix(cols, cols, 1.0, "uniform", seed=(master_seed, 1, si, seed))
        denom = reference_norm(a, b)
        errs = [residual_error(decompose(a, cfg).residual, b, denom) for cfg in configs]
        return si, errs

    by_cell: dict[tuple[int, int], list[float]] = {
        (si, ci): [] for si in range(len(sparsities)) for ci in range(len(configs))
    }
    for si, errs in map_ordered(run_draw, draws, workers):
        for ci, err in enumerate(errs):
            by_cell[(si, ci)].append(err)

    table = []
    for si, sp in enumerate(sparsities):
        for ci, cfg in enumerate(configs):
            errs = np.asarray(by_cell[(si, ci)])
            table.append(
                {
                    "a_sparsity": sp,
                    "config": cfg.canonical(),
                    "approx_sparsity": cfg.approximated_sparsity,
                    "mean_rel_error": float(errs.mean()),
                    "std_rel_error": float(errs.std()),
                    "seeds": len(seeds),
                }
            )
    return table


def render_error_csv(table) -> str:
    lines = [ERROR_CSV_HEADER]
    for row in table:
        lines.append(
            f"{row['a_sparsity']!r},{row['config']},{row['approx_sparsity']!r},"
            f"{row['mean_rel_error']!r},{row['std_rel_error']!r},{row['seeds']}"
        )
    return "\n".join(lines) + "\n"
