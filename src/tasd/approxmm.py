"""Approximate matrix multiplication over structured terms.

Products are computed with a pinned summation order (ascending k per
output element, then ascending term index), so the distributivity
identity sum_i(term_i) @ B == (A - residual) @ B holds to tight
tolerances and repeated runs are byte-identical.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._parallel import map_ordered, resolve_workers
from .decomp import Decomposition, RankedMatrix, random_matrix
from .errors import DegenerateProduct, DimensionMismatch
from .matrix import (
    DenseMatrix, NmCompressed, _check_indices, _is_int, as_matrix, config_of, freeze, render_csv,
)

ERROR_CSV_HEADER = "a_sparsity,config,approx_sparsity,mean_rel_error,std_rel_error,seeds"
ERROR_CONFIGS = tuple(f"{n}:{m}" for m in (4, 8) for n in range(1, m + 1))


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
    Corrupt indices raise ``CorruptIndices``, as in ``decode``.
    """
    return _series_product((term,), term.rows, term.cols, b)


def tasd_matmul(d: Decomposition, b):
    """Distribute the product over the series: sum of term @ b, in order."""
    return _series_product(d.terms, *d.residual.shape, b)


def _series_product(terms, rows: int, cols: int, b):
    """Sum of term @ b over the (rows, cols) terms, accumulated in order
    into one output; returns (product, MACs). Every term's indices are
    checked before b."""
    for term in terms:
        _check_indices(term)
    b = as_matrix(b)
    if cols != b.shape[0]:
        raise DimensionMismatch(f"series has {cols} cols but b has {b.shape[0]} rows")
    out = np.zeros((rows, b.shape[1]))
    for term in terms:
        _kernels.spmm_into(term.values, term.indices, term.pattern.m, b, out)
    return freeze(out), sum(term.nnz for term in terms) * b.shape[1]


class ProductError:
    """|| (A - approx(A)) @ B_i ||_F / || A @ B_i ||_F for each sample B_i, a
    block of ``widths`` consecutive columns of b (by default one: all of b).
    Widths that are not positive integers tiling b's columns are a
    ``DimensionMismatch``. Residuals come from one ``RankedMatrix`` of A,
    and a zero reference norm is a ``DegenerateProduct`` naming the sample."""

    def __init__(self, a, b, widths=None):
        self.ranked = RankedMatrix(a)
        self.b = as_matrix(b)
        if widths is None:
            widths = [self.b.shape[1]]
        elif not (all(_is_int(w) and w > 0 for w in widths) and sum(widths) == self.b.shape[1]):
            raise DimensionMismatch(f"widths {widths} do not tile b's {self.b.shape[1]} columns")
        self.edges = np.cumsum((0, *widths))
        self.norms = self._norms(self.ranked.mat)
        if 0.0 in self.norms:
            raise DegenerateProduct(
                f"reference product of sample {self.norms.index(0.0)} has zero Frobenius norm"
            )

    def _norms(self, a) -> list[float]:
        """|| a @ B_i ||_F of each sample, from one product: each is taken over
        a contiguous copy of its block, so it equals that of a @ B_i bit for bit."""
        product = matmul(a, self.b)
        return [
            float(np.linalg.norm(np.ascontiguousarray(product[:, lo:hi])))
            for lo, hi in zip(self.edges[:-1], self.edges[1:])
        ]

    def errors(self, config) -> list[float]:
        """Each sample's relative error under ``config``."""
        errors = self._norms(self.ranked.residual(config_of(config)))
        return [error / norm for error, norm in zip(errors, self.norms)]


def relative_error(a, config, b) -> float:
    """|| (A - approx(A)) @ B ||_F / || A @ B ||_F."""
    return ProductError(a, b).errors(config)[0]


def error_sweep(
    dims: tuple[int, int] = (256, 256),
    a_sparsities=(0.2, 0.8),
    configs=ERROR_CONFIGS,
    seeds=range(20),
    master_seed: int = 0,
) -> list[dict]:
    """Mean/std relative product error per (A sparsity, config) cell. The
    defaults are the paper's matmul-error grid, as ``tasd analyze`` runs it.

    A is uniform [0,1) masked to the requested sparsity; B is dense
    uniform [0,1). One (A, B) pair is drawn per (sparsity, seed) and
    shared by every config, so configs are compared on identical draws.
    Draws go in chunks of one per worker (``TASD_THREADS`` sets the
    count). The workers first build each draw's ``ProductError``, with
    its reference product and one rank pass per block size the configs
    use, then score one (draw, config) cell per task, so a dense draw's
    products spread over every worker. Cells only read the rank caches.
    """
    rows, cols = dims
    sparsities = list(a_sparsities)
    configs = [config_of(c) for c in configs]
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("error_sweep needs at least one seed")

    draws = [(si, s) for si in range(len(sparsities)) for s in seeds]
    ms = dict.fromkeys(cfg.terms[0].m for cfg in configs if cfg.same_m)

    def score_draw(draw):
        si, seed = draw
        a = random_matrix(
            rows, cols, 1.0 - sparsities[si], "uniform", seed=(master_seed, 0, si, seed)
        )
        b = random_matrix(cols, cols, 1.0, "uniform", seed=(master_seed, 1, si, seed))
        scorer = ProductError(a, b)
        for m in ms:
            scorer.ranked.ranks(m)
        return scorer

    count = resolve_workers()

    def score_chunk(chunk):
        """Errors of the chunk's (draw, config) cells, draw by draw. Only one
        chunk's draws are held at a time: they are freed on return."""
        scorers = map_ordered(score_draw, chunk, count)
        cells = [(scorer, cfg) for scorer in scorers for cfg in configs]
        return map_ordered(lambda cell: cell[0].errors(cell[1])[0], cells, count)

    errors = []
    for lo in range(0, len(draws), count):
        errors += score_chunk(draws[lo:lo + count])
    # errs[si, ci]: the cell's errors in seed order, contiguous like the
    # per-cell arrays they replace, so mean and std round as before
    errs = np.reshape(errors, (len(sparsities), len(seeds), -1)).transpose(0, 2, 1).copy()
    table = []
    for si, sp in enumerate(sparsities):
        for ci, cfg in enumerate(configs):
            table.append(
                {
                    "a_sparsity": sp,
                    "config": cfg.canonical(),
                    "approx_sparsity": cfg.approximated_sparsity,
                    "mean_rel_error": float(errs[si, ci].mean()),
                    "std_rel_error": float(errs[si, ci].std()),
                    "seeds": len(seeds),
                }
            )
    return table


def render_error_csv(table) -> str:
    return render_csv(ERROR_CSV_HEADER, table)
