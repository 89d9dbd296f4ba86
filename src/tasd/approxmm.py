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
from .matrix import DenseMatrix, _check_indices, as_matrix, config_of, freeze, held, render_csv

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


def tasd_matmul(d: Decomposition, b):
    """Distribute the product over the series: sum of term @ b, accumulated
    in order into one output; returns (product, MACs). Only valid slots
    multiply, so MACs = sum of nnz x b.cols. Each term is checked before b:
    a shape unlike the residual's raises ``DimensionMismatch``, and corrupt
    indices ``CorruptIndices``, as in ``decode``."""
    rows, cols = d.residual.shape
    for term in d.terms:
        if (term.rows, term.cols) != (rows, cols):
            raise DimensionMismatch(f"a {term.rows}x{term.cols} term in a {rows}x{cols} series")
        _check_indices(term)
    b = as_matrix(b)
    if cols != b.shape[0]:
        raise DimensionMismatch(f"series has {cols} cols but b has {b.shape[0]} rows")
    out = np.zeros((rows, b.shape[1]))
    for term in d.terms:
        _kernels.spmm_into(term.values, term.indices, term.pattern.m, b, out)
    return freeze(out), sum(term.nnz for term in d.terms) * b.shape[1]


class ProductError:
    """|| (A - approx(A)) @ B_i ||_F / || A @ B_i ||_F for each B_i of ``samples``,
    matrices with one common row count (else a ``DimensionMismatch``), held
    side by side in one array (a lone sample as it is). Residuals come from
    one ``RankedMatrix`` of A, and a zero reference norm is a
    ``DegenerateProduct`` naming the sample."""

    def __init__(self, a, samples):
        self.ranked = RankedMatrix(a)
        samples = [as_matrix(b) for b in samples]
        if len(rows := {b.shape[0] for b in samples}) != 1:
            raise DimensionMismatch(f"samples need one common row count, got {sorted(rows)}")
        self.b = held(samples[0]) if len(samples) == 1 else freeze(np.hstack(samples))
        self.edges = np.cumsum((0, *(b.shape[1] for b in samples)))
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
        errors = self._norms(self.ranked.residual(config))
        return [error / norm for error, norm in zip(errors, self.norms)]


def relative_error(a, config, b) -> float:
    """|| (A - approx(A)) @ B ||_F / || A @ B ||_F."""
    return ProductError(a, [b]).errors(config)[0]


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
        scorer = ProductError(a, [b])
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
    errs = np.reshape(errors, (len(sparsities), len(seeds), len(configs))).transpose(0, 2, 1).copy()
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
