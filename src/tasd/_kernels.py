"""Compute kernels: greedy per-block extraction, deterministic dense
matmul and compressed-times-dense matmul, vectorized in numpy.

Both products pin the same summation order: ascending k per output
element, one rounding per multiply and per add, no fused multiply-add.
Both leave out products whose left operand is zero, so their cost tracks
the non-zeros (the rule is in ``_accumulate``). Leaving such a product
out, or adding it, never changes a bit. The accumulator starts at +0.0
and is never -0.0, since under round-to-nearest a sum is -0.0 only when
both addends are. The product is a zero times a finite number (the
public entry points refuse NaN and Inf), so it is +-0.0, and adding
+-0.0 leaves any accumulator other than -0.0 unchanged. The dense matmul
and the compressed product of a decoded term therefore agree bit for
bit.
"""

from __future__ import annotations

import numpy as np


def extract_term_blocks(residual, values, indices, n, m):
    """Move the top-n magnitudes of every m-block out of ``residual``.

    residual: (rows, blocks*m) float64, modified in place.
    values:   (rows, blocks, n) float64, pre-zeroed output.
    indices:  (rows, blocks, n) int64, pre-filled with -1.

    Ties in magnitude keep the lowest column index; exact zeros are never
    taken, so blocks with fewer than n non-zeros yield short slots.
    Surviving slots are stored in ascending column order.
    """
    rows, padded_cols = residual.shape
    blocks = padded_cols // m
    flat = residual.reshape(rows * blocks, m)
    mags = np.abs(flat)
    # stable sort on negated magnitude: equal entries keep ascending column
    order = np.argsort(-mags, axis=1, kind="stable")[:, :n]
    rowid = np.repeat(np.arange(rows * blocks), n)
    colid = order.reshape(-1)
    keep = mags[rowid, colid] > 0.0
    rowid = rowid[keep]
    colid = colid[keep]
    mask = np.zeros((rows * blocks, m), dtype=bool)
    mask[rowid, colid] = True
    br, bc = np.nonzero(mask)  # column-ascending within each block
    counts = np.bincount(br, minlength=rows * blocks)
    starts = np.cumsum(counts) - counts
    slot = np.arange(br.size) - starts[br]
    values.reshape(rows * blocks, n)[br, slot] = flat[br, bc]
    indices.reshape(rows * blocks, n)[br, slot] = bc
    flat[br, bc] = 0.0


def _accumulate(steps, b, out):
    """out += column * b[k] for each (column, k) of ``steps``, in order.

    ``column`` holds one left-operand value per row of ``out``, and ``k``
    names the row of ``b`` it multiplies: one index for every row, or an
    array with one index per row. Each row meets its k in ascending order
    across the steps.

    The one selection rule of both products: a step with more than
    a third of its rows non-zero updates ``out`` whole (its other rows add
    exact zeros), a sparser one updates only its own rows, and an empty
    one does no work.
    """
    rows_total = out.shape[0]
    for column, k in steps:
        count = np.count_nonzero(column)
        if 3 * count > rows_total:
            out += column[:, None] * b[k]
        elif count:
            rows = column.nonzero()[0]
            out[rows] += column[rows, None] * b[k if isinstance(k, int) else k[rows]]


def matmul_into(a, b, out):
    """out += a @ b with ascending-k accumulation per output element; step
    k is column k of ``a``."""
    _accumulate(zip(a.T, range(a.shape[1])), b, out)


def spmm_into(values, indices, m, b, out):
    """out += decode(term) @ b with ascending-k accumulation per output
    element, one step per (block, slot) of the term.

    A step holds the slot's value in every row, zero where the slot is
    unused, and multiplies the row of ``b`` that the slot's index names.
    Valid slots of a block carry increasing indices, so each row meets its
    columns in ascending order. The term is never expanded to dense.
    """
    rows, blocks, _ = values.shape
    valid = indices >= 0
    ks = np.where(valid, indices, 0) + m * np.arange(blocks)[:, None]
    columns = np.where(valid, values, 0.0).transpose(1, 2, 0).reshape(-1, rows)
    _accumulate(zip(columns, ks.transpose(1, 2, 0).reshape(-1, rows)), b, out)
