"""Compute kernels: greedy per-block extraction, deterministic dense
matmul and compressed-times-dense matmul, vectorized in numpy.

Both products pin the same summation order: ascending k per output
element, one rounding per multiply and per add, no fused multiply-add.
Both leave out products whose left operand is zero, so their cost tracks
the non-zeros (the rule is in ``_accumulate``, and ``matmul_into`` steps
over each row's non-zeros when rows are sparse). Leaving such a product
out, or adding it, never changes a bit. The accumulator starts at +0.0
and is never -0.0, since under round-to-nearest a sum is -0.0 only when
both addends are. The product is a zero times a finite number (the
public entry points refuse NaN and Inf), so it is +-0.0, and adding
+-0.0 leaves any accumulator other than -0.0 unchanged. The dense matmul
and the compressed product of a decoded term therefore agree bit for
bit. This needs a zeroed ``out``: every caller passes one.

A column step forms its products as an exact outer product,
``einsum("i,j->ij")``, which writes each one as ``0 + a*b``: the same
correctly rounded product, except that -0.0 comes out +0.0. Since the
accumulator is never -0.0, adding +0.0 in place of -0.0 changes no bit.
Nothing here calls BLAS, whose summation order is not pinned.
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


# Rows per tile of the dense matmul's row steps. A tile's sort, step
# indices and scratch buffer grow with its rows. At 128 rows, a 256 x 256
# product's peak memory matches what its column steps need, and products
# of up to 128 rows stay in one tile.
TILE_ROWS = 128


def _accumulate(steps, b, out):
    """out += column * b[k] for each (column, k) of ``steps``, in order.

    ``column`` holds one left-operand value per row of ``out``, and ``k``
    names the row of ``b`` it multiplies: one index for every row, or an
    array with one index per row. Each row meets its k in ascending order
    across the steps.

    The one selection rule of both products: a step with more than
    a third of its rows non-zero updates ``out`` whole (its other rows add
    exact zeros), a sparser one updates only its own rows, and an empty
    one does no work. Every step works in one out-sized scratch buffer.
    """
    scratch = np.empty_like(out)
    for column, k in steps:
        count = np.count_nonzero(column)
        if 3 * count > out.shape[0]:
            _scaled_rows(column, b, k, scratch)
            out += scratch
        elif count:
            rows = column.nonzero()[0]
            part, sums = scratch[:count], scratch[count:2 * count]
            _scaled_rows(column[rows], b, k if isinstance(k, int) else k[rows], part)
            np.take(out, rows, axis=0, out=sums, mode="clip")
            sums += part
            out[rows] = sums


def _scaled_rows(column, b, k, product):
    """product = column[:, None] * b[k], written in place. Every index is
    in range (from ``matmul_into``, or packed indices checked before
    ``spmm_into``), so the gather need not check it. One ``k`` (a column
    step) is an outer product: ``einsum`` skips the per-row cost of a
    broadcast multiply, and its +0.0 for a -0.0 product changes no sum
    (module docstring). Per-row ``k`` gathers, then multiplies."""
    if isinstance(k, int):
        np.einsum("i,j->ij", column, b[k], out=product)
    else:
        np.take(b, k, axis=0, out=product, mode="clip")
        np.multiply(column[:, None], product, out=product)


def matmul_into(a, b, out):
    """out += a @ b with ascending-k accumulation per output element.

    When no row of ``a`` has more than half of its K columns non-zero, the
    product runs in tiles of at most ``TILE_ROWS`` rows, and step s of a
    tile takes the s-th non-zero of every row, in ascending column order,
    with zero padding in shorter rows (the slot layout of ``spmm_into``).
    A tile then costs as many steps as its widest row has non-zeros.
    Otherwise step k is column k of ``a``.
    """
    rows, inner = a.shape
    nnz = np.count_nonzero(a, axis=1)
    if 2 * nnz.max(initial=0) > inner:
        _accumulate(zip(a.T, range(inner)), b, out)
        return
    for lo in range(0, rows, TILE_ROWS):
        part = slice(lo, lo + TILE_ROWS)
        width = int(nnz[part].max())
        if width:
            # a stable sort puts each row's non-zeros first, in column order
            ks = np.argsort(a[part] == 0, axis=1, kind="stable")[:, :width].T.copy()
            tile, rowid = a[part], np.arange(ks.shape[1])
            _accumulate(((tile[rowid, k], k) for k in ks), b, out[part])


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
