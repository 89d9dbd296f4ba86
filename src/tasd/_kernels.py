"""Compute kernels, vectorized in numpy: the package's one greedy order of
each block's magnitudes, with its ranks and the extraction of each block's
n largest non-zeros, deterministic dense matmul and compressed matmul.

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


def block_order(flat):
    """Flat positions of each row of ``flat`` (blocks, m), best first: the
    stable argsort of -|x| (ties to the lowest column), plus m times the row."""
    mags = np.abs(flat)
    order = np.argsort(np.negative(mags, out=mags), axis=-1, kind="stable")
    order += flat.shape[1] * np.arange(flat.shape[0])[:, None]
    return order


def rank_blocks(blocks):
    """Rank of each magnitude along the last axis, 0 for the largest, ties to
    the lowest index: 0..m-1 scattered through ``block_order``, in the
    smallest unsigned dtype that holds m."""
    m = blocks.shape[-1]
    ranks = np.empty(blocks.shape, dtype=np.min_scalar_type(m))
    ranks.reshape(-1)[block_order(blocks.reshape(-1, m))] = np.arange(m, dtype=ranks.dtype)
    return ranks


def top_by_passes(flat, n):
    """Mask of the first n of each row in ``block_order``, by n argmax passes:
    the first of equal maxima is the lowest column, and a pick becomes -1."""
    keep = np.zeros(flat.size, dtype=bool)
    mags, start = np.abs(flat), flat.shape[1] * np.arange(flat.shape[0])
    for _ in range(n):
        pick = mags.argmax(axis=1) + start
        keep[pick] = True
        mags.reshape(-1)[pick] = -1.0
    return keep.reshape(flat.shape)


def top_by_sort(flat, n):
    """``top_by_passes``'s mask from the first n positions of ``block_order``."""
    keep = np.zeros(flat.size, dtype=bool)
    keep[block_order(flat)[:, :n]] = True
    return keep.reshape(flat.shape)


def extract_term_blocks(residual, n, m):
    """Move the n largest non-zeros of each m-block (ties to the lowest
    column) out of ``residual`` ((rows, blocks*m), contiguous, modified in
    place) and return them packed: values and indices, each (rows, blocks,
    n), hold the kept slots in ascending column order, then 0.0 and -1."""
    flat = residual.reshape(-1, m)
    # both masks agree; the passes are faster while 3n <= m + 2 (m = 4, 8, 16)
    keep = (top_by_passes if 3 * n <= m + 2 else top_by_sort)(flat, n)
    keep &= flat != 0.0
    # outputs before the packing temporaries, or glibc trims the heap
    values = np.zeros(flat.shape[0] * n)
    indices = np.full(values.size, -1, dtype=np.int64)
    pos = np.flatnonzero(keep)  # column-ascending within each block
    block = pos // m
    counts = np.bincount(block, minlength=flat.shape[0])
    # the i-th kept entry, the j-th of its block b, goes to slot b*n + j
    slot = np.arange(pos.size) + (n * np.arange(counts.size) - np.cumsum(counts) + counts)[block]
    entries = residual.reshape(-1)
    values[slot] = entries[pos]
    indices[slot] = pos - m * block
    entries[pos] = 0.0
    shape = (residual.shape[0], -1, n)
    return values.reshape(shape), indices.reshape(shape)


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
