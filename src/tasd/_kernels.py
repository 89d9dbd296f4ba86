"""Dual-backend compute kernels.

The three hot loops (greedy per-block extraction, deterministic dense
matmul, compressed-times-dense matmul) exist twice: compiled with numba,
and as vectorized pure numpy. ``TASD_BACKEND=numba|numpy`` forces a side;
unset (or ``auto``) prefers numba when it is importable.

Both products pin the same summation order on both backends: ascending k
per output element, one rounding per multiply and per add, no fused
multiply-add. Both leave out products whose left operand is zero, so
their cost tracks the non-zeros (the numpy rule is in ``_accumulate``).
Leaving such a product out, or adding it, never changes a bit. The
accumulator starts at +0.0 and is never -0.0, since under
round-to-nearest a sum is -0.0 only when both addends are. The product
is a zero times a finite number (the public entry points refuse NaN and
Inf), so it is +-0.0, and adding +-0.0 leaves any accumulator other than
-0.0 unchanged. The dense matmul and the compressed product of a decoded
term therefore agree bit for bit, on either backend.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - depends on the environment
    numba = None
    HAS_NUMBA = False


def active_backend() -> str:
    """Resolve which implementation dispatch will use ("numba"/"numpy")."""
    choice = os.environ.get("TASD_BACKEND", "auto").strip().lower() or "auto"
    if choice == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    if choice not in ("numba", "numpy"):
        raise ValueError(
            f"TASD_BACKEND must be 'numba', 'numpy' or 'auto', got {choice!r}"
        )
    if choice == "numba" and not HAS_NUMBA:
        raise RuntimeError("TASD_BACKEND=numba requested but numba is not importable")
    return choice


# ---------------------------------------------------------------------------
# pure-numpy implementations


def extract_term_numpy(residual, values, indices, n, m):
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

    The one selection rule of both numpy products: a step with more than
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


def matmul_numpy(a, b, out):
    """out += a @ b with ascending-k accumulation per output element; step
    k is column k of ``a``."""
    _accumulate(zip(a.T, range(a.shape[1])), b, out)


def spmm_numpy(values, indices, m, b, out):
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


# ---------------------------------------------------------------------------
# numba implementations

if HAS_NUMBA:

    @numba.njit(cache=True, nogil=True)
    def extract_term_numba(residual, values, indices, n, m):
        rows, padded_cols = residual.shape
        blocks = padded_cols // m
        sel = np.zeros(m, dtype=np.uint8)
        for r in range(rows):
            for blk in range(blocks):
                base = blk * m
                for j in range(m):
                    sel[j] = 0
                for _ in range(n):
                    best = -1
                    best_abs = 0.0
                    for j in range(m):
                        if sel[j]:
                            continue
                        mag = abs(residual[r, base + j])
                        # strict > keeps the lowest column on ties and
                        # never picks an exact zero
                        if mag > best_abs:
                            best_abs = mag
                            best = j
                    if best < 0:
                        break
                    sel[best] = 1
                slot = 0
                for j in range(m):
                    if sel[j]:
                        values[r, blk, slot] = residual[r, base + j]
                        indices[r, blk, slot] = j
                        residual[r, base + j] = 0.0
                        slot += 1

    @numba.njit(cache=True, nogil=True)
    def matmul_numba(a, b, out):
        rows, kk = a.shape
        ncols = b.shape[1]
        for i in range(rows):
            for k in range(kk):
                v = a[i, k]
                if v == 0.0:
                    continue
                for j in range(ncols):
                    out[i, j] += v * b[k, j]

    @numba.njit(cache=True, nogil=True)
    def spmm_numba(values, indices, m, b, out):
        rows, blocks, n = values.shape
        ncols = b.shape[1]
        for i in range(rows):
            for blk in range(blocks):
                for s in range(n):
                    idx = indices[i, blk, s]
                    if idx < 0:
                        continue
                    v = values[i, blk, s]
                    k = blk * m + idx
                    for j in range(ncols):
                        out[i, j] += v * b[k, j]

else:  # pragma: no cover - depends on the environment
    extract_term_numba = None
    matmul_numba = None
    spmm_numba = None


# ---------------------------------------------------------------------------
# dispatch


def extract_term_blocks(residual, values, indices, n, m):
    if active_backend() == "numba":
        extract_term_numba(residual, values, indices, n, m)
    else:
        extract_term_numpy(residual, values, indices, n, m)


def matmul_into(a, b, out):
    if active_backend() == "numba":
        matmul_numba(a, b, out)
    else:
        matmul_numpy(a, b, out)


def spmm_into(values, indices, m, b, out):
    if active_backend() == "numba":
        spmm_numba(values, indices, m, b, out)
    else:
        spmm_numpy(values, indices, m, b, out)
