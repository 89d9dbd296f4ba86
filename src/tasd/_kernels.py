"""Compute kernels: the package's one greedy order of each block's
magnitudes, with its ranks and the extraction of each block's n largest
non-zeros (vectorized numpy), and the two pinned products, dense matmul
and compressed matmul, which run one compiled loop, ``_products.c``.

Both products pin the same summation order: ascending k per output
element, one rounding per multiply and per add, no fused multiply-add.
For each row of the left operand, the loop walks its columns in ascending
order (a packed term: its (block, slot) pairs in packed order, whose valid
slots carry increasing indices) and adds value times the named row of b
to the output row. It leaves out products whose left operand is zero, so
the cost tracks the non-zeros. Leaving such a product out, or adding it,
never changes a bit. The accumulator starts at +0.0 and is never -0.0,
since under round-to-nearest a sum is -0.0 only when both addends are.
The product is a zero times a finite number (the public entry points
refuse NaN and Inf), so it is +-0.0, and adding +-0.0 leaves any
accumulator other than -0.0 unchanged. The dense matmul and the
compressed product of a decoded term therefore agree bit for bit. This
needs a zeroed ``out``: every caller passes one. Nothing here calls BLAS,
whose summation order is not pinned.

The loop is built on the first product, not at import, by ``sysconfig``'s
C compiler with -ffp-contract=off, which keeps every multiply and add
rounded on its own. The library is cached under ``$XDG_CACHE_HOME/tasd``
(default ``~/.cache/tasd``), named by a hash of the source, the command
and the host. ``ctypes`` releases the GIL during each call, so two sweep
workers can run their products at the same time. Without a compiler, the
first product raises an ``OSError`` that quotes the compiler's command.
"""

from __future__ import annotations

import contextlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_products.c")
_BUILD = threading.Lock()
_loop = None


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


def matmul_into(a, b, out):
    """out += a @ b, each row of ``a`` walked in ascending column order."""
    _products(a, None, 1, b, out)


def spmm_into(values, indices, m, b, out):
    """out += decode(term) @ b, each row walked through its (block, slot)
    pairs in packed order; the term is never expanded to dense. Every index
    is in range: ``tasd_matmul`` checks them first."""
    _products(values, indices, m, b, out)


def _products(a, indices, m, b, out):
    """The compiled loop over ``a``, (rows, K) dense or (rows, blocks, n)
    packed with ``indices`` of its shape, into ``out``, a zeroed
    C-contiguous float64 array. Operands are copied only when they are not
    C-contiguous float64. The shapes are checked here, since the loop reads
    and writes through bare pointers."""
    loop = _loop or _built()
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    dense = indices is None
    if not dense:
        indices = np.ascontiguousarray(indices, dtype=np.int64)
    rows, blocks, n = (*a.shape, 1)[:3]
    if (out.dtype != np.float64 or not out.flags.c_contiguous
            or out.shape != (rows, b.shape[1])
            or blocks != (b.shape[0] if dense else -(-b.shape[0] // m))
            or not dense and indices.shape != a.shape):
        raise ValueError(f"cannot multiply {a.shape} by {b.shape} into {out.shape}")
    loop(rows, blocks, n, m, out.shape[1], a.ctypes.data,
         None if dense else indices.ctypes.data, b.ctypes.data, out.ctypes.data)


def build_command() -> list[str]:
    """The compiler command of ``_products.c``, less its input and output."""
    import shlex
    import sysconfig

    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return [*compiler, "-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared"]


def _built():
    """The loop, loaded by the first thread that needs it from a cache that
    no other user can write, and compiled there first when it is missing.
    Without such a cache, it is built in a private temporary directory,
    removed once loaded."""
    global _loop
    import ctypes
    import hashlib

    with _BUILD:
        if _loop is None:
            command = build_command()
            host = repr((_SOURCE.read_bytes(), command, platform.machine(), platform.node()))
            root = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
            cache = os.path.join(root, "tasd")
            with contextlib.suppress(OSError):
                os.makedirs(cache, mode=0o700, exist_ok=True)
            if not (_private(cache) and os.access(cache, os.W_OK)):
                cache = None
            folder = cache or tempfile.mkdtemp(prefix="tasd-")
            path = os.path.join(folder, f"products-{hashlib.sha256(host.encode()).hexdigest()[:32]}.so")
            try:
                if not _private(path):
                    _compile(command, path)
                loop = ctypes.CDLL(path).tasd_products
            finally:
                if cache is None:
                    shutil.rmtree(folder, ignore_errors=True)
            loop.restype = None
            loop.argtypes = [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 4
            _loop = loop
    return _loop


def _private(path) -> bool:
    """Whether ``path`` exists and no user but this one (or root) can change it."""
    try:
        st = os.stat(path)
    except OSError:
        return False
    return st.st_uid in (0, os.getuid()) and not st.st_mode & 0o022


def _compile(command, path):
    """Compile the loop to ``path`` through a temporary name, so that a
    concurrent process never loads half a file."""
    part = f"{path}.{os.getpid()}.part"
    try:
        run = subprocess.run([*command, str(_SOURCE), "-o", part], capture_output=True, text=True)
        if run.returncode:
            raise OSError(run.stderr.strip())
        os.chmod(part, 0o755)
        os.replace(part, path)
    except OSError as exc:
        raise OSError(f"cannot build the product loop with `{' '.join(command)}`: {exc}") from None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
