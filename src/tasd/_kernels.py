"""Compute kernels, all in one compiled library, ``_kernels.c``: the
package's one greedy order of each block's magnitudes, with its ranks and
the extraction of each block's n largest non-zeros, and the two pinned
products, dense matmul and compressed matmul, which run one loop.

A block's greedy order puts the largest magnitude first and breaks ties
to the lowest column. The rank of a slot is the number of slots before
it: those at lower columns whose magnitude is >= and those at higher
columns whose magnitude is >. Extraction keeps each slot ranked below n
that holds a non-zero, so an exact zero (either sign) is never taken.

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

The library is built on the first rank pass, extraction or product, not
at import, by ``sysconfig``'s C compiler with -ffp-contract=off, which
keeps every multiply and add rounded on its own. It is cached under
``$XDG_CACHE_HOME/tasd`` (default ``~/.cache/tasd``), named by a hash of
the source, the command and the host. ``ctypes`` releases the GIL during
each call, so two sweep workers can run their kernels at the same time.
Without a compiler, that first call raises an ``OSError`` that quotes the
compiler's command. The shapes, dtypes and layouts of the arrays are
checked here, since the library reads and writes through bare pointers,
and so is m: a block is at most ``MAX_M`` = 64 wide, the width the
library's scratch on the stack holds, and a wider one is a ValueError.
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

_SOURCE = Path(__file__).with_name("_kernels.c")
MAX_M = 64  # the widest block, as ``#define MAX_M`` in _kernels.c
_BUILD = threading.Lock()
_lib = None


def pad_blocks(arr: np.ndarray, m: int) -> np.ndarray:
    """A writable copy of ``arr`` zero-padded on the right to whole m-blocks,
    which start at column 0 of each row; no other module pads a block."""
    rows, cols = arr.shape
    padded = np.zeros((rows, -(-cols // m) * m))
    padded[:, :cols] = arr
    return padded


def block_ranks(mat, m):
    """Rank of each entry of the 2-D ``mat`` in its m-block, as ``uint8``:
    0 for the largest magnitude, ties to the lowest column. The zeros that
    pad a partial block rank last."""
    if not 1 <= m <= MAX_M:
        raise ValueError(f"cannot rank blocks of {m!r}, only 1 to {MAX_M} wide")
    padded = pad_blocks(mat, m)
    ranks = np.empty(padded.shape, dtype=np.uint8)
    (_lib or _built()).tasd_ranks(padded.size // m, m, padded.ctypes.data, ranks.ctypes.data)
    return ranks[:, :mat.shape[1]]


def extract_term_blocks(residual, n, m):
    """Move the n largest non-zeros of each m-block (ties to the lowest
    column) out of ``residual`` ((rows, blocks*m), contiguous, modified in
    place) and return them packed: values and indices, each (rows, blocks,
    n), hold the kept slots in ascending column order, then 0.0 and -1."""
    shape = (residual.shape[0], residual.shape[-1] // m, n)
    values, indices = np.empty(shape), np.empty(shape, dtype=np.int64)
    extract_into(residual, n, m, values, indices)
    return values, indices


def extract_into(residual, n, m, values, indices):
    """``extract_term_blocks(residual, n, m)``, into ``values`` and
    ``indices``, C-contiguous float64 and int64 arrays of its shape."""
    rows, cols = residual.shape[0], residual.shape[-1]
    if (residual.ndim != 2 or not 1 <= n <= m <= MAX_M or cols % m
            or residual.dtype != np.float64
            or not (residual.flags.c_contiguous and residual.flags.writeable)
            or values.dtype != np.float64 or indices.dtype != np.int64
            or any(a.shape != (rows, cols // m, n)
                   or not (a.flags.c_contiguous and a.flags.writeable) for a in (values, indices))):
        raise ValueError(f"cannot extract {n}:{m} from {residual.shape} "
                         f"into {values.shape} and {indices.shape}")
    (_lib or _built()).tasd_extract(rows * cols // m, n, m, residual.ctypes.data,
                                    values.ctypes.data, indices.ctypes.data)


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
    lib = _lib or _built()
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
    lib.tasd_products(rows, blocks, n, m, out.shape[1], a.ctypes.data,
                      None if dense else indices.ctypes.data, b.ctypes.data, out.ctypes.data)


def build_command() -> list[str]:
    """The compiler command of ``_kernels.c``, less its input and output."""
    import shlex
    import sysconfig

    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return [*compiler, "-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared"]


def _built():
    """The library, loaded by the first thread that needs it from a cache
    that no other user can write, and compiled there first when it is
    missing. Without such a cache, it is built in a private temporary
    directory, removed once loaded."""
    global _lib
    import ctypes
    import hashlib

    with _BUILD:
        if _lib is None:
            command = build_command()
            host = repr((_SOURCE.read_bytes(), command, platform.machine(), platform.node()))
            root = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
            cache = os.path.join(root, "tasd")
            with contextlib.suppress(OSError):
                os.makedirs(cache, mode=0o700, exist_ok=True)
            if not (_private(cache) and os.access(cache, os.W_OK)):
                cache = None
            folder = cache or tempfile.mkdtemp(prefix="tasd-")
            path = os.path.join(folder, f"kernels-{hashlib.sha256(host.encode()).hexdigest()[:32]}.so")
            try:
                if not _private(path):
                    _compile(command, path)
                lib = ctypes.CDLL(path)
            finally:
                if cache is None:
                    shutil.rmtree(folder, ignore_errors=True)
            i64, ptr = ctypes.c_int64, ctypes.c_void_p
            lib.tasd_ranks.restype = lib.tasd_extract.restype = lib.tasd_products.restype = None
            lib.tasd_ranks.argtypes = [i64] * 2 + [ptr] * 2
            lib.tasd_extract.argtypes = [i64] * 3 + [ptr] * 3
            lib.tasd_products.argtypes = [i64] * 5 + [ptr] * 4
            _lib = lib
    return _lib


def _private(path) -> bool:
    """Whether ``path`` exists and no user but this one (or root) can change it."""
    try:
        st = os.stat(path)
    except OSError:
        return False
    return st.st_uid in (0, os.getuid()) and not st.st_mode & 0o022


def _compile(command, path):
    """Compile the library to ``path`` through a temporary name, so that a
    concurrent process never loads half a file."""
    part = f"{path}.{os.getpid()}.part"
    try:
        run = subprocess.run([*command, str(_SOURCE), "-o", part], capture_output=True, text=True)
        if run.returncode:
            raise OSError(run.stderr.strip())
        os.chmod(part, 0o755)
        os.replace(part, path)
    except OSError as exc:
        raise OSError(f"cannot build the kernels with `{' '.join(command)}`: {exc}") from None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
