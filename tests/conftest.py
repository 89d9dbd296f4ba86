"""Shared test fixtures and independent reference implementations.

The reference implementations here deliberately use different algorithms
than the package (pure-Python loops, exhaustive subset search) so that
agreement between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
import os
import sys
import textwrap
import time

import numpy as np
import pytest

from tasd import TasdConfig, new_dense

# pyproject.toml puts src/ on pytest's own path; child processes
# (``python -m tasd.cli``) find the package through PYTHONPATH
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True, scope="session")
def _kernel_cache(tmp_path_factory):
    """The compiled kernels are built into this run's own cache, shared
    with its child processes, not into the user's ``~/.cache/tasd``."""
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache"))


# hand matrix with mixed block occupancy: 37.5% sparse, entry sum 25,
# lossless under 2:4 followed by 2:8
EXAMPLE_2X8 = new_dense(
    2,
    8,
    [
        [1, 2, 3, 1, 0, 4, 0, 2],
        [5, 0, 2, 2, 3, 0, 0, 0],
    ],
)

# valid series for randomized tests: single and multi term, same and
# mixed m, partial-block-friendly
CONFIG_POOL = [
    "1:4",
    "2:4",
    "3:4",
    "4:4",
    "1:4+1:4",
    "2:4+1:4",
    "2:4+2:4",
    "1:8",
    "2:8",
    "4:8",
    "2:8+1:8",
    "4:8+1:8",
    "4:8+2:8",
    "4:8+3:8+1:8",
    "8:8",
    "2:4+2:8",
    "2:4+2:8+2:16",
    "1:2+1:4+1:8",
    "2:16",
]

# same-m series whose term capacities sum to m: always lossless
LOSSLESS_POOL = [
    "4:4",
    "2:4+2:4",
    "3:4+1:4",
    "1:4+1:4+2:4",
    "8:8",
    "4:8+4:8",
    "4:8+2:8+2:8",
    "2:2",
    "1:2+1:2",
]


@pytest.fixture
def example_2x8():
    return EXAMPLE_2X8


def pool_configs():
    return [TasdConfig.parse(s) for s in CONFIG_POOL]


def lossless_configs():
    return [TasdConfig.parse(s) for s in LOSSLESS_POOL]


# ---------------------------------------------------------------------------
# reference implementations


def py_matmul(a, b) -> np.ndarray:
    """Triple-loop product accumulating in ascending-k order.

    Matches the package kernels' pinned summation order, so results must
    agree to the last bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    rows, kk = a.shape
    cols = b.shape[1]
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(kk):
            v = float(a[i, k])
            for j in range(cols):
                out[i][j] += v * float(b[k, j])
    return np.array(out, dtype=np.float64).reshape(rows, cols)


def py_extract(mat, n: int, m: int):
    """Greedy per-block reference: keep the largest-magnitude non-zeros,
    at most n per m-wide block, ties to the lowest column.

    Returns the dense term, the residual, and the term's packed values and
    indices, each (rows, blocks, n): kept slots in ascending column order,
    then 0.0 and -1 in the unused slots; the last block may be partial.
    """
    arr = np.asarray(mat, dtype=np.float64)
    term = np.zeros_like(arr)
    residual = arr.copy()
    rows, cols = arr.shape
    blocks = -(-cols // m)
    values = np.zeros((rows, blocks, n))
    indices = np.full((rows, blocks, n), -1, dtype=np.int64)
    for r in range(rows):
        for blk, start in enumerate(range(0, cols, m)):
            block = range(start, min(start + m, cols))
            nonzero = [c for c in block if arr[r, c] != 0.0]
            nonzero.sort(key=lambda c: (-abs(arr[r, c]), c))
            for slot, c in enumerate(sorted(nonzero[:n])):
                term[r, c] = arr[r, c]
                residual[r, c] = 0.0
                values[r, blk, slot] = arr[r, c]
                indices[r, blk, slot] = c - start
    return term, residual, values, indices


def py_ranks(mat, m: int) -> np.ndarray:
    """Plain-Python block ranks: each m-wide block of each row (the last
    may be partial) numbers its columns 0, 1, ... in (-|x|, column) order."""
    arr = np.asarray(mat, dtype=np.float64)
    rows, cols = arr.shape
    ranks = np.zeros((rows, cols), dtype=np.int64)
    for r in range(rows):
        for start in range(0, cols, m):
            block = range(start, min(start + m, cols))
            for rank, c in enumerate(sorted(block, key=lambda c: (-abs(arr[r, c]), c))):
                ranks[r, c] = rank
    return ranks


def max_subset_magnitude(values, k: int) -> float:
    """Largest total magnitude any k non-zeros of ``values`` can reach,
    found by exhaustive enumeration (use on blocks of width <= 8)."""
    magnitudes = [abs(float(v)) for v in values if v != 0.0]
    k = min(k, len(magnitudes))
    if k == 0:
        return 0.0
    return max(sum(combo) for combo in itertools.combinations(magnitudes, k))


def nnz(arr) -> int:
    return int(np.count_nonzero(np.asarray(arr)))


def record_calls(monkeypatch, owner, name) -> list[tuple]:
    """Wrap ``owner.name`` for the rest of the test, in every tasd module
    that holds it (the package binds names with ``from .x import y``); the
    returned list gets the positional arguments of each call, in call
    order."""
    calls = []
    fn = getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "tasd" or mod_name.startswith("tasd."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, recorded)
    return calls


# ---------------------------------------------------------------------------
# external oracle processes

# starts a grandchild in the oracle's process group, records its pid,
# then outlives any timeout a test sets. The grandchild does not hold the
# oracle's output pipes, so only a kill of the whole group ends it soon
SLOW_SCRIPT = textwrap.dedent(
    """\
    import subprocess, sys, time
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open({pid_file!r}, "w") as fh:
        fh.write(str(child.pid))
    time.sleep(60)
    """
)


def assert_gone(pid, wait=10.0):
    """Fail unless process ``pid`` has exited (a zombie awaiting its
    reaper counts as exited) within ``wait`` seconds."""
    deadline = time.monotonic() + wait
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return
        except OSError:
            pass
        time.sleep(0.05)
    raise AssertionError(f"process {pid} is still running")
