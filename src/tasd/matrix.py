"""Dense matrices, N:M sparsity patterns, series configurations and the
pattern menus they are drawn from, the packed structured-sparse format
with its greedy extraction pass, and file IO (matrices, JSON, CSV).

A dense matrix is a read-only, C-contiguous float64 ndarray; ``new_dense``
is the validating constructor. An object keeps each array it is given
through ``held``, so it owns a read-only array and a later write by the
caller cannot change its results. N:M blocks run along rows (contiguous
columns). When the column count is not a multiple of m, the trailing
partial block is held to the same at-most-n bound.
"""

from __future__ import annotations

import json
import math
import numbers
import re
import struct
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import _kernels
from .errors import (
    BadHeader,
    BadMagic,
    CorruptIndices,
    DimensionMismatch,
    NonFiniteEntry,
    NotCompliant,
    SchemaError,
)

DenseMatrix = np.ndarray

MAGIC = b"TASDMAT1"
_HEADER = struct.Struct("<QQ")
_PATTERN_RE = re.compile(r"^\s*(\d+)\s*:\s*(\d+)\s*$")


def new_dense(rows: int, cols: int, data) -> DenseMatrix:
    """Build a validated rows x cols matrix from a copy of flat or 2-D data."""
    _check_dims(rows, cols)
    arr = np.array(data, dtype=np.float64)
    if arr.shape not in ((rows * cols,), (rows, cols)):
        raise DimensionMismatch(f"data shaped {arr.shape} does not fill a {rows}x{cols} matrix")
    return freeze(as_matrix(arr.reshape(rows, cols)))


def as_matrix(mat) -> DenseMatrix:
    """Coerce an array-like to a 2-D float64 ndarray (no copy if possible);
    a matrix with no entries, and NaN and Inf entries, are refused."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    _check_dims(*arr.shape)
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("matrix entries must be finite")
    return arr


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` loads as one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number that is not a bool (numpy scalars included)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite ``_is_real``; NaN, Inf and integers too large for a float
    are refused."""
    if not _is_real(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_dims(rows, cols) -> None:
    """Refuse dims that are not positive integers (bools included)."""
    if not (_is_int(rows) and _is_int(cols) and rows > 0 and cols > 0):
        raise DimensionMismatch(f"matrix dims must be positive integers, got {rows}x{cols}")


def freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` (a fresh array nobody else holds), made C-contiguous and
    read-only, with every array under it through ``.base``."""
    arr = base = np.ascontiguousarray(arr)
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return arr


def held(arr: np.ndarray) -> np.ndarray:
    """The array an object keeps of one it was given: the input as it is when
    it and every array under it are read-only, else a read-only copy (also of
    a view of a buffer that is not an array). The caller's flags never change."""
    base = arr
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    return arr if base is None else freeze(arr.copy())


def sparsity(mat) -> float:
    """Fraction of entries that are exactly zero."""
    arr = as_matrix(mat)
    return float(arr.size - np.count_nonzero(arr)) / arr.size


@dataclass(frozen=True)
class NmPattern:
    """At most ``n`` non-zeros in each block of ``m`` consecutive columns."""

    n: int
    m: int

    def __post_init__(self):
        if not (_is_int(self.n) and _is_int(self.m)):
            raise ValueError("pattern n and m must be integers")
        if not 1 <= self.n <= self.m:
            raise ValueError(f"pattern needs 1 <= n <= m, got {self.n}:{self.m}")

    @property
    def is_dense(self) -> bool:
        return self.n == self.m

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"

    @classmethod
    def parse(cls, text: str) -> "NmPattern":
        match = _PATTERN_RE.match(text)
        if not match:
            raise ValueError(f"cannot parse pattern {text!r}, expected 'N:M'")
        return cls(int(match.group(1)), int(match.group(2)))


@dataclass(frozen=True)
class TasdConfig:
    """An ordered series of N:M patterns applied term by term."""

    terms: tuple[NmPattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a config needs at least one term")
        for term in self.terms:
            if not isinstance(term, NmPattern):
                raise ValueError(f"config terms must be NmPattern, got {term!r}")
        if self.same_m and self.sum_n > self.terms[0].m:
            raise ValueError(f"same-m config {self.canonical()} has sum(n) > m")

    @property
    def same_m(self) -> bool:
        return len({t.m for t in self.terms}) == 1

    @property
    def coverage(self) -> float:
        return min(1.0, sum(t.n / t.m for t in self.terms))

    @property
    def approximated_sparsity(self) -> float:
        return 1.0 - self.coverage

    @property
    def is_dense(self) -> bool:
        return len(self.terms) == 1 and self.terms[0].is_dense

    @property
    def sum_n(self) -> int:
        return sum(t.n for t in self.terms)

    def canonical(self) -> str:
        return "+".join(str(t) for t in self.terms)

    def __str__(self) -> str:
        return self.canonical()

    @classmethod
    def parse(cls, text: str) -> "TasdConfig":
        if not text.strip():
            raise ValueError("empty config string")
        return cls(tuple(NmPattern.parse(p) for p in text.split("+")))


def config_of(spec) -> TasdConfig:
    """Accept a TasdConfig, a pattern, or a config string like '4:8+1:8'."""
    if isinstance(spec, TasdConfig):
        return spec
    if isinstance(spec, NmPattern):
        return TasdConfig((spec,))
    if isinstance(spec, str):
        return TasdConfig.parse(spec)
    raise ValueError(f"cannot interpret {spec!r} as a config")


Assignment = dict[str, TasdConfig]
"""Maps layer_id to its series; layers absent from the dict execute dense."""


@dataclass(frozen=True)
class PatternMenu:
    """The base N:M patterns a target can apply, and how many terms it can
    chain per tensor."""

    m: int
    base_patterns: frozenset[int]
    max_terms: int = 2

    def __post_init__(self):
        object.__setattr__(self, "base_patterns", frozenset(self.base_patterns))
        if not (_is_int(self.m) and _is_int(self.max_terms)) or self.m < 1 or self.max_terms < 1:
            raise ValueError("menu m and max_terms must be positive integers")
        if not self.base_patterns:
            raise ValueError("menu needs at least one base pattern")
        for n in self.base_patterns:
            if not (_is_int(n) and 1 <= n <= self.m):
                raise ValueError(f"base pattern {n!r} is not an integer in [1, {self.m}]")


def enumerate_configs(menu: PatternMenu) -> list[TasdConfig]:
    """All distinct-coverage series buildable from the menu, plus dense,
    sorted by coverage ascending.

    Equal-total multisets collapse to the one with the fewest terms
    (largest first on remaining ties), e.g. a total of 5 on an m=8 menu
    with bases {1,2,4} realizes as 4:8+1:8. A total of m is the dense
    single term.
    """
    # combinations come fewest terms first, and largest first within a
    # length, so the first one seen for a total is the one to keep. No
    # more than m // min(base) terms fit in m
    best = {menu.m: (menu.m,)}
    for r in range(1, min(menu.max_terms, menu.m // min(menu.base_patterns)) + 1):
        for combo in combinations_with_replacement(
            sorted(menu.base_patterns, reverse=True), r
        ):
            if sum(combo) <= menu.m:
                best.setdefault(sum(combo), combo)

    return [
        TasdConfig(tuple(NmPattern(n, menu.m) for n in best[total])) for total in sorted(best)
    ]


def dense_config(menu: PatternMenu) -> TasdConfig:
    return TasdConfig((NmPattern(menu.m, menu.m),))


def is_expressible(config, menu: PatternMenu) -> bool:
    """Whether the target can execute the series (dense always can);
    ``config`` is anything ``config_of`` takes."""
    config = config_of(config)
    if config.is_dense:
        return True
    if not config.same_m or config.terms[0].m != menu.m or len(config.terms) > menu.max_terms:
        return False
    return all(t.n in menu.base_patterns for t in config.terms)


@dataclass(frozen=True, eq=False)
class NmCompressed:
    """One structured term: packed values plus intra-block column indices.

    values:  (rows, blocks_per_row, n) finite float64, zero in unused slots.
    indices: (rows, blocks_per_row, n) int64; -1 marks an unused slot.
    Valid slots within a block carry strictly increasing indices.

    Construction checks shapes, finiteness and that unused slots hold 0;
    ``decode`` and ``tasd_matmul`` check the indices they read. A corrupt
    term thus builds, but checking here would add 15-30% to the time of
    ``extract_term`` on a 128x128 term (numpy kernels, 2-CPU x86 host),
    which is ``sweep_synthetic``'s hot path.
    """

    pattern: NmPattern
    rows: int
    cols: int
    values: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        _check_dims(self.rows, self.cols)
        shape = (self.rows, self.blocks_per_row, self.pattern.n)
        values = held(np.ascontiguousarray(self.values, dtype=np.float64))
        indices = held(np.ascontiguousarray(self.indices, dtype=np.int64))
        if values.shape != shape or indices.shape != shape:
            raise DimensionMismatch(
                f"packed arrays must be shaped {shape}, got {values.shape} and {indices.shape}"
            )
        if not np.isfinite(values).all():
            raise NonFiniteEntry("packed values must be finite")
        if np.any((indices == -1) & (values != 0.0)):
            raise CorruptIndices("an unused slot (index -1) holds a non-zero value")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "indices", indices)

    @property
    def blocks_per_row(self) -> int:
        return -(-self.cols // self.pattern.m)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.indices >= 0))


def pad_blocks(arr: np.ndarray, m: int) -> np.ndarray:
    """A writable copy of ``arr`` zero-padded on the right to whole m-blocks."""
    rows, cols = arr.shape
    padded = np.zeros((rows, -(-cols // m) * m))
    padded[:, :cols] = arr
    return padded


def block_nnz(mat, m: int) -> np.ndarray:
    """Non-zeros in each m-block of each row, shaped rows x blocks."""
    padded = pad_blocks(as_matrix(mat), m)
    return np.count_nonzero(padded.reshape(padded.shape[0], -1, m), axis=2)


def extract_term(mat, pattern: NmPattern):
    """One greedy pass: split ``mat`` into its packed N:M term and the
    frozen residual left behind; term + residual == mat."""
    arr = as_matrix(mat)
    rows, cols = arr.shape
    padded = pad_blocks(arr, pattern.m)
    values, indices = _kernels.extract_term_blocks(padded, pattern.n, pattern.m)
    term = NmCompressed(pattern, rows, cols, freeze(values), freeze(indices))
    return term, freeze(padded[:, :cols])


def encode(mat, pattern: NmPattern) -> NmCompressed:
    """Pack a pattern-compliant matrix; decode(encode(mat)) == mat exactly."""
    term, residual = extract_term(mat, pattern)
    # one pass consumes a compliant matrix whole
    if residual.any():
        raise NotCompliant(f"matrix is not {pattern} compliant")
    return term


def _check_indices(c: NmCompressed) -> None:
    """Raise ``CorruptIndices`` unless each slot is the -1 padding or a column
    inside its block and the matrix, increasing within the block."""
    m = c.pattern.m
    if np.any((c.indices < -1) | (c.indices >= m)):
        raise CorruptIndices("index is neither the -1 padding nor inside its block")
    # each valid slot exceeds every earlier slot of its block (padding is -1)
    before = np.maximum.accumulate(c.indices, axis=2)[:, :, :-1]
    if np.any((c.indices[:, :, 1:] >= 0) & (c.indices[:, :, 1:] <= before)):
        raise CorruptIndices("block indices must be strictly increasing")
    # the final block may be partial
    if np.any(c.indices[:, -1] >= c.cols - (c.blocks_per_row - 1) * m):
        raise CorruptIndices("index lands beyond the final partial block")


def decode(c: NmCompressed) -> DenseMatrix:
    """Expand a packed term back to its dense form."""
    _check_indices(c)
    valid = c.indices >= 0
    r, blk, _ = np.nonzero(valid)
    out = np.zeros((c.rows, c.cols))
    out[r, blk * c.pattern.m + c.indices[valid]] = c.values[valid]
    return freeze(out)


# ---------------------------------------------------------------------------
# file IO


def save_matrix(mat, path) -> None:
    """Write the binary matrix format (magic, u64 dims, f64 payload)."""
    arr = as_matrix(mat)
    rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(rows, cols))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_indices(term: NmCompressed, path) -> None:
    """A term's pattern, dims and packed indices as one compact JSON line."""
    with open(path, "w") as fh:
        json.dump({"pattern": str(term.pattern), "rows": term.rows, "cols": term.cols,
                   "indices": term.indices.tolist()}, fh)
        fh.write("\n")


def load_matrix(path) -> DenseMatrix:
    """Read a matrix file; binary by magic sniff, CSV otherwise."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] == MAGIC:
        return _parse_binary(raw)
    return _parse_csv(raw, path)


def _parse_binary(raw: bytes) -> DenseMatrix:
    head = len(MAGIC) + _HEADER.size
    if len(raw) < head:
        raise BadHeader("truncated header")
    rows, cols = _HEADER.unpack_from(raw, len(MAGIC))
    if rows == 0 or cols == 0:
        raise BadHeader(f"degenerate dims {rows}x{cols}")
    expected = head + rows * cols * 8
    if len(raw) != expected:
        raise BadHeader(
            f"payload is {len(raw) - head} bytes, expected {expected - head}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=head).reshape(rows, cols)
    return new_dense(rows, cols, data)


def _parse_csv(raw: bytes, path) -> DenseMatrix:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise BadMagic(f"{path}: neither a matrix binary nor CSV") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BadMagic(f"{path}: empty file")
    table = []
    for line in lines:
        try:
            table.append([float(cell) for cell in line.split(",")])
        except ValueError:
            raise BadMagic(f"{path}: neither a matrix binary nor CSV") from None
    width = len(table[0])
    if any(len(row) != width for row in table):
        raise BadHeader(f"{path}: ragged CSV rows")
    return new_dense(len(table), width, table)


def read_json(path):
    """Parse a JSON file; malformed JSON is a ``SchemaError`` naming it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: {exc}") from exc


def write_json(obj, path) -> None:
    """Indented JSON with sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_csv(header: str, rows) -> str:
    """The header line, then each row's cells in header order (``str(float)`` is lossless)."""
    keys = header.split(",")
    lines = [header, *(",".join(str(row[key]) for key in keys) for row in rows)]
    return "\n".join(lines) + "\n"
