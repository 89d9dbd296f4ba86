"""Products over structured terms: exactness, MAC accounting, the
distributivity identity, and the relative-error sweep."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tasd._kernels
import tasd.decomp
from tasd import (
    CorruptIndices,
    Decomposition,
    DegenerateProduct,
    DimensionMismatch,
    NmCompressed,
    NmPattern,
    NonFiniteEntry,
    TasdConfig,
    approximate,
    decode,
    decompose,
    encode,
    error_sweep,
    extract_term,
    matmul,
    random_matrix,
    relative_error,
    save_matrix,
    sparsity,
    tasd_matmul,
)
from tasd.approxmm import (
    ERROR_CONFIGS, ERROR_CSV_HEADER, ProductError, render_error_csv,
)

from conftest import nnz, pool_configs, py_matmul, record_calls

entries = st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=64)


def matrix_pairs(max_side=12):
    """(A, B) with compatible inner dimensions."""

    def build(dims):
        rows, inner, cols = dims
        return st.tuples(
            hnp.arrays(np.float64, (rows, inner), elements=entries),
            hnp.arrays(np.float64, (inner, cols), elements=entries),
        )

    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(build)


# kinds of column of A, from empty to full; they were drawn to cover the
# row rule of the numpy step loop that the compiled loop replaced (more
# than a third of a step's rows non-zero), and stay as varied inputs
COLUMN_KINDS = ("empty", "sparse", "at_rule", "past_rule", "full")
# signed zeros, and a pair whose product underflows to -0.0
SPECIAL = (-0.0, 1e-200, -1e-200, 1.5, -2.25)


@st.composite
def masked_pairs(draw):
    """(A, B) with at least 40 rows in A and per-column densities of A
    drawn from ``COLUMN_KINDS``; A holds -0.0 off its support, B exact
    zeros and entries small enough for products to underflow."""
    rows = draw(st.integers(40, 64))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=20))
    cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = {
        "empty": 0, "sparse": max(1, rows // 10),
        "at_rule": rows // 3, "past_rule": rows // 3 + 1, "full": rows,
    }

    def entries(shape):
        values = rng.normal(size=shape)
        special = rng.random(shape) < 0.2
        values[special] = rng.choice(SPECIAL, size=int(special.sum()))
        return values

    a = np.where(rng.random((rows, len(kinds))) < 0.5, 0.0, -0.0)
    for k, kind in enumerate(kinds):
        support = rng.permutation(rows)[: counts[kind]]
        a[support, k] = entries(support.size)
    b = entries((len(kinds), cols))
    b[rng.random(b.shape) < 0.2] = 0.0
    return a, b


@st.composite
def row_width_pairs(draw):
    """(A, B) whose widest row of A holds K/2 - 1, K/2 or K/2 + 1
    non-zeros, either side of the numpy loop's old switch to row steps,
    or an all-zero A.
    Other rows hold fewer non-zeros, often none; A holds -0.0 off its
    support, and both operands hold signed zeros and underflowing
    entries."""
    rows = draw(st.integers(1, 12))
    inner = draw(st.integers(2, 16))
    offset = draw(st.sampled_from((None, -1, 0, 1)))
    width = 0 if offset is None else max(0, inner // 2 + offset)
    cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(size):
        values = rng.normal(size=size)
        special = rng.random(size) < 0.2
        values[special] = rng.choice(SPECIAL, size=int(special.sum()))
        return values

    a = np.where(rng.random((rows, inner)) < 0.5, 0.0, -0.0)
    counts = rng.integers(0, width + 1, size=rows)
    counts[rng.random(rows) < 0.3] = 0
    counts[rng.integers(rows)] = width
    for i, count in enumerate(counts):
        values = entries(count)
        values[values == 0.0] = 1.5  # a -0.0 would leave the row short
        a[i, rng.permutation(inner)[:count]] = values
    b = entries((inner, cols))
    b[rng.random(b.shape) < 0.2] = 0.0
    return a, b


# every edge case of one product: signed zeros (a negative times +0.0 is
# -0.0), a subnormal result (1e-160 squared) and overflow to +-inf (1e300
# squared); sums of those infinities can be NaN
OUTER_SPECIAL = (0.0, -0.0, -1.5, 1e-160, -1e-160, 1e300, -1e300)


@st.composite
def column_step_pairs(draw):
    """(A, B) that the numpy loop ran on column steps: one row of A is
    more than half dense. A mixes columns past its one-third rule (full
    updates) with sparser ones (row updates), and both operands draw from
    ``OUTER_SPECIAL``."""
    rows = draw(st.integers(6, 40))
    inner = draw(st.integers(2, 12))
    cols = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(shape, nonzero=False):
        values = rng.normal(size=shape)
        special = rng.random(shape) < 0.3
        values[special] = rng.choice(OUTER_SPECIAL, size=int(special.sum()))
        if nonzero:
            values[values == 0.0] = -2.5
        return values

    # a sparse column stays at most a third full after the dense row's
    # entry; columns 0 (full) and 1 (sparse) hold no zero on their support
    counts = rng.choice((rows, rows // 3 + 2, max(1, rows // 3 - 1), 0), size=inner)
    counts[:2] = rows, max(1, rows // 3 - 1)
    a = np.where(rng.random((rows, inner)) < 0.5, 0.0, -0.0)
    for k, count in enumerate(counts):
        a[rng.permutation(rows)[:count], k] = entries(count, nonzero=k < 2)
    dense = rng.permutation(inner)[: inner // 2 + 1]
    a[rng.integers(rows), dense] = entries(dense.size, nonzero=True)
    return a, entries((inner, cols))


class TestMatmul:
    def test_identity(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(mat, np.eye(2)), mat)
        assert np.array_equal(matmul(np.eye(2), mat), mat)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    @given(matrix_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_bitwise(self, pair):
        a, b = pair
        ours = matmul(a, b)
        assert ours.tobytes() == py_matmul(a, b).tobytes()

    @given(masked_pairs())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_across_column_densities(self, pair):
        a, b = pair
        assert matmul(a, b).tobytes() == py_matmul(a, b).tobytes()

    @given(row_width_pairs())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_either_side_of_row_steps(self, pair):
        a, b = pair
        assert matmul(a, b).tobytes() == py_matmul(a, b).tobytes()

    @given(column_step_pairs())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_on_column_steps(self, pair):
        a, b = pair
        nnz = np.count_nonzero(a, axis=0)
        assert 2 * np.count_nonzero(a, axis=1).max() > a.shape[1]
        assert (3 * nnz > a.shape[0]).any() and ((nnz > 0) & (3 * nnz <= a.shape[0])).any()
        with np.errstate(over="ignore", invalid="ignore"):
            assert matmul(a, b).tobytes() == py_matmul(a, b).tobytes()

    def test_no_fused_multiply_add(self):
        # -1 + (1 + e)(1 - e) with e = 2**-30: the product rounds to 1.0,
        # so the sum is 0.0; a fused multiply-add keeps -e**2 = -8.67e-19
        a = [[1.0, 1 + 2**-30]]
        b = [[-1.0] * 8, [1 - 2**-30] * 8]
        assert matmul(a, b).tolist() == [[0.0] * 8]
        term, _ = extract_term(a, NmPattern(2, 2))
        assert tasd_matmul(series_of(term), b)[0].tolist() == [[0.0] * 8]

    @pytest.mark.parametrize(
        "product, refusal",
        [
            (lambda: tasd._kernels.matmul_into(np.ones((2, 3)), np.ones((4, 2)), np.zeros((2, 2))),
             "cannot multiply"),
            (lambda: tasd._kernels.matmul_into(np.ones((2, 3)), np.ones((3, 2)), np.zeros((2, 3))),
             "cannot multiply"),
            (lambda: tasd._kernels.matmul_into(np.ones((2, 3)), np.ones((3, 2)), np.zeros((2, 4))[:, ::2]),
             "cannot multiply"),
            (lambda: tasd._kernels.spmm_into(np.ones((2, 1, 2)), np.zeros((2, 2), dtype=np.int64), 4,
                                             np.ones((4, 2)), np.zeros((2, 2))),
             "cannot multiply"),
            (lambda: tasd._kernels.spmm_into(np.ones((2, 1, 2)), np.zeros((2, 1, 2), dtype=np.int64), 4,
                                             np.ones((8, 2)), np.zeros((2, 2))),
             "cannot multiply"),
            (lambda: tasd._kernels.extract_term_blocks(np.ones((2, 6)), 2, 4), "cannot extract"),
            (lambda: tasd._kernels.extract_term_blocks(np.ones((2, 16))[:, ::2], 2, 4), "cannot extract"),
            (lambda: tasd._kernels.extract_term_blocks(np.frombuffer(bytes(128)).reshape(2, 8), 2, 4),
             "cannot extract"),
            (lambda: tasd._kernels.extract_into(np.ones((2, 8)), 2, 4, np.empty((2, 2, 1)),
                                                np.empty((2, 2, 2), dtype=np.int64)),
             "cannot extract"),
            (lambda: tasd._kernels.extract_into(np.ones((2, 8)), 2, 4, np.empty((2, 2, 2)),
                                                np.empty((2, 2, 2), dtype=np.int32)),
             "cannot extract"),
            (lambda: tasd._kernels.extract_into(np.ones((2, 130)), 1, 65, np.empty((2, 2, 1)),
                                                np.empty((2, 2, 1), dtype=np.int64)),
             "cannot extract"),
            (lambda: tasd._kernels.block_ranks(np.ones((2, 130)), 65), "cannot rank"),
        ],
        ids=["inner", "out-shape", "out-strided", "index-shape", "blocks",
             "extract-width", "extract-strided", "extract-read-only", "extract-values-shape",
             "extract-index-dtype", "extract-wide", "rank-wide"],
    )
    def test_loop_refuses_mismatched_buffers(self, product, refusal):
        # the compiled kernels read and write through bare pointers
        with pytest.raises(ValueError, match=refusal):
            product()

    def test_loop_is_built_without_contraction(self):
        command = tasd._kernels.build_command()
        assert "-ffp-contract=off" in command
        assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations"} & set(command)


# a product in a fresh process, written as the hex of its bytes
PRODUCT = (
    "import sys, numpy as np, tasd; "
    "p = tasd.matmul(np.arange(12.0).reshape(3, 4) / 7, np.arange(8.0).reshape(4, 2) / 3); "
    "sys.stdout.write(p.tobytes().hex())"
)
DECOMPOSE = "import numpy as np, tasd; tasd.decompose(np.eye(4), '2:4')"


class TestProductBuild:
    """The compiled kernels are built on the first product or extraction
    into ``$XDG_CACHE_HOME/tasd``, once, and reused by later processes."""

    @staticmethod
    def start(cache, *args, **env):
        return subprocess.Popen(
            [sys.executable, *(args or ("-c", PRODUCT))],
            env={**os.environ, "XDG_CACHE_HOME": str(cache), **env},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def run(self, cache, *args, **env):
        proc = self.start(cache, *args, **env)
        out, err = proc.communicate(timeout=120)
        return proc.returncode, out, err

    @staticmethod
    def listing(cache):
        return {p.name: p.stat().st_mtime_ns for p in (cache / "tasd").iterdir()}

    def test_built_once_then_reused(self, tmp_path):
        code, first, _ = self.run(tmp_path)
        built = self.listing(tmp_path)
        assert code == 0 and len(built) == 1 and next(iter(built)).endswith(".so")
        code, second, _ = self.run(tmp_path)
        assert code == 0 and second == first
        assert self.listing(tmp_path) == built

    def test_concurrent_first_products_agree(self, tmp_path):
        procs = [self.start(tmp_path) for _ in range(2)]
        results = [(proc.communicate(timeout=120)[0], proc.returncode) for proc in procs]
        assert results[0] == results[1] and results[0][1] == 0
        assert len(self.listing(tmp_path)) == 1

    def test_no_compiler_is_an_os_error(self, tmp_path):
        code, _, err = self.run(tmp_path, PATH="")
        assert code == 1 and "OSError" in err
        assert " ".join(tasd._kernels.build_command()) in err
        code, _, err = self.run(
            tmp_path, "-m", "tasd.cli", "analyze", "--sweep", "matmul-error", "--num-seeds", "1",
            PATH="",
        )
        assert code == 2 and len(err.splitlines()) == 1 and "cannot build" in err
        code, _, err = self.run(tmp_path, "-c", DECOMPOSE, PATH="")
        assert code == 1 and "OSError" in err and "cannot build" in err
        code, _, err = self.run(
            tmp_path, "-m", "tasd.cli", "analyze", "--sweep", "appendixA", "--num-seeds", "1",
            PATH="",
        )
        assert code == 2 and len(err.splitlines()) == 1 and "cannot build" in err
        assert self.listing(tmp_path) == {}


def series_of(term):
    """The one-term series of a packed term, with a zero residual."""
    residual = np.zeros((term.rows, term.cols))
    return Decomposition(TasdConfig((term.pattern,)), (term,), residual)


class TestSpmmTerm:
    """One packed term times a dense B, as ``tasd_matmul`` of its one-term
    series."""

    def test_skips_absent_products(self):
        term, _ = extract_term(np.array([[5.0, 0.0, 3.0, 0.0]]), NmPattern(2, 4))
        out, macs = tasd_matmul(series_of(term), np.ones((4, 1)))
        assert out.tolist() == [[8.0]]
        assert macs == 2

    def test_zero_term(self):
        term, _ = extract_term(np.zeros((2, 4)), NmPattern(2, 4))
        out, macs = tasd_matmul(series_of(term), np.ones((4, 3)))
        assert not out.any()
        assert macs == 0

    def test_dense_term_pays_dense_macs(self):
        rng = np.random.default_rng(0)
        mat = rng.uniform(1.0, 2.0, size=(4, 8))  # no zeros
        term, _ = extract_term(mat, NmPattern(8, 8))
        _, macs = tasd_matmul(series_of(term), np.ones((8, 5)))
        assert macs == 4 * 8 * 5

    def test_dimension_check(self):
        term, _ = extract_term(np.ones((2, 4)), NmPattern(2, 4))
        with pytest.raises(DimensionMismatch):
            tasd_matmul(series_of(term), np.ones((3, 2)))

    @given(matrix_pairs(max_side=10))
    @settings(max_examples=60, deadline=None)
    def test_mac_count_is_nonzero_multiplies(self, pair):
        a, b = pair
        term, _ = extract_term(a, NmPattern(2, 4))
        out, macs = tasd_matmul(series_of(term), b)
        dense = decode(term)
        assert macs == nnz(dense) * b.shape[1]
        reference = matmul(dense, b)
        assert np.array_equal(out, reference)

    @given(masked_pairs(), st.sampled_from(pool_configs()))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_against_decoded_term(self, pair, config):
        a, b = pair
        for term in decompose(a, config).terms:
            out, _ = tasd_matmul(series_of(term), b)
            assert out.tobytes() == py_matmul(decode(term), b).tobytes()


class TestTasdMatmul:
    def test_distributes_over_terms(self, example_2x8):
        b = np.arange(16.0).reshape(8, 2)
        d = decompose(example_2x8, "2:4+2:8")
        out, _ = tasd_matmul(d, b)
        # the series is lossless here, so the product is exact
        np.testing.assert_allclose(out, matmul(example_2x8, b), rtol=1e-10)

    def test_mac_fraction_on_full_density(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(1.0, 2.0, size=(16, 32))
        b = rng.uniform(size=(32, 8))
        d = decompose(a, "2:4+2:8")
        _, macs = tasd_matmul(d, b)
        dense_macs = a.shape[0] * a.shape[1] * b.shape[1]
        assert macs == pytest.approx(0.75 * dense_macs)

    def test_dimension_check(self):
        d = decompose(np.ones((2, 4)), "2:4")
        with pytest.raises(DimensionMismatch):
            tasd_matmul(d, np.ones((5, 2)))

    @pytest.mark.parametrize("shape", [(4, 8), (8, 12)], ids=["rows", "cols"])
    def test_terms_shaped_unlike_the_residual_are_refused(self, shape):
        # a hand-built series: these used to reach the compiled loop and
        # fail there with an untyped ValueError
        term, _ = extract_term(np.ones(shape), NmPattern(2, 4))
        d = Decomposition(TasdConfig((term.pattern,)), (term,), np.zeros((8, 8)))
        with pytest.raises(DimensionMismatch, match="term in a 8x8 series"):
            tasd_matmul(d, np.ones((8, 3)))

    @given(matrix_pairs(), st.sampled_from(pool_configs()))
    @settings(max_examples=80, deadline=None)
    def test_distributivity_identity(self, pair, config):
        a, b = pair
        d = decompose(a, config)
        ours, _ = tasd_matmul(d, b)
        reference = matmul(approximate(a, config), b)
        scale = np.linalg.norm(reference)
        assert np.linalg.norm(ours - reference) <= 1e-10 * max(scale, 1.0)

    @given(masked_pairs(), st.sampled_from(pool_configs()))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_against_decoded_terms(self, pair, config):
        # term after term, each in ascending k: the product of the decoded
        # terms side by side with copies of B stacked to match
        a, b = pair
        d = decompose(a, config)
        ours, _ = tasd_matmul(d, b)
        side_by_side = np.hstack([decode(term) for term in d.terms])
        stacked = np.vstack([b] * len(d.terms))
        assert ours.tobytes() == py_matmul(side_by_side, stacked).tobytes()


class TestCorruptIndices:
    """The product refuses the packed indices that ``decode`` refuses,
    instead of multiplying by the wrong rows of B."""

    CASES = {
        "out-of-block": (NmPattern(1, 4), 8, [[[5], [0]]]),
        "below-padding": (NmPattern(1, 4), 8, [[[-2], [0]]]),
        "non-increasing": (NmPattern(2, 4), 8, [[[2, 1], [0, 1]]]),
        "duplicate": (NmPattern(2, 4), 8, [[[0, 1], [3, 3]]]),
        "beyond-partial-block": (NmPattern(1, 4), 6, [[[0], [3]]]),
    }

    @staticmethod
    def series(term, b):
        return tasd_matmul(series_of(term), b)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("product", ["series"])
    def test_refused(self, case, product):
        pattern, cols, indices = self.CASES[case]
        values = np.arange(1.0, 1.0 + np.size(indices)).reshape(np.shape(indices))
        term = NmCompressed(pattern, 1, cols, values, indices)
        with pytest.raises(CorruptIndices):
            decode(term)
        with pytest.raises(CorruptIndices):
            getattr(self, product)(term, np.arange(float(cols)).reshape(cols, 1))
        # the product checks the indices before the shape of b
        with pytest.raises(CorruptIndices):
            getattr(self, product)(term, np.ones((cols + 1, 1)))


class TestRelativeError:
    def test_zero_for_compliant_input(self):
        a = np.array([[5.0, 0.0, 3.0, 0.0]])
        b = np.ones((4, 2))
        assert relative_error(a, "2:4", b) == 0.0

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateProduct, match="sample 0 has zero"):
            relative_error(np.zeros((2, 4)), "2:4", np.ones((4, 2)))

    @pytest.mark.parametrize("config", ["1:4", "2:4", "2:8+1:8", "2:4+1:8", "4:4"])
    def test_matches_its_definition(self, config):
        a = random_matrix(12, 16, 0.6, "normal", seed=3)
        b = random_matrix(16, 5, 0.8, "normal", seed=4)
        residual = decompose(a, config).residual
        expected = float(np.linalg.norm(matmul(residual, b))) / float(np.linalg.norm(matmul(a, b)))
        assert relative_error(a, config, b) == expected

    @pytest.mark.parametrize("config", ["2:4", "2:8+1:8", "2:4+1:8"])
    def test_samples_side_by_side_score_as_apart(self, config):
        a = random_matrix(12, 16, 0.6, "normal", seed=5)
        samples = [random_matrix(16, w, 0.7, "normal", seed=(6, w)) for w in (3, 1, 6)]
        scorer = ProductError(a, samples)
        assert scorer.errors(config) == [relative_error(a, config, b) for b in samples]

    @pytest.mark.parametrize("rows", [[16, 15], []], ids=["unequal", "none"])
    def test_samples_need_one_common_row_count(self, rows):
        a = random_matrix(12, 16, 0.6, "normal", seed=5)
        samples = [np.ones((r, 2)) for r in rows]
        with pytest.raises(DimensionMismatch, match="one common row count"):
            ProductError(a, samples)

    def test_zero_reference_names_the_sample(self):
        samples = [np.ones((4, 2)), np.zeros((4, 3)), np.ones((4, 1))]
        with pytest.raises(DegenerateProduct, match="sample 1 has zero"):
            ProductError(np.ones((2, 4)), samples)

    def test_appending_terms_shrinks_residual_norm(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(16, 16))
        prev = None
        for config in ("1:8", "1:8+1:8", "1:8+1:8+1:8"):
            norm = float(np.linalg.norm(decompose(a, config).residual))
            if prev is not None:
                assert norm <= prev + 1e-12
            prev = norm


class TestNonFiniteOperands:
    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.integers(0, 11),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rejected_in_either_operand(self, seed, in_a, pos, bad):
        # these products used to return NaN, and an Inf weight an error of 0
        a = np.array(random_matrix(3, 4, 0.7, "normal", seed=(seed, 0)))
        b = np.array(random_matrix(4, 3, 0.7, "normal", seed=(seed, 1)))
        (a if in_a else b).flat[pos] = bad
        products = (
            matmul,
            lambda x, y: relative_error(x, "2:4", y),
            lambda x, y: tasd_matmul(decompose(x, "2:4"), y),
        )
        for product in products:
            with pytest.raises(NonFiniteEntry):
                product(a, b)


class TestEmptyOperands:
    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)], ids=["0x4", "3x0", "0x0"])
    def test_rejected_at_every_entry_point(self, tmp_path, shape):
        # sparsity used to divide by zero, approximate to return an empty
        # array and matmul an empty product
        empty = np.zeros(shape)
        term = decompose(np.ones((4, 4)), "2:4")
        calls = (
            lambda: sparsity(empty),
            lambda: decompose(empty, "2:4"),
            lambda: extract_term(empty, NmPattern(2, 4)),
            lambda: approximate(empty, "2:4"),
            lambda: encode(empty, NmPattern(2, 4)),
            lambda: save_matrix(empty, tmp_path / "empty.tasd1"),
            lambda: matmul(empty, np.ones((shape[1], 2))),
            lambda: matmul(np.ones((2, shape[0])), empty),
            lambda: relative_error(empty, "2:4", np.ones((shape[1], 2))),
            lambda: relative_error(np.ones((2, shape[0])), "2:4", empty),
            lambda: tasd_matmul(term, np.zeros((4, 0))),
        )
        for call in calls:
            with pytest.raises(DimensionMismatch, match="dims must be positive"):
                call()
        assert not (tmp_path / "empty.tasd1").exists()


class TestErrorSweep:
    def test_no_seeds_rejected(self):
        # used to give NaN means and numpy RuntimeWarnings
        with pytest.raises(ValueError, match="seed"):
            error_sweep(dims=(8, 8), configs=("2:4",), seeds=[])

    def test_empty_axes_give_no_rows(self):
        # no sparsities used to fail in numpy's reshape
        assert error_sweep(dims=(8, 8), a_sparsities=[], configs=("2:4",), seeds=[0]) == []
        assert error_sweep(dims=(8, 8), a_sparsities=[0.5], configs=[], seeds=[0]) == []

    def test_default_config_grid(self):
        assert list(ERROR_CONFIGS) == [
            f"{n}:4" for n in range(1, 5)
        ] + [f"{n}:8" for n in range(1, 9)]

    def test_table_shape_and_determinism(self, monkeypatch):
        kwargs = dict(
            dims=(32, 32),
            a_sparsities=(0.2, 0.8),
            configs=("2:4", "4:4"),
            seeds=range(3),
        )
        table = error_sweep(**kwargs)
        assert len(table) == 2 * 2
        assert all(r["seeds"] == 3 for r in table)
        assert table == error_sweep(**kwargs)
        monkeypatch.setenv("TASD_THREADS", "4")
        assert table == error_sweep(**kwargs)

    def test_full_coverage_config_has_zero_error(self):
        table = error_sweep(
            dims=(32, 32), a_sparsities=(0.5,), configs=("4:4",), seeds=range(3)
        )
        assert table[0]["mean_rel_error"] == 0.0
        assert table[0]["std_rel_error"] == 0.0
        assert table[0]["approx_sparsity"] == 0.0

    def test_numpy_grid_renders_as_numbers(self):
        # repr of a numpy sparsity is np.float64(0.2), not a number
        kwargs = dict(dims=(8, 8), configs=("2:4",), seeds=[0])
        as_array = error_sweep(a_sparsities=np.array([0.2, 0.8]), **kwargs)
        as_list = error_sweep(a_sparsities=[0.2, 0.8], **kwargs)
        assert render_error_csv(as_array) == render_error_csv(as_list)

    def test_csv_shape(self):
        table = error_sweep(
            dims=(16, 16), a_sparsities=(0.5,), configs=("2:4",), seeds=range(2)
        )
        text = render_error_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == ERROR_CSV_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "0.5"
        assert cells[1] == "2:4"
        assert float(cells[3]) == table[0]["mean_rel_error"]
        assert cells[5] == "2"

    def test_default_grid_ranks_twice_per_draw_and_never_extracts(self, monkeypatch):
        monkeypatch.setenv("TASD_THREADS", "1")
        extractions = record_calls(monkeypatch, tasd._kernels, "extract_term_blocks")
        passes = record_calls(monkeypatch, tasd.decomp, "block_ranks")
        error_sweep((16, 24), (0.2, 0.8), seeds=range(2))
        assert extractions == []
        assert [m for _, m in passes] == [4, 8] * (2 * 2)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_one_rank_pass_per_block_size_and_one_product_per_cell(
        self, monkeypatch, workers
    ):
        # draws are built before their cells are scored: a cell only reads
        # its draw's ranks, so no pass runs twice whichever worker gets it,
        # even with threads switching every microsecond. The mixed-m config
        # is decomposed and takes no rank pass
        configs = ("1:4", "3:4", "2:8", "7:8", "2:4+2:8")
        kwargs = dict(dims=(16, 24), a_sparsities=(0.2, 0.8), configs=configs, seeds=range(3))
        monkeypatch.setenv("TASD_THREADS", "1")
        expected = error_sweep(**kwargs)
        monkeypatch.setenv("TASD_THREADS", str(workers))
        passes = record_calls(monkeypatch, tasd.decomp, "block_ranks")
        products = record_calls(monkeypatch, tasd._kernels, "matmul_into")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = error_sweep(**kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert table == expected
        draws = 2 * 3
        assert sorted(m for _, m in passes) == [4] * draws + [8] * draws
        assert len({(mat.tobytes(), m) for mat, m in passes}) == 2 * draws
        assert len(products) == draws * (1 + len(configs))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_csv_bytes(self, monkeypatch, workers):
        # recorded before the products learned to skip zero operands; any
        # change of summation order shows here. The error norms go through
        # the BLAS dot product, so another BLAS build may round them apart
        monkeypatch.setenv("TASD_THREADS", str(workers))
        table = error_sweep((64, 64), (0.2, 0.8), seeds=range(2), master_seed=3)
        digest = hashlib.sha256(render_error_csv(table).encode()).hexdigest()
        assert digest == "dece737c0b71b9aa5cc6cd40dff915a949cb2bdec398ee57d2257d59c2cc3eeb"
