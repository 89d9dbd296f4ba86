"""Greedy series decomposition, its loss metrics, and the synthetic
drop-rate sweep."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tasd._kernels
import tasd.decomp
from tasd import (
    DimensionMismatch,
    NmPattern,
    NonFiniteEntry,
    RankedMatrix,
    TasdConfig,
    approximate,
    decode,
    decompose,
    drop_metrics,
    encode,
    extract_term,
    random_matrix,
    sparsity,
    sweep_synthetic,
)
from tasd._parallel import map_ordered
from tasd.decomp import APPENDIX_CONFIGS, SWEEP_CSV_HEADER, render_sweep_csv
from tasd.matrix import as_matrix, block_nnz, freeze

from conftest import (
    lossless_configs,
    max_subset_magnitude,
    nnz,
    pool_configs,
    py_extract,
    py_ranks,
    record_calls,
)

finite_entries = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=64),
)


def matrices(max_side=16):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: hnp.arrays(np.float64, (r, c), elements=finite_entries)
        )
    )


small_patterns = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, m).map(lambda n: NmPattern(n, m))
)


@st.composite
def tied_matrices(draw):
    """Up to 6 x 40 (partial blocks for m = 8 and 16), density 0 to 1, few
    distinct magnitudes so blocks hold ties, and both signs of zero."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mags = rng.choice([0.5, 1.0, 2.0], (rows, cols))
    else:
        mags = rng.random((rows, cols)) + 0.25
    values = mags * rng.choice([-1.0, 1.0], (rows, cols))
    zeros = rng.choice([-0.0, 0.0], (rows, cols))
    return np.where(rng.random((rows, cols)) < density, values, zeros)


@st.composite
def same_m_configs(draw):
    """A same-m series with m in {4, 8, 16}, 1 to 3 terms, sum_n up to m."""
    m = draw(st.sampled_from([4, 8, 16]))
    total = draw(st.integers(1, m))
    cuts = draw(st.sets(st.integers(1, total - 1), max_size=2)) if total > 1 else set()
    bounds = [0, *sorted(cuts), total]
    return TasdConfig(tuple(NmPattern(b - a, m) for a, b in zip(bounds, bounds[1:])))


# mixed-m chains and every prefix of them, so prefixes are shared
CHAINS = ["2:4", "2:4+2:8", "2:4+2:8+2:16", "1:2", "1:2+1:4", "1:2+1:4+1:8"]
mixed_lists = st.lists(
    st.one_of(
        same_m_configs(),
        st.sampled_from(pool_configs() + [TasdConfig.parse(c) for c in CHAINS]),
    ),
    min_size=1,
    max_size=8,
)


def patterns(calls) -> list[str]:
    """The N:M pattern of each recorded ``extract_term_blocks`` call."""
    return [f"{n}:{m}" for *_, n, m in calls]


# ---------------------------------------------------------------------------
# single-term extraction

TIED_ROW = [2.0, -2.0, 0.0, -0.0, 1.0, 2.0, -1.0, 0.0, 2.0, -2.0, 1.0]


class TestExtractTerm:
    def test_keeps_two_largest(self):
        term, residual = extract_term(np.array([[4.0, 3.0, 2.0, 1.0]]), NmPattern(2, 4))
        assert decode(term).tolist() == [[4.0, 3.0, 0.0, 0.0]]
        assert residual.tolist() == [[0.0, 0.0, 2.0, 1.0]]

    def test_compliant_block_is_taken_whole(self):
        term, residual = extract_term(np.array([[5.0, 0.0, 3.0, 0.0]]), NmPattern(2, 4))
        assert decode(term).tolist() == [[5.0, 0.0, 3.0, 0.0]]
        assert not residual.any()

    def test_magnitude_is_absolute_value(self):
        term, residual = extract_term(
            np.array([[-9.0, 1.0, 2.0, 3.0]]), NmPattern(1, 4)
        )
        assert decode(term).tolist() == [[-9.0, 0.0, 0.0, 0.0]]
        assert residual.tolist() == [[0.0, 1.0, 2.0, 3.0]]

    def test_ties_keep_lowest_column(self):
        term, _ = extract_term(np.array([[2.0, -2.0, 2.0, 1.0]]), NmPattern(2, 4))
        assert decode(term).tolist() == [[2.0, -2.0, 0.0, 0.0]]

    def test_zeros_are_never_extracted(self):
        term, residual = extract_term(np.array([[0.0, 0.0, 1.0, 0.0]]), NmPattern(2, 4))
        assert term.nnz == 1
        assert decode(term).tolist() == [[0.0, 0.0, 1.0, 0.0]]
        assert not residual.any()

    @staticmethod
    def assert_matches_reference(mat, pattern):
        term, residual = extract_term(mat, pattern)
        ref_term, ref_residual, ref_values, ref_indices = py_extract(
            mat, pattern.n, pattern.m
        )
        assert np.array_equal(decode(term), ref_term)
        assert residual.tobytes() == ref_residual.tobytes()
        assert term.values.tobytes() == ref_values.tobytes()
        assert term.indices.tobytes() == ref_indices.tobytes()

    @given(st.one_of(matrices(), tied_matrices()), small_patterns)
    @settings(max_examples=120, deadline=None)
    def test_matches_pure_python_reference(self, mat, pattern):
        self.assert_matches_reference(mat, pattern)

    @pytest.mark.parametrize("m", [*range(1, 17), 17, 32, 63, 64])
    def test_packed_layout_of_tied_and_short_blocks(self, m):
        # every n at this m, up to the widest block, on rows of tied
        # magnitudes with both zeros, one all tied and one all zero, ending
        # in a partial block for every m above 1
        row = np.resize(TIED_ROW, m + (m + 1) // 2)
        mat = np.array([row, row[::-1], np.full(row.size, -1.0), np.zeros(row.size)])
        for n in range(1, m + 1):
            self.assert_matches_reference(mat, NmPattern(n, m))

    @pytest.mark.parametrize("m", [3, 64])
    def test_ranks_and_extraction_end_in_a_short_chunk(self, m):
        # the kernels take 64 blocks at a time, across rows: 2 rows of 35
        # blocks, the last one partial, end in a chunk of 6
        rng = np.random.default_rng(m)
        mat = rng.integers(-3, 4, size=(2, 35 * m - m // 2)).astype(np.float64)
        assert tasd._kernels.block_ranks(mat, m).tolist() == py_ranks(mat, m).tolist()
        for n in sorted({1, (m + 1) // 2, m}):
            self.assert_matches_reference(mat, NmPattern(n, m))

    @given(matrices(max_side=10), small_patterns)
    @settings(max_examples=80, deadline=None)
    def test_extracted_set_beats_every_subset(self, mat, pattern):
        term, _ = extract_term(mat, pattern)
        dense = decode(term)
        for r in range(mat.shape[0]):
            for start in range(0, mat.shape[1], pattern.m):
                block = np.asarray(mat)[r, start : start + pattern.m]
                kept = dense[r, start : start + pattern.m]
                kept_total = float(np.abs(kept).sum())
                best = max_subset_magnitude(block, nnz(kept))
                assert kept_total == pytest.approx(best, abs=1e-12)
                assert nnz(kept) == min(pattern.n, nnz(block))


# ---------------------------------------------------------------------------
# series decomposition


class TestBlockRanks:
    @pytest.mark.parametrize("m", [*range(1, 17), 63, 64])
    @given(mat=tied_matrices())
    @settings(max_examples=25, deadline=None)
    def test_matches_pure_python_reference(self, m, mat):
        # partial blocks, ties and both signed zeros, at every block width
        # up to 16 and at the widest two
        ranks = tasd.decomp.block_ranks(mat, m)
        assert ranks.dtype == np.uint8
        assert ranks.tolist() == py_ranks(mat, m).tolist()


class TestKernelBlockRanks:
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 64])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "read-only"])
    def test_kernel_ranks_any_layout_and_leaves_it_alone(self, m, layout):
        # 2 x 7 or 2 x 14 before slicing: every m but 1 ends in a partial block
        mat = np.array([TIED_ROW[:7], TIED_ROW[4:]])
        if layout == "strided":
            mat = np.repeat(mat, 2, axis=1)[:, ::2]
        elif layout == "read-only":
            mat = np.frombuffer(mat.tobytes()).reshape(mat.shape)
        before = mat.tobytes()
        ranks = tasd._kernels.block_ranks(mat, m)
        assert ranks.dtype == np.uint8
        assert ranks.shape == mat.shape
        assert ranks.tobytes() == py_ranks(mat, m).astype(ranks.dtype).tobytes()
        assert mat.tobytes() == before

    @pytest.mark.parametrize("m", [-1, 0, 65])
    def test_kernel_refuses_blocks_outside_one_to_64(self, m):
        # -1 used to fail to allocate its scratch, 0 to divide by zero
        with pytest.raises(ValueError, match="cannot rank blocks"):
            tasd._kernels.block_ranks(np.ones((2, 7)), m)

    def test_true_ranks_as_one(self):
        mat = np.array([TIED_ROW[:7], TIED_ROW[4:]])
        ranks = tasd._kernels.block_ranks(mat, True)
        assert ranks.dtype == np.uint8
        assert ranks.tobytes() == tasd._kernels.block_ranks(mat, 1).tobytes()


class TestDecompose:
    def test_mixed_blocks_lossless_series(self, example_2x8):
        d = decompose(example_2x8, "2:4+2:8")
        assert not d.residual.any()
        total = decode(d.terms[0]) + decode(d.terms[1])
        assert np.array_equal(total, example_2x8)

    def test_first_term_coverage(self, example_2x8):
        d = decompose(example_2x8, "2:4")
        metrics = drop_metrics(d)
        # 7 of 10 non-zeros kept, 21 of 25 magnitude kept
        assert metrics.dropped_nnz_fraction == pytest.approx(0.3)
        assert metrics.dropped_magnitude_fraction == pytest.approx(0.16)
        assert metrics.retained_magnitude_fraction == pytest.approx(0.84)

    def test_zero_matrix_everything_zero(self):
        d = decompose(np.zeros((4, 8)), "4:8+1:8")
        assert all(t.nnz == 0 for t in d.terms)
        assert not d.residual.any()
        metrics = drop_metrics(d)
        assert metrics.dropped_nnz_fraction == 0.0
        assert metrics.dropped_magnitude_fraction == 0.0
        assert metrics.mse == 0.0

    def test_full_capacity_always_lossless(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(8, 8))
        d = decompose(mat, "4:8+3:8+1:8")
        assert not d.residual.any()

    def test_terms_are_pattern_compliant(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(6, 13))
        d = decompose(mat, "2:4+1:4")
        for term, pattern in zip(d.terms, d.config.terms):
            assert (block_nnz(decode(term), pattern.m) <= pattern.n).all()

    @given(matrices(), st.sampled_from(pool_configs()))
    @settings(max_examples=120, deadline=None)
    def test_exact_additivity(self, mat, config):
        mat = mat + 0.0  # normalize -0.0 so bitwise comparison is fair
        d = decompose(mat, config)
        total = np.zeros_like(mat)
        for term in d.terms:
            total += decode(term)
        total += d.residual
        assert total.tobytes() == mat.tobytes()

    @given(matrices(), st.sampled_from(lossless_configs()))
    @settings(max_examples=60, deadline=None)
    def test_capacity_sum_m_is_lossless(self, mat, config):
        assert not decompose(mat, config).residual.any()

    @given(matrices(), st.sampled_from(pool_configs()), small_patterns)
    @settings(max_examples=60, deadline=None)
    def test_appending_a_term_shrinks_residual(self, mat, config, extra):
        terms = config.terms + (extra,)
        if len({t.m for t in terms}) == 1:
            assume(sum(t.n for t in terms) <= terms[0].m)
        base = decompose(mat, config)
        extended = decompose(mat, TasdConfig(terms))
        assert np.abs(extended.residual).sum() <= np.abs(base.residual).sum()
        assert nnz(extended.residual) <= nnz(base.residual)

    @given(matrices(max_side=10))
    @settings(max_examples=40, deadline=None)
    def test_same_m_order_does_not_change_approximation(self, mat):
        fwd = approximate(mat, "4:8+2:8")
        rev = approximate(mat, "2:8+4:8")
        assert np.array_equal(fwd, rev)

    def test_supports_are_disjoint(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(5, 17))
        d = decompose(mat, "2:8+1:8")
        masks = [decode(t) != 0.0 for t in d.terms] + [d.residual != 0.0]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                assert not (masks[i] & masks[j]).any()


class TestApproximate:
    def test_single_term(self):
        out = approximate(np.array([[4.0, 3.0, 2.0, 1.0]]), "2:4")
        assert out.tolist() == [[4.0, 3.0, 0.0, 0.0]]

    def test_compliant_matrix_unchanged(self):
        mat = np.array([[5.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        assert np.array_equal(approximate(mat, "2:4"), mat)

    def test_repeated_pattern_recovers_everything(self):
        out = approximate(np.array([[4.0, 3.0, 2.0, 1.0]]), "2:4+2:4")
        assert out.tolist() == [[4.0, 3.0, 2.0, 1.0]]

    @given(matrices(), st.sampled_from(pool_configs()))
    @settings(max_examples=120, deadline=None)
    def test_equals_sum_of_decoded_terms(self, mat, config):
        # bit for bit, signed zeros and partial blocks included
        total = np.zeros(mat.shape)
        for term in decompose(mat, config).terms:
            total += decode(term)
        assert approximate(mat, config).tobytes() == total.tobytes()

    def test_equals_source_minus_residual(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(7, 19))
        d = decompose(mat, "2:4+2:8")
        assert np.array_equal(approximate(mat, "2:4+2:8"), mat - d.residual)

    def test_same_m_takes_one_rank_pass_and_no_extraction(self, monkeypatch):
        passes = record_calls(monkeypatch, tasd.decomp, "block_ranks")
        extractions = record_calls(monkeypatch, tasd._kernels, "extract_term_blocks")
        approximate(random_matrix(8, 24, 0.7, "normal", seed=6), "4:8+2:8")
        assert [m for _, m in passes] == [8]
        assert extractions == []


class TestRankedDecompose:
    @given(tied_matrices(), mixed_lists)
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equals_each_decompose(self, mat, configs):
        ranked = RankedMatrix(mat)
        for config in configs:
            shared = ranked.decompose(config)
            alone = decompose(mat, config)
            assert shared.config == alone.config
            assert len(shared.terms) == len(alone.terms)
            for a, b in zip(shared.terms, alone.terms):
                assert a.pattern == b.pattern
                assert a.values.tobytes() == b.values.tobytes()
                assert a.indices.tobytes() == b.indices.tobytes()
            assert shared.residual.tobytes() == alone.residual.tobytes()

    def test_shared_prefixes_are_extracted_once(self, monkeypatch):
        calls = record_calls(monkeypatch, tasd._kernels, "extract_term_blocks")
        ranked = RankedMatrix(random_matrix(8, 40, 0.7, "normal", seed=4))
        for config in ["2:4+2:8+2:16", "2:4", "2:4+2:8", "2:4+1:8", "4:8"]:
            ranked.decompose(config)
        assert patterns(calls) == ["2:4", "2:8", "2:16", "1:8", "4:8"]

    def test_threads_sharing_an_instance_get_the_same_bytes(self):
        # the prefix cache is not locked: four workers on two cores, with
        # threads switching every microsecond, decompose chains that share
        # uncached prefixes
        mat = random_matrix(16, 40, 0.8, "normal", seed=7)
        configs = [TasdConfig.parse(c) for c in CHAINS * 8]
        alone = [decompose(mat, c).residual.tobytes() for c in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ranked = RankedMatrix(mat)
                shared = map_ordered(lambda c: ranked.decompose(c).residual, configs, 4)
                assert [r.tobytes() for r in shared] == alone
        finally:
            sys.setswitchinterval(interval)


class TestRankedMatrix:
    @given(tied_matrices(), mixed_lists)
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equals_decompose(self, mat, configs):
        ranked = RankedMatrix(mat)
        for config in configs:
            assert ranked.residual(config).tobytes() == decompose(mat, config).residual.tobytes()
            # the definition ``approximate`` had before it became this method
            expected = freeze(as_matrix(mat) - decompose(mat, config).residual)
            assert ranked.approximation(config).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["2:4", "4:8+2:8", "2:4+2:8"])
    def test_takes_any_config_spec(self, text):
        # residual("2:4") used to raise AttributeError
        mat = random_matrix(8, 24, 0.7, "normal", seed=7)
        cfg = TasdConfig.parse(text)
        specs = [text, cfg, *([cfg.terms[0]] if len(cfg.terms) == 1 else [])]
        residual = decompose(mat, cfg).residual
        for spec in specs:
            ranked = RankedMatrix(mat)
            assert ranked.residual(spec).tobytes() == residual.tobytes()
            assert ranked.approximation(spec).tobytes() == approximate(mat, spec).tobytes()
            assert approximate(mat, spec).tobytes() == approximate(mat, cfg).tobytes()

    @pytest.mark.parametrize("m", [0, -1, 2.5, True, "4"])
    def test_block_size_must_be_a_positive_integer(self, m):
        # 0 used to divide by zero, -1 to fail a reshape, 2.5 and True a type check
        with pytest.raises(ValueError, match="m must be a positive integer"):
            RankedMatrix(np.ones((2, 8))).ranks(m)

    def test_signed_zero_stays_in_the_residual(self):
        mat = np.array([[-0.0, 3.0, 0.0, -2.0, 1.0]])
        residual = RankedMatrix(mat).residual(TasdConfig.parse("3:4"))
        assert residual.tobytes() == np.array([[-0.0, 0.0, 0.0, 0.0, 0.0]]).tobytes()

    def test_one_rank_pass_per_block_size_and_no_extraction(self, monkeypatch):
        passes = record_calls(monkeypatch, tasd.decomp, "block_ranks")
        extractions = record_calls(monkeypatch, tasd._kernels, "extract_term_blocks")
        ranked = RankedMatrix(random_matrix(8, 24, 0.7, "normal", seed=6))
        for text in ["1:8", "4:8+2:8", "2:4", "8:8", "3:4+1:4", "2:8"]:
            ranked.residual(TasdConfig.parse(text))
        assert [m for _, m in passes] == [8, 4]
        assert extractions == []

    def test_mixed_m_residuals_share_prefixes(self, monkeypatch):
        passes = record_calls(monkeypatch, tasd.decomp, "block_ranks")
        extractions = record_calls(monkeypatch, tasd._kernels, "extract_term_blocks")
        mat = random_matrix(8, 40, 0.7, "normal", seed=5)
        ranked = RankedMatrix(mat)
        configs = ["2:4+2:8", "2:4+2:8+2:16", "2:4+1:8", "2:4+2:8"]
        residuals = [ranked.residual(TasdConfig.parse(text)) for text in configs]
        assert patterns(extractions) == ["2:4", "2:8", "2:16", "1:8"]
        assert passes == []
        for text, residual in zip(configs, residuals):
            assert residual.tobytes() == decompose(mat, text).residual.tobytes()


class TestDropMetrics:
    def test_half_dropped(self):
        metrics = drop_metrics(decompose(np.array([[4.0, 3.0, 2.0, 1.0]]), "2:4"))
        assert metrics.dropped_nnz_fraction == 0.5
        assert metrics.dropped_magnitude_fraction == pytest.approx(0.3)
        assert metrics.mse == pytest.approx((4.0 + 1.0) / 4.0)
        assert metrics.retained_magnitude_fraction == pytest.approx(0.7)

    def test_full_density_single_term_drop_is_exact(self):
        mat = random_matrix(64, 64, 1.0, "uniform", seed=9)
        metrics = drop_metrics(decompose(mat, "2:4"))
        assert metrics.dropped_nnz_fraction == 0.5

    def test_lossless_metrics_are_zero(self, example_2x8):
        metrics = drop_metrics(decompose(example_2x8, "2:4+2:8"))
        assert metrics.dropped_nnz_fraction == 0.0
        assert metrics.dropped_magnitude_fraction == 0.0
        assert metrics.mse == 0.0
        assert metrics.retained_magnitude_fraction == 1.0


class TestNonFiniteInput:
    @given(matrices(), st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=40, deadline=None)
    def test_rejected_at_every_entry_point(self, mat, data, bad):
        # a NaN weight used to report a retained magnitude fraction of 1.0
        mat = mat.copy()
        mat.flat[data.draw(st.integers(0, mat.size - 1))] = bad
        calls = (
            lambda: decompose(mat, "2:4"),
            lambda: extract_term(mat, NmPattern(2, 4)),
            lambda: approximate(mat, "2:4+1:8"),
            lambda: encode(mat, NmPattern(2, 4)),
            lambda: sparsity(mat),
        )
        for call in calls:
            with pytest.raises(NonFiniteEntry):
                call()


# ---------------------------------------------------------------------------
# synthetic matrices


class TestRandomMatrix:
    def test_deterministic_per_seed(self):
        a = random_matrix(32, 32, 0.5, "normal", seed=42)
        b = random_matrix(32, 32, 0.5, "normal", seed=42)
        assert a.tobytes() == b.tobytes()
        c = random_matrix(32, 32, 0.5, "normal", seed=43)
        assert a.tobytes() != c.tobytes()

    def test_tuple_seeds_split_streams(self):
        a = random_matrix(16, 16, 0.5, "uniform", seed=(0, 1))
        b = random_matrix(16, 16, 0.5, "uniform", seed=(1, 0))
        assert a.tobytes() != b.tobytes()

    def test_density_zero_and_one(self):
        assert not random_matrix(8, 8, 0.0, "uniform", seed=1).any()
        assert sparsity(random_matrix(64, 64, 1.0, "uniform", seed=1)) == 0.0

    def test_density_is_respected_statistically(self):
        mat = random_matrix(256, 256, 0.3, "uniform", seed=5)
        assert 1.0 - sparsity(mat) == pytest.approx(0.3, abs=0.02)

    def test_normal_spread(self):
        mat = random_matrix(256, 256, 1.0, "normal", seed=5)
        assert np.std(mat) == pytest.approx(1.0 / 3.0, abs=0.01)
        assert np.mean(mat) == pytest.approx(0.0, abs=0.01)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_matrix(4, 4, 1.5, "uniform", seed=0)
        with pytest.raises(ValueError):
            random_matrix(4, 4, 0.5, "cauchy", seed=0)

    @pytest.mark.parametrize("dims", [(0, 4), (4, 0), (-1, 4), (2.5, 4), (4, True)])
    def test_rejects_non_positive_or_non_integer_dims(self, dims):
        # (0, 4) gave an empty matrix, -1 numpy's ValueError, 2.5 a TypeError
        with pytest.raises(DimensionMismatch, match="dims must be positive"):
            random_matrix(*dims, 0.5, "uniform", seed=0)


class TestSweepSynthetic:
    GRID = dict(
        dims=(32, 32),
        densities=(0.25, 0.75),
        distributions=("uniform", "normal"),
        configs=("2:4", "2:4+2:8"),
        seeds=range(3),
    )

    def test_row_count_and_order(self):
        table = sweep_synthetic(**self.GRID)
        assert len(table) == 2 * 2 * 2 * 3
        keys = [
            (r["density"], r["distribution"], r["config"], r["seed"]) for r in table
        ]
        assert keys == sorted(
            keys,
            key=lambda k: (
                self.GRID["densities"].index(k[0]),
                self.GRID["distributions"].index(k[1]),
                ("2:4", "2:4+2:8").index(k[2]),
                k[3],
            ),
        )

    def test_deterministic_and_worker_independent(self, monkeypatch):
        monkeypatch.setenv("TASD_THREADS", "1")
        one = sweep_synthetic(**self.GRID)
        monkeypatch.setenv("TASD_THREADS", "4")
        four = sweep_synthetic(**self.GRID)
        assert one == four
        assert render_sweep_csv(one) == render_sweep_csv(four)

    def test_master_seed_shifts_the_stream(self):
        base = sweep_synthetic(**self.GRID)
        other = sweep_synthetic(**self.GRID, master_seed=123)
        assert base != other

    def test_full_density_single_term_cells_exact(self):
        table = sweep_synthetic(
            (32, 32), (1.0,), ("uniform",), ("2:4",), seeds=range(2)
        )
        assert all(r["dropped_nnz"] == 0.5 for r in table)

    def test_numpy_grid_renders_as_numbers(self):
        # repr of a numpy density is np.float64(0.25), not a number
        grid = ((8, 8), ["uniform"], ["2:4"])
        as_array = sweep_synthetic(grid[0], np.array([0.25, 0.5]), *grid[1:], seeds=[0])
        as_list = sweep_synthetic(grid[0], [0.25, 0.5], *grid[1:], seeds=[0])
        assert render_sweep_csv(as_array) == render_sweep_csv(as_list)

    def test_appendix_chain_extracts_three_terms_per_draw(self, monkeypatch):
        monkeypatch.setenv("TASD_THREADS", "1")
        calls = record_calls(monkeypatch, tasd._kernels, "extract_term_blocks")
        sweep_synthetic((16, 40), (0.2, 0.9), ("uniform", "normal"), APPENDIX_CONFIGS,
                        seeds=range(2))
        assert patterns(calls) == ["2:4", "2:8", "2:16"] * (2 * 2 * 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_golden_csv_bytes(self, monkeypatch, workers):
        # recorded before configs shared their series prefixes; 40 columns
        # leave a partial block for 2:8 and 2:16
        monkeypatch.setenv("TASD_THREADS", str(workers))
        table = sweep_synthetic((24, 40), (0.1, 0.5, 1.0), ("uniform", "normal"),
                                APPENDIX_CONFIGS, seeds=range(2), master_seed=3)
        digest = hashlib.sha256(render_sweep_csv(table).encode()).hexdigest()
        assert digest == "e8b1042c5305110776b6c5d01b980839e549ee161e5f728cc3a1da1101c4fb9a"

    def test_csv_shape(self):
        table = sweep_synthetic(
            (16, 16), (0.5,), ("uniform",), ("2:4",), seeds=range(2)
        )
        text = render_sweep_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(table)
        first = lines[1].split(",")
        assert first[0] == "0.5"
        assert first[1] == "uniform"
        assert first[2] == "2:4"
        # floats render in shortest round-trip form
        assert float(first[4]) == table[0]["dropped_nnz"]
