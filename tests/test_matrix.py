"""Core matrix types, pattern algebra, packed format, and file IO."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tasd import (
    BadHeader,
    BadMagic,
    CorruptIndices,
    DimensionMismatch,
    LayerSpec,
    NmCompressed,
    NmPattern,
    NonFiniteEntry,
    NotCompliant,
    RankedMatrix,
    TasdConfig,
    TasdError,
    config_of,
    decode,
    encode,
    extract_term,
    load_matrix,
    new_dense,
    random_matrix,
    save_matrix,
    sparsity,
)
from tasd.approxmm import ProductError
from tasd.matrix import MAGIC, PatternMenu, block_nnz, held

finite_entries = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
)


def small_matrices(max_side=12):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: hnp.arrays(np.float64, (r, c), elements=finite_entries)
        )
    )


# ---------------------------------------------------------------------------
# construction and sparsity


def _ranked(arr):
    ranked = RankedMatrix(arr)
    ranked.ranks(4)  # cached from the array as given
    return lambda: ranked.residual("2:4")


def _scorer(a, b):
    scorer = ProductError(a, [b])
    return lambda: scorer.errors("2:4")


def _packed(values, indices):
    term = NmCompressed(NmPattern(2, 4), 1, 4, values, indices)
    return lambda: decode(term)


def _weight(weight):
    spec = LayerSpec("L0", 1, 2, 4, weight)
    return lambda: spec.weight


def _dense(data):
    mat = new_dense(1, 4, data)
    return lambda: mat


# each builds an object from the caller's writable arrays and returns what
# the object gives back
OWNERS = {
    "RankedMatrix": (_ranked, [[[4.0, 3.0, 2.0, 1.0]]]),
    "ProductError": (_scorer, [[[4.0, 3.0, 2.0, 1.0]], np.ones((4, 2))]),
    "LayerSpec": (_weight, [[[4.0, 3.0, 2.0, 1.0]]]),
    "NmCompressed": (_packed, [[[[5.0, 3.0]]], np.array([[[0, 2]]])]),
    "new_dense": (_dense, [[4.0, 3.0, 2.0, 1.0]]),
}


class TestHeld:
    """An object keeps each array it was given read-only and its own: a
    later write by the caller changes none of its results, and the
    caller's array stays writable."""

    @pytest.mark.parametrize("owner", OWNERS)
    def test_caller_writes_change_nothing(self, owner):
        build, data = OWNERS[owner]
        arrays = [np.array(d) for d in data]
        results = build(*arrays)
        before = np.array(results())
        for arr in arrays:
            arr += 1
            assert arr.flags.writeable
        assert np.array_equal(np.array(results()), before)

    @pytest.mark.parametrize("owner", OWNERS)
    def test_writes_under_a_read_only_view_change_nothing(self, owner):
        # a read-only view says nothing of the writable array under it
        build, data = OWNERS[owner]
        arrays = [np.array(d) for d in data]
        views = [arr.view() for arr in arrays]
        for view in views:
            view.setflags(write=False)
        results = build(*views)
        before = np.array(results())
        for arr in arrays:
            arr += 1
        assert np.array_equal(np.array(results()), before)

    def test_a_view_of_a_buffer_that_is_not_an_array_is_copied(self):
        buf = bytearray(np.array([4.0, 3.0, 2.0, 1.0]).tobytes())
        ranked = RankedMatrix(np.frombuffer(memoryview(buf).toreadonly()).reshape(1, 4))
        buf[:8] = bytes(8)
        assert ranked.mat.tolist() == [[4.0, 3.0, 2.0, 1.0]]

    def test_read_only_input_is_kept_as_is(self):
        r = new_dense(4, 2, np.arange(8.0))
        assert RankedMatrix(r).mat is r
        assert ProductError(np.ones((2, 4)), [r]).b is r

    @pytest.mark.parametrize("cols", [8, 10])  # residual a view of whole blocks, or a copy
    def test_package_results_are_kept_as_is(self, tmp_path, cols):
        # what the package returns is read-only down to its last base, so
        # an object keeps it without a copy
        mat = random_matrix(6, cols, 0.5, "uniform", seed=0)
        term, residual = extract_term(mat, NmPattern(2, 4))
        save_matrix(mat, tmp_path / "m.bin")
        (tmp_path / "m.csv").write_text("1,0,2\n0,3,4\n")
        for arr in (mat, residual, term.values, term.indices,
                    load_matrix(tmp_path / "m.bin"), load_matrix(tmp_path / "m.csv")):
            assert held(arr) is arr


class TestNewDense:
    def test_accepts_flat_data(self):
        mat = new_dense(1, 4, [1, 0, 2, 0])
        assert mat.shape == (1, 4)
        assert mat.dtype == np.float64
        assert mat.tolist() == [[1.0, 0.0, 2.0, 0.0]]

    def test_result_is_read_only(self):
        mat = new_dense(2, 2, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            mat[0, 0] = 9.0

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            new_dense(2, 2, [1, 2, 3])

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteEntry):
            new_dense(1, 1, [float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(NonFiniteEntry):
            new_dense(1, 2, [1.0, float("inf")])

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(DimensionMismatch):
            new_dense(0, 4, [])

    def test_rejects_data_of_another_shape(self):
        # 3-D data of the right size used to become a 2x2 matrix
        for data in (np.ones((1, 2, 2)), np.ones((4, 1))):
            with pytest.raises(DimensionMismatch, match="does not fill a 2x2"):
                new_dense(2, 2, data)

    @pytest.mark.parametrize("dims", [(2.0, 2), (2, True)])
    def test_rejects_non_integer_dims(self, dims):
        # these used to raise numpy's TypeError
        with pytest.raises(DimensionMismatch, match="positive integers"):
            new_dense(*dims, [1.0, 2.0, 3.0, 4.0])


class TestSparsity:
    def test_mixed_blocks(self, example_2x8):
        assert sparsity(example_2x8) == 0.375

    def test_all_zero(self):
        assert sparsity(np.zeros((4, 4))) == 1.0

    def test_all_ones(self):
        assert sparsity(np.ones((4, 4))) == 0.0

    @given(small_matrices(), st.randoms(use_true_random=False))
    def test_invariant_under_permutation(self, mat, rng):
        flat = list(mat.ravel())
        rng.shuffle(flat)
        shuffled = np.array(flat).reshape(mat.shape)
        assert sparsity(shuffled) == sparsity(mat)


# ---------------------------------------------------------------------------
# patterns and configs


class TestNmPattern:
    def test_parse_and_str_round_trip(self):
        p = NmPattern.parse("2:4")
        assert (p.n, p.m) == (2, 4)
        assert str(p) == "2:4"

    def test_density_and_dense_flag(self):
        assert NmPattern(4, 4).is_dense
        assert not NmPattern(3, 4).is_dense

    @pytest.mark.parametrize("n,m", [(0, 4), (5, 4), (-1, 2)])
    def test_rejects_out_of_range(self, n, m):
        with pytest.raises(ValueError):
            NmPattern(n, m)

    def test_rejects_blocks_wider_than_64(self):
        # the compiled kernels hold one chunk of blocks at most 64 wide
        assert NmPattern(1, 64).m == 64
        for build in (lambda: NmPattern(1, 65), lambda: TasdConfig.parse("1:65"),
                      lambda: PatternMenu(65, {1})):
            with pytest.raises(ValueError, match="64"):
                build()

    @pytest.mark.parametrize("n,m", [(True, 4), (1, True), (2.0, 4), ("2", 4)])
    def test_rejects_non_integers(self, n, m):
        with pytest.raises(ValueError):
            NmPattern(n, m)

    @pytest.mark.parametrize("text", ["", "4", "4:", ":8", "a:b", "2:4+1:4"])
    def test_rejects_malformed_text(self, text):
        with pytest.raises(ValueError):
            NmPattern.parse(text)


class TestTasdConfig:
    def test_parse_series(self):
        cfg = TasdConfig.parse("4:8+1:8")
        assert [str(t) for t in cfg.terms] == ["4:8", "1:8"]
        assert cfg.canonical() == "4:8+1:8"

    def test_coverage_and_approximated_sparsity(self):
        assert TasdConfig.parse("4:8+1:8").coverage == 5 / 8
        assert TasdConfig.parse("1:4").approximated_sparsity == 0.75
        assert TasdConfig.parse("2:8").approximated_sparsity == 0.75

    def test_mixed_m_allowed_and_coverage_caps_at_one(self):
        cfg = TasdConfig.parse("2:4+2:8+2:16")
        assert not cfg.same_m
        assert cfg.coverage == 2 / 4 + 2 / 8 + 2 / 16
        capped = TasdConfig.parse("4:4+2:8+2:8")
        assert capped.coverage == 1.0
        assert capped.approximated_sparsity == 0.0

    def test_same_m_capacity_bound(self):
        with pytest.raises(ValueError):
            TasdConfig.parse("4:8+4:8+1:8")
        with pytest.raises(ValueError):
            TasdConfig.parse("3:4+2:4")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TasdConfig(())

    @pytest.mark.parametrize("text", ["", "   "])
    def test_parse_rejects_empty_text(self, text):
        with pytest.raises(ValueError, match="^empty config string$"):
            TasdConfig.parse(text)

    def test_parse_rejects_an_empty_term(self):
        with pytest.raises(ValueError, match="cannot parse pattern ''"):
            TasdConfig.parse("2:4+")

    def test_dense_flag(self):
        assert TasdConfig.parse("8:8").is_dense
        assert not TasdConfig.parse("4:8+4:8").is_dense

    def test_config_of_accepts_all_spellings(self):
        cfg = TasdConfig.parse("2:4")
        assert config_of(cfg) is cfg
        assert config_of(NmPattern(2, 4)) == cfg
        assert config_of("2:4") == cfg
        with pytest.raises(ValueError):
            config_of(24)


# ---------------------------------------------------------------------------
# compliance, encode, decode


class TestIsCompliant:
    """``encode`` is the compliance rule: a compliant matrix round-trips,
    anything else is ``NotCompliant``."""

    @staticmethod
    def round_trips(mat, pattern):
        return np.array_equal(decode(encode(mat, pattern)), mat)

    def test_within_budget(self):
        assert self.round_trips(np.array([[5.0, 0.0, 3.0, 0.0]]), NmPattern(2, 4))

    def test_over_budget(self):
        # one block over budget in the second row is enough
        mat = np.array([[1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0],
                        [0.0, 4.0, 0.0, 0.0, 5.0, 6.0, 0.0, 7.0]])
        with pytest.raises(NotCompliant):
            encode(mat, NmPattern(2, 4))

    def test_dense_pattern_always_passes(self):
        mat = np.arange(12.0).reshape(3, 4) + 1.0
        assert self.round_trips(mat, NmPattern(4, 4))

    def test_partial_trailing_block_checked(self):
        # cols=6 with m=4: trailing block is 2 wide and holds 2 non-zeros
        mat = np.array([[1.0, 0.0, 0.0, 0.0, 2.0, 3.0]])
        assert self.round_trips(mat, NmPattern(2, 4))
        with pytest.raises(NotCompliant):
            encode(mat, NmPattern(1, 4))


class TestBlockNnz:
    def test_counts_per_block_with_partial_tail(self):
        mat = np.array([[1.0, 0.0, -0.0, 2.0, 3.0, 0.0], [0.0] * 6])
        assert block_nnz(mat, 4).tolist() == [[2, 1], [0, 0]]

    @given(small_matrices(), st.integers(1, 9))
    @settings(max_examples=60)
    def test_matches_blockwise_count(self, mat, m):
        counts = block_nnz(mat, m)
        rows, cols = mat.shape
        expected = [
            [int(np.count_nonzero(mat[r, c : c + m])) for c in range(0, cols, m)]
            for r in range(rows)
        ]
        assert counts.tolist() == expected


class TestEncodeDecode:
    def test_encode_packs_values_and_indices(self):
        c = encode(np.array([[5.0, 0.0, 3.0, 0.0]]), NmPattern(2, 4))
        assert c.values.tolist() == [[[5.0, 3.0]]]
        assert c.indices.tolist() == [[[0, 2]]]
        assert c.nnz == 2

    def test_encode_zero_row_leaves_no_valid_slots(self):
        c = encode(np.zeros((1, 4)), NmPattern(2, 4))
        assert c.indices.tolist() == [[[-1, -1]]]
        assert c.nnz == 0

    def test_encode_rejects_noncompliant(self):
        with pytest.raises(NotCompliant):
            encode(np.array([[1.0, 1.0, 1.0, 0.0]]), NmPattern(2, 4))

    def test_decode_known_term(self):
        c = NmCompressed(NmPattern(2, 4), 1, 4, [[[5.0, 3.0]]], [[[0, 2]]])
        assert decode(c).tolist() == [[5.0, 0.0, 3.0, 0.0]]

    def test_decode_empty_blocks_gives_zero_matrix(self):
        c = NmCompressed(
            NmPattern(2, 4), 2, 4, np.zeros((2, 1, 2)), np.full((2, 1, 2), -1)
        )
        assert not decode(c).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        # a NaN value used to decode as NaN and report no magnitude dropped
        with pytest.raises(NonFiniteEntry):
            NmCompressed(NmPattern(2, 4), 1, 4, [[[5.0, bad]]], [[[0, 2]]])

    def test_rejects_value_in_unused_slot(self):
        # it used to decode as 0.0 while drop_metrics counted its magnitude
        with pytest.raises(CorruptIndices, match="unused slot"):
            NmCompressed(NmPattern(2, 4), 1, 4, [[[5.0, 3.0]]], [[[0, -1]]])
        c = NmCompressed(NmPattern(2, 4), 1, 4, [[[5.0, -0.0]]], [[[0, -1]]])
        assert c.nnz == 1

    def test_rejects_non_integer_dims(self):
        # rows=1.5 used to fail on the packed arrays' shape
        with pytest.raises(DimensionMismatch, match="positive integers"):
            NmCompressed(NmPattern(2, 4), 1.5, 4, [[[5.0, 3.0]]], [[[0, 2]]])

    def test_decode_rejects_nonincreasing_indices(self):
        c = NmCompressed(NmPattern(2, 4), 1, 4, [[[5.0, 3.0]]], [[[2, 1]]])
        with pytest.raises(CorruptIndices):
            decode(c)

    def test_decode_rejects_duplicate_indices(self):
        c = NmCompressed(NmPattern(2, 4), 1, 4, [[[5.0, 3.0]]], [[[1, 1]]])
        with pytest.raises(CorruptIndices):
            decode(c)

    def test_decode_rejects_out_of_range_index(self):
        c = NmCompressed(NmPattern(2, 4), 1, 4, [[[5.0, 3.0]]], [[[0, 4]]])
        with pytest.raises(CorruptIndices):
            decode(c)

    def test_decode_allows_padding_between_valid_slots(self):
        c = NmCompressed(NmPattern(3, 4), 1, 4, [[[5.0, 0.0, 3.0]]], [[[1, -1, 3]]])
        assert decode(c).tolist() == [[0.0, 5.0, 0.0, 3.0]]

    def test_decode_rejects_decrease_across_padding(self):
        c = NmCompressed(NmPattern(3, 4), 1, 4, [[[5.0, 0.0, 3.0]]], [[[3, -1, 1]]])
        with pytest.raises(CorruptIndices):
            decode(c)

    def test_decode_rejects_index_beyond_partial_block(self):
        # cols=6, m=4: block 1 is 2 wide, so intra-block index 3 is invalid
        c = NmCompressed(
            NmPattern(1, 4), 1, 6, [[[5.0], [3.0]]], [[[0], [3]]]
        )
        with pytest.raises(CorruptIndices):
            decode(c)

    @given(small_matrices())
    @settings(max_examples=60)
    def test_round_trip_on_clipped_matrices(self, mat):
        # clip to 2:4 compliance by keeping the two largest per block
        from tasd import extract_term

        term, _ = extract_term(mat, NmPattern(2, 4))
        dense = decode(term)
        assert (block_nnz(dense, 4) <= 2).all()
        again = encode(dense, NmPattern(2, 4))
        assert np.array_equal(decode(again), dense)
        assert np.array_equal(again.values, term.values)
        assert np.array_equal(again.indices, term.indices)


# ---------------------------------------------------------------------------
# file round trips


class TestFileIO:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_refused(self, tmp_path, bad):
        mat = np.ones((2, 4))
        mat[1, 2] = bad
        path = tmp_path / "m.tasd1"
        with pytest.raises(NonFiniteEntry):
            save_matrix(mat, path)
        assert not path.exists()
        with pytest.raises(NonFiniteEntry):
            encode(mat, NmPattern(4, 4))

    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        mat = new_dense(128, 128, rng.normal(size=(128, 128)))
        path = tmp_path / "m.tasd1"
        save_matrix(mat, path)
        again = load_matrix(path)
        assert again.tobytes() == mat.tobytes()

    def test_nonsquare_round_trip(self, tmp_path):
        mat = new_dense(3, 5, np.arange(15.0))
        path = tmp_path / "m.tasd1"
        save_matrix(mat, path)
        assert np.array_equal(load_matrix(path), mat)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.tasd1"
        path.write_bytes(MAGIC + b"\x01\x00")
        with pytest.raises(BadHeader):
            load_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "cut.tasd1"
        mat = new_dense(4, 4, np.ones(16))
        save_matrix(mat, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(BadHeader):
            load_matrix(path)

    def test_zero_dims_rejected(self, tmp_path):
        path = tmp_path / "zero.tasd1"
        path.write_bytes(MAGIC + (0).to_bytes(8, "little") + (4).to_bytes(8, "little"))
        with pytest.raises(BadHeader):
            load_matrix(path)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,2\n")
        assert load_matrix(path).tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(BadHeader):
            load_matrix(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\xff\xfe not a matrix \x00\x01")
        with pytest.raises(BadMagic):
            load_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(BadMagic):
            load_matrix(path)


# ---------------------------------------------------------------------------
# parser fuzz

VALID_BINARY = MAGIC + struct.pack("<QQ", 2, 3) + np.arange(-2.0, 4.0).astype("<f8").tobytes()
VALID_CSV = b"1.0,2.5,-3\n0,4e-3,5\n"

mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 100)),
    st.tuples(st.just("flip"), st.integers(0, 100), st.integers(1, 255)),
    st.tuples(st.just("dims"), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    st.tuples(
        st.just("insert"),
        st.integers(0, 100),
        st.sampled_from([b"nan", b"inf", b"-inf", b"1e999", b",", b"\n", b"\r\n", b",,"]),
    ),
)


def mutate(raw: bytes, op) -> bytes:
    kind, *args = op
    if kind == "truncate":
        return raw[: args[0] % (len(raw) + 1)]
    if kind == "flip":
        if not raw:
            return raw
        pos = args[0] % len(raw)
        return raw[:pos] + bytes([raw[pos] ^ args[1]]) + raw[pos + 1 :]
    if kind == "dims":
        # the header dims of the binary format, or 16 stray bytes in a CSV
        return raw[: len(MAGIC)] + struct.pack("<QQ", *args) + raw[len(MAGIC) + 16 :]
    pos = args[0] % (len(raw) + 1)
    return raw[:pos] + args[1] + raw[pos:]


class TestParserFuzz:
    """A damaged matrix file fails with a TasdError or loads as a finite
    2-D matrix; no other exception escapes ``load_matrix``."""

    @given(
        st.sampled_from([VALID_BINARY, VALID_CSV]), st.lists(mutations, min_size=1, max_size=4)
    )
    @settings(max_examples=300, deadline=None)
    def test_only_typed_errors(self, tmp_path_factory, raw, ops):
        for op in ops:
            raw = mutate(raw, op)
        path = tmp_path_factory.getbasetemp() / "fuzzed.matrix"
        path.write_bytes(raw)
        try:
            mat = load_matrix(path)
        except TasdError:
            return
        assert mat.ndim == 2 and np.isfinite(mat).all()
