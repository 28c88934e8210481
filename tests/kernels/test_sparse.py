"""Tests for the sparse matrix formats and generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.kernels.sparse import SparseCSC, SparseCSR, random_sparse_spd


@pytest.fixture(scope="module")
def small_spd():
    return random_sparse_spd(200, 3000, seed=4)


class TestGenerator:
    def test_shape_and_density(self, small_spd):
        assert small_spd.n == 200
        assert 200 <= small_spd.nnz <= 3600

    def test_symmetric(self, small_spd):
        dense = np.zeros((200, 200))
        for i in range(200):
            lo, hi = small_spd.row_start[i], small_spd.row_start[i + 1]
            dense[i, small_spd.col_index[lo:hi]] = small_spd.values[lo:hi]
        assert np.allclose(dense, dense.T)

    def test_positive_definite_by_dominance(self, small_spd):
        """Strict diagonal dominance with positive diagonal => SPD."""
        for i in range(200):
            lo, hi = small_spd.row_start[i], small_spd.row_start[i + 1]
            cols = small_spd.col_index[lo:hi]
            vals = small_spd.values[lo:hi]
            diag = vals[cols == i]
            assert diag.size == 1 and diag[0] > 0
            off = np.abs(vals[cols != i]).sum()
            assert diag[0] > off

    def test_validation(self):
        with pytest.raises(ConfigError):
            random_sparse_spd(1, 10)
        with pytest.raises(ConfigError):
            random_sparse_spd(10, 5)
        with pytest.raises(ConfigError):
            random_sparse_spd(10, 100, format="coo")

    def test_csc_format_option(self):
        m = random_sparse_spd(50, 400, seed=1, format="csc")
        assert isinstance(m, SparseCSC)


class TestMatvec:
    def test_csr_matches_dense(self, small_spd):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        dense = np.zeros((200, 200))
        for i in range(200):
            lo, hi = small_spd.row_start[i], small_spd.row_start[i + 1]
            dense[i, small_spd.col_index[lo:hi]] = small_spd.values[lo:hi]
        assert np.allclose(small_spd.matvec(x), dense @ x)

    def test_csc_and_csr_agree(self, small_spd):
        """The paper's format transformation must not change results."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        csc = small_spd.to_csc()
        assert np.allclose(csc.matvec(x), small_spd.matvec(x))

    def test_roundtrip_csr_csc_csr(self, small_spd):
        back = small_spd.to_csc().to_csr()
        rng = np.random.default_rng(2)
        x = rng.normal(size=200)
        assert np.allclose(back.matvec(x), small_spd.matvec(x))

    def test_wrong_vector_length(self, small_spd):
        with pytest.raises(ConfigError):
            small_spd.matvec(np.zeros(3))

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_matvec_property(self, n):
        m = random_sparse_spd(n, 4 * n, seed=n)
        x = np.ones(n)
        y = m.matvec(x)
        # diagonal dominance with A·1: each entry is positive
        assert np.all(y > 0)


class TestRowPartitioning:
    def test_blocks_cover_all_rows(self, small_spd):
        for p in (1, 3, 7, 32):
            blocks = [small_spd.row_block(i, p) for i in range(p)]
            assert blocks[0][0] == 0
            assert blocks[-1][1] == 200
            for (a, b), (c, d) in zip(blocks, blocks[1:]):
                assert b == c

    def test_balanced(self, small_spd):
        blocks = [small_spd.row_block(i, 7) for i in range(7)]
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_pid_validation(self, small_spd):
        with pytest.raises(ConfigError):
            small_spd.row_block(5, 4)


class TestFormatValidation:
    def test_csr_structure_checked(self):
        with pytest.raises(ConfigError):
            SparseCSR(
                n=3,
                row_start=np.array([0, 1, 2]),  # wrong length
                col_index=np.array([0, 1]),
                values=np.array([1.0, 2.0]),
            )
        with pytest.raises(ConfigError):
            SparseCSR(
                n=2,
                row_start=np.array([0, 1, 5]),  # doesn't end at nnz
                col_index=np.array([0, 1]),
                values=np.array([1.0, 2.0]),
            )

    def test_csc_structure_checked(self):
        with pytest.raises(ConfigError):
            SparseCSC(
                n=2,
                col_start=np.array([0, 1, 5]),  # doesn't end at nnz
                row_index=np.array([0, 1]),
                values=np.array([1.0, 2.0]),
            )
        with pytest.raises(ConfigError):
            SparseCSC(
                n=2,
                col_start=np.array([1, 1, 2]),  # doesn't start at 0
                row_index=np.array([0, 1]),
                values=np.array([1.0, 2.0]),
            )


def _reference_spd(n: int, nnz_target: int, seed: int) -> SparseCSR:
    """``random_sparse_spd`` as written with a stable ``argsort`` and
    ``np.add.at``: the oracle the bincount rewrite must match bitwise."""
    rng = np.random.default_rng(seed)
    n_off = max(0, (nnz_target - n) // 2)
    rows = rng.integers(0, n, size=n_off)
    cols = rng.integers(0, n, size=n_off)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    all_rows = np.concatenate([rows, cols, np.arange(n)])
    all_cols = np.concatenate([cols, rows, np.arange(n)])
    t = rng.uniform(-1.0, 1.0, size=rows.size)
    vals = np.concatenate([t, t, np.zeros(n)])
    keys = all_rows.astype(np.int64) * n + all_cols
    order = np.argsort(keys, kind="stable")
    keys_s, vals_s = keys[order], vals[order]
    boundary = np.empty(keys_s.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys_s[1:], keys_s[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    uniq_keys = keys_s[starts]
    uniq_vals = np.add.reduceat(vals_s, starts)
    u_rows = (uniq_keys // n).astype(np.int64)
    u_cols = (uniq_keys % n).astype(np.int64)
    row_abs = np.zeros(n)
    np.add.at(row_abs, u_rows, np.abs(uniq_vals))
    diag_mask = u_rows == u_cols
    uniq_vals[diag_mask] = row_abs[u_rows[diag_mask]] + 1.0
    row_start = np.zeros(n + 1, dtype=np.int64)
    np.add.at(row_start[1:], u_rows, 1)
    np.cumsum(row_start, out=row_start)
    return SparseCSR(n=n, row_start=row_start, col_index=u_cols, values=uniq_vals)


def _reference_transpose(n, start, index, values):
    """``to_csc`` / ``to_csr`` as written with a stable ``argsort`` and
    ``np.add.at``: ``(start, index, values)`` of the other format."""
    order = np.argsort(index, kind="stable")
    outer = np.repeat(np.arange(n), np.diff(start))
    new_start = np.zeros(n + 1, dtype=np.int64)
    np.add.at(new_start[1:], index[order], 1)
    np.cumsum(new_start, out=new_start)
    return new_start, outer[order], values[order]


def _reference_csc_matvec(csc: SparseCSC, x: np.ndarray) -> np.ndarray:
    y = np.zeros(csc.n)
    np.add.at(y, csc.row_index, csc.values * np.repeat(x, np.diff(csc.col_start)))
    return y


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, nnz, seed", [(2, 2, 0), (7, 30, 3), (200, 3000, 4),
                                          (1400, 203000, 12), (500, 500, 9)])
class TestMatchesArgsortReference:
    """The stable-order and bincount rewrites return the very bytes of
    the argsort and ``np.add.at`` versions."""

    def test_generator(self, n, nnz, seed):
        got, want = random_sparse_spd(n, nnz, seed=seed), _reference_spd(n, nnz, seed)
        for field in ("row_start", "col_index", "values"):
            assert _same_bytes(getattr(got, field), getattr(want, field)), field

    def test_to_csc_and_to_csr(self, n, nnz, seed):
        csr = _reference_spd(n, nnz, seed)
        csc = csr.to_csc()
        want = _reference_transpose(n, csr.row_start, csr.col_index, csr.values)
        for got_field, want_field in zip((csc.col_start, csc.row_index, csc.values), want):
            assert _same_bytes(got_field, want_field)
        back = csc.to_csr()
        want = _reference_transpose(n, csc.col_start, csc.row_index, csc.values)
        for got_field, want_field in zip((back.row_start, back.col_index, back.values), want):
            assert _same_bytes(got_field, want_field)

    def test_csc_matvec(self, n, nnz, seed):
        csc = random_sparse_spd(n, nnz, seed=seed, format="csc")
        x = np.random.default_rng(seed).normal(size=n)
        assert _same_bytes(csc.matvec(x), _reference_csc_matvec(csc, x))
