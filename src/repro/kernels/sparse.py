"""Sparse matrix formats for the CG kernel.

The paper's CG story is a *data-structure* story: the NASA Ames code
stored A in "column start, row index" (CSC) form, whose matvec scatters
into ``y`` through an indirection — poor locality and, when
parallelized by columns, write conflicts on ``y`` needing per-access
synchronization.  The authors transformed it to "row start, column
index" (CSR) form, computing each ``y[i]`` in its entirety: better
locality, and row-partitioning parallelizes with *no* synchronization
on ``y``.

Both formats are implemented here with NumPy-vectorized matvecs plus
access-stream builders for the cost model, and a generator of random
sparse symmetric positive definite matrices of the paper's size
(n = 14000, ~2.03 M nonzeros).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.memory.streams import stable_order

__all__ = ["SparseCSC", "SparseCSR", "random_sparse_spd"]


@dataclass(frozen=True)
class SparseCSR:
    """Row start / column index format (the transformed layout)."""

    n: int
    row_start: np.ndarray  # n+1
    col_index: np.ndarray  # nnz
    values: np.ndarray  # nnz

    def __post_init__(self) -> None:
        if self.row_start.shape != (self.n + 1,):
            raise ConfigError("row_start must have n+1 entries")
        if self.col_index.shape != self.values.shape:
            raise ConfigError("col_index and values must be congruent")
        if self.row_start[0] != 0 or self.row_start[-1] != self.values.size:
            raise ConfigError("row_start must span [0, nnz]")

    @property
    def nnz(self) -> int:
        """Stored nonzeros."""
        return int(self.values.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x, each y[i] computed in its entirety."""
        if x.shape != (self.n,):
            raise ConfigError(f"x must have length {self.n}")
        products = self.values * x[self.col_index]
        y = np.add.reduceat(
            np.concatenate([products, [0.0]]),
            np.minimum(self.row_start[:-1], products.size),
        )
        # rows with zero entries pick up the next row's sum: mask them
        empty = self.row_start[:-1] == self.row_start[1:]
        y[empty] = 0.0
        return y

    def row_block(self, pid: int, n_procs: int) -> tuple[int, int]:
        """The contiguous row range [lo, hi) assigned to processor
        ``pid`` under the paper's row partitioning."""
        if not 0 <= pid < n_procs:
            raise ConfigError("pid out of range")
        base = self.n // n_procs
        extra = self.n % n_procs
        lo = pid * base + min(pid, extra)
        hi = lo + base + (1 if pid < extra else 0)
        return lo, hi

    def to_csc(self) -> "SparseCSC":
        """Convert to the original column-major layout."""
        order = stable_order(self.col_index)
        rows = np.repeat(np.arange(self.n), np.diff(self.row_start))
        col_start = np.zeros(self.n + 1, dtype=np.int64)
        col_start[1:] = np.bincount(self.col_index, minlength=self.n)
        np.cumsum(col_start, out=col_start)
        return SparseCSC(
            n=self.n,
            col_start=col_start,
            row_index=rows[order],
            values=self.values[order],
        )


@dataclass(frozen=True)
class SparseCSC:
    """Column start / row index format (the original NASA layout)."""

    n: int
    col_start: np.ndarray  # n+1
    row_index: np.ndarray  # nnz
    values: np.ndarray  # nnz

    def __post_init__(self) -> None:
        if self.col_start.shape != (self.n + 1,):
            raise ConfigError("col_start must have n+1 entries")
        if self.row_index.shape != self.values.shape:
            raise ConfigError("row_index and values must be congruent")
        if self.col_start[0] != 0 or self.col_start[-1] != self.values.size:
            raise ConfigError("col_start must span [0, nnz]")

    @property
    def nnz(self) -> int:
        """Stored nonzeros."""
        return int(self.values.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x via column-wise scatter (Figure 6's loop):
        y[row_index[k]] += a[k] * x[j] — piecemeal accumulation."""
        if x.shape != (self.n,):
            raise ConfigError(f"x must have length {self.n}")
        xj = np.repeat(x, np.diff(self.col_start))
        # bincount accumulates in index order, as the scatter loop does
        return np.bincount(self.row_index, weights=self.values * xj, minlength=self.n)

    def to_csr(self) -> SparseCSR:
        """The paper's transformation to row start / column index."""
        order = stable_order(self.row_index)
        cols = np.repeat(np.arange(self.n), np.diff(self.col_start))
        row_start = np.zeros(self.n + 1, dtype=np.int64)
        row_start[1:] = np.bincount(self.row_index, minlength=self.n)
        np.cumsum(row_start, out=row_start)
        return SparseCSR(
            n=self.n,
            row_start=row_start,
            col_index=cols[order],
            values=self.values[order],
        )


def random_sparse_spd(
    n: int, nnz_target: int, *, seed: int = 12, format: str = "csr"
) -> SparseCSR | SparseCSC:
    """A random sparse symmetric positive definite matrix.

    Pattern: ~``nnz_target`` uniformly random off-diagonal entries,
    symmetrized, with a diagonal large enough for strict diagonal
    dominance (hence SPD).  This stands in for the NAS CG matrix
    generator (same density and spectral character for our purposes:
    CG converges, and the access pattern of the matvec is a uniform
    random gather).
    """
    if n < 2 or nnz_target < n:
        raise ConfigError("need n >= 2 and at least one nonzero per row")
    rng = np.random.default_rng(seed)
    n_off = max(0, (nnz_target - n) // 2)
    rows = rng.integers(0, n, size=n_off)
    cols = rng.integers(0, n, size=n_off)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    # symmetrize
    all_rows = np.concatenate([rows, cols, np.arange(n)])
    all_cols = np.concatenate([cols, rows, np.arange(n)])
    vals = np.concatenate(
        [
            (t := rng.uniform(-1.0, 1.0, size=rows.size)),
            t,
            np.zeros(n),  # diagonal placeholder
        ]
    )
    # deduplicate by (row, col), summing values
    keys = all_rows.astype(np.int64) * n + all_cols
    order = stable_order(keys)
    keys_s, vals_s = keys[order], vals[order]
    boundary = np.empty(keys_s.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys_s[1:], keys_s[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    uniq_keys = keys_s[starts]
    uniq_vals = np.add.reduceat(vals_s, starts)
    u_rows = (uniq_keys // n).astype(np.int64)
    u_cols = (uniq_keys % n).astype(np.int64)
    # strict diagonal dominance
    row_abs = np.bincount(u_rows, weights=np.abs(uniq_vals), minlength=n)
    diag_mask = u_rows == u_cols
    uniq_vals[diag_mask] = row_abs[u_rows[diag_mask]] + 1.0
    # assemble CSR (keys are already row-major sorted)
    row_start = np.zeros(n + 1, dtype=np.int64)
    row_start[1:] = np.bincount(u_rows, minlength=n)
    np.cumsum(row_start, out=row_start)
    csr = SparseCSR(n=n, row_start=row_start, col_index=u_cols, values=uniq_vals)
    if format == "csr":
        return csr
    if format == "csc":
        return csr.to_csc()
    raise ConfigError(f"unknown format {format!r}")
