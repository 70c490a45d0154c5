"""Dense exact linear algebra over the prime field GF(p).

Matrices are numpy integer arrays with entries reduced mod p.  The
characteristic is passed explicitly to every operation; nothing here keeps
global state, and all routines are deterministic (leftmost pivot, topmost
row).
"""

from __future__ import annotations

import numpy as np


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"characteristic must be a prime, got {p!r}")
    return p


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue."""
    return pow(int(a) % p, -1, p)


def as_matrix(rows, p: int) -> np.ndarray:
    """Coerce a row list to a 2-d int64 array reduced mod p."""
    if isinstance(rows, np.ndarray):
        mat = rows.astype(np.int64, copy=True)
    else:
        rows = list(rows)
        if not rows:
            return np.zeros((0, 0), dtype=np.int64)
        mat = np.array(rows, dtype=np.int64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    return np.mod(mat, p)


def rref(mat, p: int):
    """Reduced row echelon form.

    Returns (R, pivots) where R has unit pivots with zeros above and below,
    and pivots lists the pivot column of each nonzero row in order.  Pivot
    choice: leftmost column, topmost available row.
    """
    R = as_matrix(mat, p)
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        rows = np.nonzero(R[r:, c])[0]
        if rows.size == 0:
            continue
        lead = r + int(rows[0])
        if lead != r:
            R[[r, lead]] = R[[lead, r]]
        R[r] = (R[r] * inv_mod(R[r, c], p)) % p
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others] = (R[others] - np.outer(R[others, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R[: len(pivots)], pivots


def nullspace(mat, p: int) -> np.ndarray:
    """Basis of the right kernel {x : mat @ x = 0}, one vector per row.

    Deterministic: one basis vector per free column of the rref, with a 1
    in that column.
    """
    A = as_matrix(mat, p)
    ncols = A.shape[1]
    R, pivots = rref(A, p)
    free = [c for c in range(ncols) if c not in pivots]
    out = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        out[k, f] = 1
        for row, c in enumerate(pivots):
            out[k, c] = (-R[row, f]) % p
    return out


class RowSpace:
    """Incrementally maintained row space in reduced echelon form.

    add() reduces the incoming vector against the current basis and, when a
    new pivot appears, re-eliminates that column above.  Deterministic and
    cheap to query; used for spans of ideal components.
    """

    def __init__(self, width: int, p: int):
        self.width = width
        self.p = p
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @classmethod
    def spanned_by(cls, mat: np.ndarray, p: int) -> "RowSpace":
        """Row space of a 2-d array, reduced by one rref."""
        R, pivots = rref(mat, p)
        space = cls(R.shape[1], p)
        space.rows, space.pivots = list(R), pivots
        return space

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: np.ndarray) -> np.ndarray:
        p = self.p
        v = np.mod(np.asarray(vec, dtype=np.int64).ravel(), p)
        for row, c in zip(self.rows, self.pivots):
            coeff = v[c]
            if coeff:
                v = (v - coeff * row) % p
        return v

    def residues(self, block) -> np.ndarray:
        """Every row of a 2-d array reduced against the space.  The basis
        is fully reduced, so one matmul subtracts each row's multiple of
        every basis row at once, as `_reduce` does one row at a time."""
        block = np.asarray(block, dtype=np.int64)
        if not self.rows:
            return block % self.p
        return (block - block[:, self.pivots] @ self.matrix()) % self.p

    def contains(self, vec) -> bool:
        return not self._reduce(vec).any()

    def add(self, vec) -> bool:
        """Insert a vector; True if it enlarged the space."""
        v = self._reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = (v * inv_mod(v[c], self.p)) % self.p
        # eliminate the new pivot column from existing rows
        for i, row in enumerate(self.rows):
            coeff = row[c]
            if coeff:
                self.rows[i] = (row - coeff * v) % self.p
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < c:
            pos += 1
        self.rows.insert(pos, v)
        self.pivots.insert(pos, c)
        return True

    def matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, self.width), dtype=np.int64)
        return np.array(self.rows, dtype=np.int64)

    def copy(self) -> "RowSpace":
        dup = RowSpace(self.width, self.p)
        dup.rows = [row.copy() for row in self.rows]
        dup.pivots = list(self.pivots)
        return dup
