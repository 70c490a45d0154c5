"""Dense exact linear algebra over the prime field GF(p).

Matrices are numpy integer arrays with entries reduced mod p.  The
characteristic is passed explicitly to every operation; nothing here keeps
global state, and all routines are deterministic (leftmost pivot, topmost
row).  There is one echelon form: `rref` computes it, and a `RowSpace`
holds it as one matrix and reduces against it with `residues`.
"""

from __future__ import annotations

import bisect

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


def rref(mat, p: int):
    """Reduced row echelon form.

    Returns (R, pivots) where R has unit pivots with zeros above and below,
    and pivots lists the pivot column of each nonzero row in order.  Pivot
    choice: leftmost column, topmost available row.  An empty list gives a
    (0, 0) array.
    """
    R = np.array(mat, dtype=np.int64, ndmin=2) % p
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


class RowSpace:
    """A row space held in reduced echelon form: `rows` is one 2-d array
    with a unit pivot in each row, at the columns `pivots` (increasing),
    and zeros above and below every pivot.

    `residues` is the only reduction: the basis is fully reduced, so one
    matmul subtracts from each row its multiple of every basis row.  `add`
    keeps the form by clearing the new pivot column from the other rows.
    """

    def __init__(self, width: int, p: int):
        self.width = width
        self.p = p
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots: list[int] = []

    @classmethod
    def spanned_by(cls, mat: np.ndarray, p: int) -> "RowSpace":
        """Row space of a 2-d array, reduced by one rref."""
        space = cls(mat.shape[1], p)
        space.rows, space.pivots = rref(mat, p)
        return space

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def residues(self, block) -> np.ndarray:
        """Every row of a 2-d array reduced against the space."""
        block = np.asarray(block, dtype=np.int64)
        return (block - block.take(self.pivots, axis=1) @ self.rows) % self.p

    def add(self, vec) -> bool:
        """Insert a vector; True if it enlarged the space."""
        v = self.residues(np.array(vec, dtype=np.int64, ndmin=2))[0]
        nz = v.nonzero()[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = (v * inv_mod(v[c], self.p)) % self.p
        self.rows = (self.rows - self.rows[:, c, None] * v) % self.p
        pos = bisect.bisect(self.pivots, c)
        self.rows = np.concatenate(
            (self.rows[:pos], v[None, :], self.rows[pos:]))
        self.pivots.insert(pos, c)
        return True

    def copy(self) -> "RowSpace":
        dup = RowSpace(self.width, self.p)
        dup.rows = self.rows.copy()
        dup.pivots = list(self.pivots)
        return dup
