"""Exact linear algebra over the prime field GF(p).

There is one elimination kernel, `echelon`: it takes sparse rows, dicts of
column -> nonzero residue, and returns their reduced row echelon form,
which is unique, so nothing depends on the order the rows come in.  Its
two passes, `forward` and `back_substitute`, may also run apart, for just
the pivots or just some reduced rows.  `rref` is its dense adapter for
numpy integer arrays with entries reduced mod p, and a `RowSpace` holds a
reduced form as one matrix and reduces against it with `residues`.  The
characteristic is passed explicitly to every operation; nothing here keeps
global state.
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


def echelon(rows, p: int):
    """Reduced row echelon form of sparse rows, dicts of column -> nonzero
    residue (or their items): the pivot columns in increasing order and
    each one's reduced row, a dict with a unit there.  It is unique."""
    lead = forward(rows, p)
    pivots = sorted(lead)
    reduced = back_substitute(lead, pivots, {}, p)
    return pivots, [reduced[c] for c in pivots]


def forward(rows, p: int) -> dict:
    """The forward pass: pivot column -> its row, with a unit there and
    zeros to its left.  Each row is reduced by its leading (least) column
    until that column holds no pivot, and then kept."""
    lead: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            other = lead.get(c)
            if other is None:
                break
            _subtract(row, row[c], other, p)
        if row:
            if row[c] != 1:
                inv = pow(row[c], -1, p)
                row = {j: v * inv % p for j, v in row.items()}
            lead[c] = row
    return lead


def back_substitute(lead: dict, want, done: dict, p: int) -> dict:
    """Add to `done`, pivot -> reduced row, the rows of the pivots `want`
    and of each pivot they reach, from the forward rows `lead`: rightmost
    first, each whole, by one assignment.  Returns `done`."""
    need, stack = set(), [c for c in want if c not in done]
    while stack:
        c = stack.pop()
        if c not in need:
            need.add(c)
            stack += [j for j in lead[c] if j in lead and j not in done]
    for c in sorted(need, reverse=True):
        row = dict(lead[c])
        for j in [j for j in row if j != c and j in lead]:
            _subtract(row, row[j], done[j], p)
        done[c] = row
    return done


def _subtract(row: dict, f: int, other: dict, p: int) -> None:
    """row -= f * other in place, dropping the entries that vanish."""
    for j, v in other.items():
        w = (row.get(j, 0) - f * v) % p
        if w:
            row[j] = w
        else:
            del row[j]


def rref(mat, p: int):
    """Reduced row echelon form of a dense matrix, by `echelon`.

    Returns (R, pivots) where R has unit pivots with zeros above and below,
    and pivots lists the pivot column of each nonzero row in order.  An
    empty list gives a (0, 0) array.
    """
    mat = np.array(mat, dtype=np.int64, ndmin=2) % p
    rows: list = [{} for _ in range(len(mat))]
    i, j = mat.nonzero()
    for r, c, v in zip(i.tolist(), j.tolist(), mat[i, j].tolist()):
        rows[r][c] = v
    pivots, reduced = echelon(rows, p)
    R = np.zeros((len(pivots), mat.shape[1]), dtype=np.int64)
    at = [(r, c, v) for r, row in enumerate(reduced) for c, v in row.items()]
    if at:
        i, j, v = zip(*at)
        R[i, j] = v
    return R, pivots


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
