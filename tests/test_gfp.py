import random

import numpy as np
import pytest

from finalg import gfp
from tests.conftest import brute_rank


def test_prime_checks():
    assert [n for n in range(2, 30) if gfp.is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not gfp.is_prime(1)
    with pytest.raises(ValueError):
        gfp.check_prime(6)


def test_inverse():
    for p in (2, 3, 5, 7, 13):
        for a in range(1, p):
            assert (a * gfp.inv_mod(a, p)) % p == 1


def _reference_rref(mat, p):
    """Dense reduced row echelon form by a column loop: the leftmost
    column with a nonzero entry at or below the current row takes the
    topmost such row as its pivot, which is scaled to 1 and cleared from
    every other row.  An oracle independent of `gfp.echelon`."""
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
        R[r] = (R[r] * gfp.inv_mod(R[r, c], p)) % p
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if others.size:
            R[others] = (R[others] - np.outer(R[others, c], R[r])) % p
        pivots.append(c)
        r += 1
    return R[: len(pivots)], pivots


def _sparse(mat):
    """The rows of a dense matrix as dicts of column -> nonzero entry."""
    return [{j: int(v) for j, v in enumerate(row) if v} for row in mat]


def _dense(pivots, reduced, width):
    R = np.zeros((len(pivots), width), dtype=np.int64)
    for i, row in enumerate(reduced):
        for j, v in row.items():
            R[i, j] = v
    return R


def _kernel_cases(rng, p):
    """Seeded matrices over GF(p), entries in 0..p-1: empty shapes, zero
    and duplicate rows, leads other than 1, full rank, sparse and dense
    fill."""
    cases = [np.zeros((0, 4), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
             np.zeros((0, 0), dtype=np.int64), np.zeros((4, 5), dtype=np.int64)]
    for _ in range(40):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        fill = rng.choice([0.1, 0.3, 1.0])
        mat = np.array([[rng.randrange(1, p) if rng.random() < fill else 0
                         for _ in range(cols)] for _ in range(rows)],
                       dtype=np.int64)
        cases.append(mat)
        # a duplicated row and an all-zero row among the others
        cases.append(np.vstack([mat, mat[:1], np.zeros((1, cols), np.int64)]))
        # scaled copies: every nonzero lead is p - 1 (not 1 for p > 2)
        cases.append((mat * (p - 1)) % p)
    for n in range(1, 7):   # full rank: upper unitriangular times a scale
        up = np.triu(np.array([[rng.randrange(p) for _ in range(n)]
                               for _ in range(n)], dtype=np.int64), 1)
        up += np.diag([rng.randrange(1, p) for _ in range(n)])
        cases.append(np.vstack([up, up[::-1]]) % p)
        cases.append(up[rng.sample(range(n), n)] % p)
    # wide and sparse: four entries a row, as the engine's relation rows
    for _ in range(8):
        mat = np.zeros((rng.randint(5, 30), rng.randint(20, 60)), np.int64)
        for row in mat:
            for j in rng.sample(range(mat.shape[1]), 4):
                row[j] = rng.randrange(1, p)
        cases.append(mat)
    return cases


def test_echelon_and_rref_match_the_reference():
    rng = random.Random(1807)
    for p in (2, 3, 5, 7):
        cases = _kernel_cases(rng, p)
        assert any(len(m) and m.shape[1] and not m.any() for m in cases)
        for mat in cases:
            R, pivots = _reference_rref(mat, p)
            got, got_pivots = gfp.rref(mat, p)
            assert got_pivots == pivots
            assert got.dtype == np.int64
            assert got.shape == (len(pivots), mat.shape[1])
            assert np.array_equal(got, R)
            kernel_pivots, reduced = gfp.echelon(_sparse(mat), p)
            assert kernel_pivots == pivots
            assert all(row[c] == 1 and all(row.values())
                       for c, row in zip(pivots, reduced))
            assert np.array_equal(_dense(pivots, reduced, mat.shape[1]), R)
            # the reduced form of a row space is unique: any row order
            # gives it, and rows given as (column, value) pairs too
            order = rng.sample(range(len(mat)), len(mat))
            again = gfp.echelon([sorted(r.items())
                                 for r in _sparse(mat[order])], p)
            assert again == (kernel_pivots, reduced)


def test_forward_pass_matches_the_reference():
    # the forward pass alone: the same pivots as the reduced form, each
    # row with a unit lead and zeros to its left, and together the same
    # span; back-substituting any pivots gives their reduced rows
    rng = random.Random(2711)
    for p in (2, 3, 5, 7):
        for mat in _kernel_cases(rng, p):
            R, pivots = _reference_rref(mat, p)
            lead = gfp.forward(_sparse(mat), p)
            assert sorted(lead) == pivots
            for c, row in lead.items():
                assert row[c] == 1 and min(row) == c
                assert all(0 < v < p for v in row.values())
            rows = _dense(sorted(lead), [lead[c] for c in sorted(lead)],
                          mat.shape[1])
            assert np.array_equal(_reference_rref(rows, p)[0], R)
            want = rng.sample(pivots, len(pivots) // 2)
            done = gfp.back_substitute(lead, want, {}, p)
            assert set(want) <= set(done) <= set(pivots)
            for c, row in done.items():
                assert np.array_equal(_dense([c], [row], mat.shape[1])[0],
                                      R[pivots.index(c)])


def test_rref_frozen_examples():
    R, pivots = gfp.rref([[1, 2], [2, 4]], 5)
    assert pivots == [0]
    assert R.tolist() == [[1, 2]]
    R, pivots = gfp.rref([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2)
    assert pivots == [0, 1]
    assert R.tolist() == [[1, 0, 1], [0, 1, 1]]
    R, pivots = gfp.rref([[0, 0], [0, 0]], 3)
    assert pivots == [] and R.shape[0] == 0
    R, pivots = gfp.rref([], 5)
    assert pivots == [] and R.shape == (0, 0)


def test_rank_against_span_enumeration():
    rng = random.Random(11)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        assert len(gfp.rref(mat, p)[1]) == brute_rank(mat, p)


def test_rref_idempotent():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3])
        mat = [[rng.randrange(p) for _ in range(4)] for _ in range(3)]
        R1, piv1 = gfp.rref(mat, p)
        R2, piv2 = gfp.rref(R1, p)
        assert piv1 == piv2
        assert np.array_equal(R1, R2)


def test_rowspace_incremental():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        # brute_rank walks p^rows combinations, so fewer rows at p = 5
        width, count = (5, 6) if p < 5 else (4, 4)
        vecs = [[rng.randrange(p) for _ in range(width)]
                for _ in range(count)]
        rs = gfp.RowSpace(width, p)
        expected_rank = 0
        for i, v in enumerate(vecs):
            grew = rs.add(v)
            expected_rank = brute_rank(vecs[:i + 1], p)
            assert rs.dim == expected_rank
            assert grew == (brute_rank(vecs[:i], p) < expected_rank)
            assert not rs.residues([v]).any()
        assert rs.rows.shape == (rs.dim, width)
        assert np.array_equal(rs.rows, gfp.rref(vecs, p)[0])
        other = rs.copy()
        assert other.dim == rs.dim
        other.add([1] + [0] * (width - 1))
        assert rs.dim == expected_rank  # copy is independent

    # a residue is zero exactly on the span, and what it took off is in it
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        width = rng.randint(1, 4)
        basis = [[rng.randrange(p) for _ in range(width)]
                 for _ in range(rng.randint(0, 3))]
        rs = gfp.RowSpace(width, p)
        for v in basis:
            rs.add(v)
        block = np.array([[rng.randrange(p) for _ in range(width)]
                          for _ in range(6)], dtype=np.int64)
        res = rs.residues(block)
        for row, r in zip(block.tolist(), res.tolist()):
            in_span = brute_rank(basis + [row], p) == brute_rank(basis, p)
            assert (not any(r)) == in_span
        for diff in ((block - res) % p).tolist():
            assert brute_rank(basis + [diff], p) == brute_rank(basis, p)

    # a zero-dimensional component
    rs = gfp.RowSpace(0, 5)
    assert not rs.add([])
    assert rs.dim == 0 and rs.rows.shape == (0, 0)
    assert rs.residues(np.zeros((3, 0), dtype=np.int64)).shape == (3, 0)
    assert rs.copy().dim == 0
