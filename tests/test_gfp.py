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
