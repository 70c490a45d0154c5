import dataclasses
import random

import numpy as np
import pytest

from finalg import gfp, truncated
from finalg.errors import ResourceLimitError
from finalg.gfp import forward
from finalg.isotest import graded_isomorphism
from finalg.present import COMMUTATIVE, exterior_mask, mono_mul, parse
from finalg.truncated import TruncatedAlgebra, default_bound, truncation_bound
from tests.conftest import (brute_basis, free_algebra_dims,
                            random_presentation, walk_monomials)
from tests.test_gfp import _reference_rref


LAMBDA_TENSOR = """
algebra ext_poly
char 3
mode commutative
gen x 1
gen y 2
"""


def test_truncation_bound_examples():
    pres = parse("algebra a\nchar 2\nmode commutative\ngen x 1\ngen y 2\nrel x^2\n")
    assert truncation_bound(pres) == 2
    assert default_bound(pres) == 10
    free = parse("algebra f\nchar 2\nmode commutative\ngen x 1\n")
    assert truncation_bound(free) == 1
    d8ish = parse("algebra d\nchar 2\nmode commutative\n"
                  "gen x 1\ngen y 1\ngen w 2\nrel x*y\n")
    assert truncation_bound(d8ish) == 2


def test_fixture_dims_frozen(corpus):
    expected = {
        "c2": [1] * 11,
        "c4": [1] * 11,
        "c8": [1] * 11,
        "c2c2": [n + 1 for n in range(11)],
        "c4c2": [n + 1 for n in range(11)],
        "c2c2c2": [(n + 1) * (n + 2) // 2 for n in range(11)],
        "d8": [n + 1 for n in range(11)],
        "q8": [1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2],
    }
    for name, pres in corpus.items():
        T = TruncatedAlgebra(pres, 10)
        assert list(T.dims()) == expected[name], name


def test_free_algebra_dims_against_series_product():
    rng = random.Random(19)
    for _ in range(25):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        degrees = [rng.randint(1, 3) for _ in range(n)]
        lines = [f"algebra f\nchar {p}\nmode commutative\n"]
        lines += [f"gen g{i} {d}\n" for i, d in enumerate(degrees)]
        pres = parse("".join(lines))
        T = TruncatedAlgebra(pres, 7)
        # generator order does not affect counts; sort to match helper
        exterior = [p != 2 and d % 2 == 1 for d in sorted(degrees)]
        want = free_algebra_dims(sorted(degrees), exterior, 7)
        assert list(T.dims()) == want


def test_odd_characteristic_exterior_line():
    T = TruncatedAlgebra(parse(LAMBDA_TENSOR), 10)
    assert list(T.dims()) == [1] * 11


def test_multiplication_table_consistency(corpus):
    # (a*b)*c = a*(b*c) on random homogeneous elements of every fixture
    rng = random.Random(47)
    for name, pres in corpus.items():
        T = TruncatedAlgebra(pres, 8)
        for _ in range(10):
            da, db, dc = (rng.randint(1, 2) for _ in range(3))
            if da + db + dc > T.bound:
                continue
            va = np.array([rng.randrange(T.p) for _ in range(T.dim(da))])
            vb = np.array([rng.randrange(T.p) for _ in range(T.dim(db))])
            vc = np.array([rng.randrange(T.p) for _ in range(T.dim(dc))])
            ab = T.multiply_vec(da, va, db, vb)
            bc = T.multiply_vec(db, vb, dc, vc)
            left = T.multiply_vec(da + db, ab, dc, vc)
            right = T.multiply_vec(da, va, db + dc, bc)
            assert np.array_equal(left, right), name


# every component of odd degree and of degree >= 4 is zero
SQUARE_ZERO = ("algebra sq0\nchar 3\nmode commutative\ngen x 2\ngen y 2\n"
               "rel x^2\nrel x*y\nrel y^2\n")
ASSOC_COMM = ("algebra ac\nchar 3\nmode associative\ngen x 1\ngen y 1\n"
              "rel x*y-y*x\n")


def _block(rng, p: int, rows: int, dim: int) -> np.ndarray:
    return np.array([[rng.randrange(p) for _ in range(dim)]
                     for _ in range(rows)], dtype=np.int64).reshape(rows, dim)


def test_blocks_match_one_vector_at_a_time(corpus):
    # a product or an evaluation over a block, a 2-d array of one vector
    # per row, is the 1-d result row by row, whichever factor is the
    # block; a zero-dimensional factor or value keeps the row count
    rng = random.Random(61)
    presentations = [*corpus.values(), parse(LAMBDA_TENSOR),
                     parse(SQUARE_ZERO), parse(ASSOC_COMM)]
    presentations += [random_presentation(rng, f"r{i}") for i in range(6)]
    for pres in presentations:
        T = TruncatedAlgebra(pres, 8)
        p = T.p
        for a in range(1, 5):
            for b in range(1, 5):
                rows = rng.randint(1, 4)
                va, vb = _block(rng, p, rows, T.dim(a)), _block(rng, p, rows,
                                                               T.dim(b))
                for left, right in ((va, vb[0]), (va[0], vb), (va, vb)):
                    got = T.multiply_vec(a, left, b, right)
                    assert got.shape == (rows, T.dim(a + b)), pres.name
                    for r in range(rows):
                        one = T.multiply_vec(a, left if left.ndim == 1
                                             else left[r], b,
                                             right if right.ndim == 1
                                             else right[r])
                        assert np.array_equal(got[r], one), (pres.name, a, b)
        degrees = pres.gens.degrees
        polys = list(pres.relations) + [
            {m: rng.randrange(1, p) for m in pres.monomials_of_degree(n)
             if rng.random() < 0.5} for n in range(1, 7)]
        for poly in polys:
            rows = rng.randint(1, 4)
            images = [(d, _block(rng, p, 1, T.dim(d))[0]) for d in degrees]
            k = rng.randrange(len(degrees))
            block = _block(rng, p, rows, T.dim(degrees[k]))
            got = T.evaluate(poly, pres, images[:k] + [(degrees[k], block)]
                             + images[k + 1:])
            if any((k in m) if pres.mode == "associative" else m[k]
                   for m in poly):
                assert got[1].shape == (rows, T.dim(got[0])), pres.name
            for r in range(rows):
                one = T.evaluate(poly, pres, images[:k]
                                 + [(degrees[k], block[r])] + images[k + 1:])
                if one is None:
                    assert got is None
                    continue
                assert got[0] == one[0]
                assert np.array_equal(
                    np.broadcast_to(got[1], (rows, len(one[1])))[r], one[1])


def test_graded_commutativity_in_tables():
    pres = parse("algebra two_odds\nchar 3\nmode commutative\n"
                 "gen x 1\ngen y 1\n")
    T = TruncatedAlgebra(pres, 6)
    x = T.element(pres.parse_poly("x"))
    y = T.element(pres.parse_poly("y"))
    xy = T.multiply_vec(1, x[1], 1, y[1])
    yx = T.multiply_vec(1, y[1], 1, x[1])
    assert np.array_equal(yx, (-xy) % 3)
    xx = T.multiply_vec(1, x[1], 1, x[1])
    assert not xx.any()


def test_relations_reduce_to_zero(corpus):
    for name, pres in corpus.items():
        T = TruncatedAlgebra(pres, 10)
        for rel in pres.relations:
            assert T.is_zero(rel), name


def test_element_poly_roundtrip(corpus):
    rng = random.Random(59)
    for pres in corpus.values():
        T = TruncatedAlgebra(pres, 8)
        for n in range(1, 7):
            dim = T.dim(n)
            if dim == 0:
                continue
            vec = np.array([rng.randrange(T.p) for _ in range(dim)])
            poly = T.poly_of_vec(n, vec)
            back = T.element(poly)
            if not vec.any():
                assert back is None
            else:
                assert back[0] == n
                assert np.array_equal(back[1], vec)


def test_evaluate_identity_images(corpus):
    for pres in corpus.values():
        T = TruncatedAlgebra(pres, 10)
        images = [T.element(pres.parse_poly(name)) for name in pres.gens.names]
        for rel in pres.relations:
            out = T.evaluate(rel, pres, images)
            assert out is None or not out[1].any()
        assert T.generates(images)


def test_generates_needs_every_summand(corpus):
    c4 = corpus["c4"]
    T = TruncatedAlgebra(c4, 10)
    x = T.element(c4.parse_poly("x"))
    y = T.element(c4.parse_poly("y"))
    zero2 = (2, np.zeros(T.dim(2), dtype=np.int64))
    assert T.generates([x, y])
    assert not T.generates([x, zero2])


def test_power_filtration_frozen(corpus):
    T = TruncatedAlgebra(corpus["c2"], 10)
    assert T.power_filtration_dims() == [10 - c for c in range(10)]
    T = TruncatedAlgebra(corpus["c4"], 10)
    assert T.power_filtration_dims() == [10, 8, 6, 4, 2, 0, 0, 0, 0, 0]
    T = TruncatedAlgebra(corpus["c2c2"], 10)
    # I^c collects every component of degree >= c
    want = [sum(n + 1 for n in range(c, 11)) for c in range(1, 11)]
    assert T.power_filtration_dims() == want


ASSOC_P3 = """
algebra assoc
char 3
mode associative
gen x 1
gen u 2
gen v 2
rel x*x+u+2*v
rel u*v-v*u
"""

EXTERIOR_P3 = """
algebra ext
char 3
mode commutative
gen x 1
gen y 1
gen u 2
gen v 2
rel x*y+u+2*v
rel u^2-x*y*v
"""


def test_power_filtration_and_decomposables_frozen_beyond_p2():
    # associative words, and exterior degree-1 generators at p = 3
    T = TruncatedAlgebra(parse(ASSOC_P3), 6)
    assert T.power_filtration_dims() == [24, 22, 18, 11, 4, 1]
    assert [T.decomposables(n).rows.tolist() for n in range(1, 5)] == [
        [], [[1, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    T = TruncatedAlgebra(parse(EXTERIOR_P3), 6)
    assert T.power_filtration_dims() == [7, 4, 1, 0, 0, 0]
    assert [T.decomposables(n).rows.tolist() for n in range(1, 5)] == [
        [], [[1, 2]], [[1, 0], [0, 1]], [[1]]]


def _ideal_powers_by_products(T):
    """Bases of I^c_n for c = 1..bound: I^1_n is all of A_n, and I^c_n is
    spanned by the products a*v, a in the basis of A_a for a >= 1 and v in
    the basis of I^(c-1)_(n-a)."""
    D = T.bound
    level = {n: list(np.eye(T.dim(n), dtype=np.int64))
             for n in range(1, D + 1)}
    powers = [level]
    for c in range(2, D + 1):
        prev, level = level, {}
        for n in range(c, D + 1):
            rows = [T.multiply_vec(a, unit, n - a, v)
                    for a in range(1, n)
                    for unit in np.eye(T.dim(a), dtype=np.int64)
                    for v in prev.get(n - a, [])]
            level[n] = brute_basis(rows, T.p)
        powers.append(level)
    return powers


def test_power_filtration_matches_products_of_random_presentations():
    rng = random.Random(7103)
    for _ in range(20):
        pres = random_presentation(rng)
        T = TruncatedAlgebra(pres, 6)
        powers = _ideal_powers_by_products(T)
        want = [sum(len(b) for b in level.values()) for level in powers]
        assert T.power_filtration_dims() == want
        for n, basis in powers[1].items():  # I^2, the decomposables
            dec = T.decomposables(n)
            assert dec.dim == len(basis)
            block = np.reshape(basis, (len(basis), dec.width))
            assert not dec.residues(block).any()


def test_power_filtration_separates_equal_series(corpus):
    a = TruncatedAlgebra(corpus["c2"], 10).power_filtration_dims()
    b = TruncatedAlgebra(corpus["c4"], 10).power_filtration_dims()
    assert a != b


def test_monomial_ceiling():
    pres = parse("algebra wide\nchar 2\nmode commutative\n"
                 "gen x 1\ngen y 1\ngen z 1\n")
    with pytest.raises(ResourceLimitError):
        TruncatedAlgebra(pres, 10, monomial_ceiling=5)


def test_deterministic_rebuild(corpus):
    for pres in corpus.values():
        T1 = TruncatedAlgebra(pres, 6)
        T2 = TruncatedAlgebra(pres, 6)
        assert T1.dims() == T2.dims()
        for n in range(7):
            assert T1.basis(n) == T2.basis(n)
        assert np.array_equal(T1.table(1, 1), T2.table(1, 1))


def _random_associative(rng):
    """Up to three generators of degree <= 2 and up to two homogeneous
    relations of degree <= 3 and at most three terms, in associative
    mode."""
    return _random_presentation(rng, rng.choice([2, 3]), "associative")


def _random_presentation(rng, p, mode):
    """As `_random_associative`, at the characteristic p and in the mode
    given."""
    names = ["x", "y", "z"][:rng.randint(1, 3)]
    free = parse(f"algebra a\nchar {p}\nmode {mode}\n" + "".join(
        f"gen {n} {rng.randint(1, 2)}\n" for n in names))
    relations = []
    for _ in range(rng.randint(0, 2)):
        words = free.monomials_of_degree(rng.randint(min(free.gens.degrees), 3))
        chosen = rng.sample(words, min(len(words), rng.randint(1, 3)))
        relations.append({w: rng.randrange(1, p) for w in chosen})
    return dataclasses.replace(free, relations=tuple(relations))


def test_forcing_order_does_not_change_the_engine(corpus):
    # each degree is reduced on first use; reducing them top down must
    # give the engine that reducing them bottom up gives
    rng = random.Random(6131)
    presentations = list(corpus.values())
    presentations += [random_presentation(rng) for _ in range(12)]
    presentations += [_random_associative(rng) for _ in range(12)]
    for pres in presentations:
        bound = 6 if pres.mode == "associative" else 8
        up, down = TruncatedAlgebra(pres, bound), TruncatedAlgebra(pres, bound)
        for n in range(bound + 1):
            up.dim(n)
        for n in reversed(range(bound + 1)):
            down.dim(n)
        # the same keys listed on first use, whatever the order, and each
        # degree's columns are its monomials in term order, as the
        # one-degree walk lists them
        assert up._keys == down._keys
        assert ([up._monomials(n) for n in range(bound + 1)]
                == [down._monomials(n) for n in range(bound + 1)]
                == [walk_monomials(pres.gens, n, pres.mode, pres.p)
                    for n in range(bound + 1)])
        assert up.dims() == down.dims()
        for n in range(bound + 1):
            assert up.basis(n) == down.basis(n)
            for m in pres.monomials_of_degree(n):
                assert np.array_equal(up.reduce_poly({m: 1})[n],
                                      down.reduce_poly({m: 1})[n])
            if n >= 1:
                assert np.array_equal(up.decomposables(n).rows,
                                      down.decomposables(n).rows)
        for a in range(1, bound):
            assert np.array_equal(up.table(a, bound - a),
                                  down.table(a, bound - a))
        assert up.power_filtration_dims() == down.power_filtration_dims()


def _listed(T):
    """The degrees whose monomial keys T has listed."""
    return {n for n, keys in enumerate(T._keys) if keys is not None}


def _reduced(T):
    """The degrees T has reduced."""
    return {n for n, d in enumerate(T._degrees) if d is not None}


def test_construction_lists_no_monomials(corpus):
    # the limits are checked from counts, so a new engine holds no lists;
    # degree 1 of c4 (rel x^2) has no relation row, so reducing it lists
    # nothing; reducing degree 3 lists degree 3 and, since each degree is
    # built from the lists below it, every degree under it, and nothing
    # above
    T = TruncatedAlgebra(corpus["c4"], 10)
    assert _listed(T) == set()
    assert T.dim(1) == 1
    assert _listed(T) == set()
    assert T.dim(3) == 1
    assert _listed(T) == {0, 1, 2, 3}


def test_engine_lists_match_the_walks_in_any_reading_order():
    # degrees read ascending, descending or at random give every engine
    # the one-degree walk's list in each degree it read, and in each below,
    # as its decoded keys and as its factor counts, each listed from below
    rng = random.Random(2029)
    for pairs, mode, p in (("x:1 y:2 z:3", "commutative", 3),
                           ("x:1 y:1 u:2 w:3", "commutative", 5),
                           ("a:2 b:3 c:3", "commutative", 7),
                           ("x:1 y:1 z:1", "commutative", 2),
                           ("x:1 y:2", "associative", 3),
                           ("x:1 y:1 z:2", "associative", 2)):
        pres = parse(f"algebra a\nchar {p}\nmode {mode}\n" + "".join(
            f"gen {g.split(':')[0]} {g.split(':')[1]}\n"
            for g in pairs.split()))
        bound = 7 if mode == "associative" else 10
        want = [walk_monomials(pres.gens, n, mode, p)
                for n in range(bound + 1)]
        order = list(range(bound + 1))
        rng.shuffle(order)
        factors = [[sum(m) if mode == "commutative" else len(m)
                    for m in monos] for monos in want]
        for degrees in (range(bound + 1), reversed(range(bound + 1)), order):
            T = TruncatedAlgebra(pres, bound)
            for n in degrees:
                assert T._factor_counts(n) == factors[n], (pairs, n)
                assert T._factors[:n + 1] == factors[:n + 1], (pairs, n)
                assert T._monomials(n) == want[n], (pairs, n)
                assert None not in T._keys[:n + 1], (pairs, n)
            assert T._factors == factors
            assert [T._monomials(n) for n in range(bound + 1)] == want


def test_dims_refutation_lists_only_the_degrees_compared(corpus,
                                                         monkeypatch):
    # c2 and c2c2 differ in degree 1 and have no relations, so each of the
    # pair's engines reduces degrees 0 and 1 out of 0..10; a degree without
    # relation rows needs only its count, and its monomials are standard,
    # so A's zero flags read no column either, and neither engine lists a
    # monomial
    engines = []
    original = TruncatedAlgebra.__init__

    def kept(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(self)
    monkeypatch.setattr(TruncatedAlgebra, "__init__", kept)
    A, B = dataclasses.replace(corpus["c2"]), dataclasses.replace(corpus["c2c2"])
    verdict = graded_isomorphism(A, B)
    assert verdict.statistics["bound"] == 10
    assert verdict.statistics["first_dims_difference"] == 1
    assert len(engines) == 2
    assert [_reduced(T) for T in engines] == [{0, 1}, {0, 1}]
    assert [_listed(T) for T in engines] == [set(), set()]


def test_associative_relation_rows_are_kept_once():
    # xy occurs twice in xyxy...: one row per word holding xy, while the
    # cell budget still counts every (left, right) cofactor pair
    T = TruncatedAlgebra(parse("algebra a\nchar 2\nmode associative\n"
                               "gen x 1\ngen y 1\nrel x*y\n"), 10)
    assert T._relation_row_count(10) == 2304
    rows = T._relation_rows(10)
    assert len(rows) == 1013
    assert len({tuple(sorted(dict(r).items())) for r in rows}) == 1013
    assert all(0 <= j < 1024 for r in rows for j in dict(r))
    assert T.dim(10) == 11   # the words y^a x^b


def test_commutative_cofactors_can_give_one_row():
    # at p = 3 the exterior a and b anticommute, so the cofactors a and b
    # of ax - bx both give -abx: two rows built, one kept
    T = TruncatedAlgebra(parse("algebra e\nchar 3\nmode commutative\n"
                               "gen a 1\ngen b 1\ngen x 2\nrel a*x - b*x\n"),
                         4)
    monos = T._monomials(4)
    assert [[(monos[j], v) for j, v in row]
            for row in T._relation_rows(4)] == [[((1, 1, 1), 2)]]


# relations whose terms have different factor counts, so normal forms mix
# standard monomials with fewer factors than their monomials have
CUBIC = ("algebra cubic\nchar 2\nmode commutative\ngen x 1\ngen y 1\n"
         "gen z 2\nrel x^3+y*z\n")
SQUARE_W = ("algebra square_w\nchar 2\nmode commutative\ngen x 1\ngen w 2\n"
            "rel x^2+w\n")
# here the term order does not list the monomials by factor count: the
# same elimination over them unsorted would read dim I^3 as 20, not 21
UNSORTED = ("algebra unsorted\nchar 2\nmode commutative\ngen x 1\ngen y 2\n"
            "gen z 2\nrel x^2*y+y^2+x^2*z\nrel x^3+x*y\n")
# power filtrations at the default bound, 10 for each
MIXED_FILTRATIONS = {
    ASSOC_P3: [97, 95, 91, 84, 72, 52, 26, 11, 4, 1],
    CUBIC: [90, 87, 82, 75, 66, 55, 44, 33, 22, 11],
    SQUARE_W: [10, 9, 8, 7, 6, 5, 4, 3, 2, 1],
    UNSORTED: [28, 25, 21, 16, 11, 6, 4, 3, 2, 1],
}


def _factor_count(T, mono) -> int:
    return sum(mono) if T.mode == "commutative" else len(mono)


def _normal_forms(T, n) -> dict:
    return {m: T.reduce_poly({m: 1})[n]
            for m in T.presentation.monomials_of_degree(n)}


def _filtration_by_definition(T) -> list:
    """dim I^c for c = 1..bound: in each degree, the rank of the normal
    forms of the monomials with at least c factors, one reference rref
    per c (not `gfp.rref`, which shares the engine's kernel)."""
    forms = {n: _normal_forms(T, n) for n in range(1, T.bound + 1)}
    dims = []
    for c in range(1, T.bound + 1):
        total = 0
        for n, nf in forms.items():
            rows = [v for m, v in nf.items() if _factor_count(T, m) >= c]
            if rows:
                mat = np.reshape(rows, (len(rows), T.dim(n)))
                total += len(_reference_rref(mat, T.p)[1])
        dims.append(total)
    return dims


def test_power_filtration_matches_its_definition(corpus):
    # commutative and associative presentations at p = 2, 3, 5 and 7, the
    # corpus and the rings whose relations mix factor counts
    rng = random.Random(8821)
    engines = [TruncatedAlgebra(pres, 10) for pres in corpus.values()]
    engines += [TruncatedAlgebra(random_presentation(rng), 6)
                for _ in range(150)]
    engines += [TruncatedAlgebra(_random_associative(rng), 5)
                for _ in range(150)]
    engines += [TruncatedAlgebra(parse(text)) for text in MIXED_FILTRATIONS]
    # at p = 5 and 7 the re-keyed forward pass scales rows by inverses
    # other than 1
    engines += [TruncatedAlgebra(_random_presentation(rng, p, mode), bound)
                for p in (5, 7)
                for mode, bound in (("commutative", 6), ("associative", 5))
                for _ in range(40)]
    assert {(T.mode, T.p) for T in engines} == {
        (mode, p) for mode in ("commutative", "associative")
        for p in (2, 3, 5, 7)}
    for T in engines:
        assert T.power_filtration_dims() == _filtration_by_definition(T), (
            T.presentation)


def _mixed_degrees(T) -> list:
    """The degrees whose forward rows mix factor counts."""
    mixed = []
    for n in range(1, T.bound + 1):
        monos = T._monomials(n)
        if any(len({_factor_count(T, monos[j]) for j in row}) > 1
               for row in T._degree(n).lead.values()):
            mixed.append(n)
    return mixed


SCREENED = [None, ASSOC_COMM, *MIXED_FILTRATIONS]


def test_filtration_runs_one_forward_pass_where_factor_counts_mix(
        corpus, monkeypatch):
    # once the degrees are reduced, the filtration builds no normal form
    # and runs no rref: it takes one forward pass in each degree whose
    # forward rows mix factor counts, over that degree's rows, and none
    # elsewhere; F2[x, y, z] has no relations and takes none at all
    passes, others = [], []

    def counted(rows, p):
        rows = list(rows)
        passes.append(len(rows))
        return forward(rows, p)
    monkeypatch.setattr(truncated, "forward", counted)
    monkeypatch.setattr(truncated, "back_substitute",
                        lambda *args: others.append(args))
    monkeypatch.setattr(gfp, "rref", lambda *args: others.append(args))
    assert not hasattr(truncated, "rref")
    for text in SCREENED:
        pres = corpus["c2c2c2"] if text is None else parse(text)
        T = TruncatedAlgebra(pres, 10)
        T.dims()
        mixed = _mixed_degrees(T)
        passes.clear()
        filtration = T.power_filtration_dims()
        assert passes == [len(T._degree(n).lead) for n in mixed], pres
        assert others == []
        if text in MIXED_FILTRATIONS:
            assert filtration == MIXED_FILTRATIONS[text]
            assert 0 < len(mixed) < T.bound
        elif text is None:
            assert mixed == []
            assert filtration == [sum((n + 1) * (n + 2) // 2
                                      for n in range(c, 11))
                                  for c in range(1, 11)]


def test_dims_and_filtration_build_no_normal_form(corpus):
    # a normal form is back-substituted only when a reader asks for one;
    # neither the dims nor the filtration does
    for text in SCREENED:
        pres = corpus["c2c2c2"] if text is None else parse(text)
        T = TruncatedAlgebra(pres, 10)
        T.dims()
        T.power_filtration_dims()
        assert [n for n, d in enumerate(T._degrees) if d.reduced] == [], pres


def test_a_reduction_that_raises_leaves_its_degree_unreduced(monkeypatch):
    # degree 3 of UNSORTED is the first with relation rows; its
    # elimination raises once, after its monomials and relation rows are
    # built, so the degree must stay unreduced: the next read reduces it
    # again, and the engine then reads as a fresh one does
    eliminated, raised = [], []

    def raising_once(rows, p):
        rows = [sorted(dict(r).items()) for r in rows]
        eliminated.append(rows)
        if rows and not raised:
            raised.append(rows)
            raise RuntimeError("interrupted")
        return forward(rows, p)
    monkeypatch.setattr(truncated, "forward", raising_once)
    T = TruncatedAlgebra(parse(UNSORTED))
    fresh = TruncatedAlgebra(parse(UNSORTED))
    with pytest.raises(RuntimeError, match="interrupted"):
        T.power_filtration_dims()
    assert raised == [eliminated[-1]]
    # one relation row, x^3 + x*y, over the 3 monomials of degree 3
    assert len(T._monomials(3)) == 3
    assert [[j < 3 for j, _ in row] for row in raised[0]] == [[True, True]]
    assert T.dim(3) == fresh.dim(3)
    assert eliminated[-2:] == raised * 2   # reduced again, from the same rows
    assert (T.power_filtration_dims() == fresh.power_filtration_dims()
            == MIXED_FILTRATIONS[UNSORTED])
    for n in range(T.bound + 1):
        assert T.basis(n) == fresh.basis(n)
        got, want = _normal_forms(T, n), _normal_forms(fresh, n)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[m], want[m]) for m in got)


def _reference_relation_rows(P, n):
    """Degree n's relation rows built from tuples, the reference of the
    engine's integer arithmetic: each cofactor multiple of each relation by
    `mono_mul` in commutative mode and by word concatenation in associative
    mode, its monomials looked up in a tuple-keyed index of the walk's
    listing, each row kept once, in the engine's order.  Returns the rows
    and that listing."""
    monos = walk_monomials(P.gens, n, P.mode, P.p)
    index = {m: j for j, m in enumerate(monos)}
    ext = exterior_mask(P.gens, P.p, P.mode)
    rows: dict = {}
    for rel in P.relations:
        terms = [(m, c % P.p) for m, c in rel.items() if c % P.p]
        if not terms or P.poly_degree(rel) > n:
            continue
        r = P.poly_degree(rel)
        if P.mode == COMMUTATIVE:
            for cof in walk_monomials(P.gens, n - r, P.mode, P.p):
                row = []
                for m, c in terms:
                    sign, mm = mono_mul(cof, m, P.gens, P.mode, P.p, ext)
                    if sign:
                        row.append((index[mm], (sign * c) % P.p))
                if row:
                    rows[tuple(row)] = None
        else:
            for a in range(n - r + 1):
                for u in walk_monomials(P.gens, a, P.mode, P.p):
                    for v in walk_monomials(P.gens, n - r - a, P.mode, P.p):
                        rows[tuple((index[u + m + v], c)
                                   for m, c in terms)] = None
    return list(rows), monos


def _reference_forms(P, n):
    """Degree n's normal forms, one row per monomial in term order, from
    `_reference_rref` of its reference relation rows: the identity on the
    standard monomials, minus the reduced row off the pivot elsewhere.
    Returns them and the standard monomials."""
    rows, monos = _reference_relation_rows(P, n)
    mat = np.zeros((len(rows), len(monos)), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row:
            mat[i, j] = v
    R, pivots = _reference_rref(mat, P.p)
    free = [j for j in range(len(monos)) if j not in pivots]
    forms = np.eye(len(monos), dtype=np.int64)[:, free]
    forms[pivots] = -R[:, free] % P.p
    return forms, [monos[j] for j in free]


def test_normal_forms_read_in_any_order_match_the_reference():
    # rows read one at a time in a shuffled order, and the matrix of every
    # row read after some rows and before the others, give the normal
    # forms of an independent reduction, in both modes at p = 2, 3 and 5
    rng = random.Random(4409)
    for p in (2, 3, 5):
        for mode, bound in (("commutative", 6), ("associative", 5)):
            for _ in range(8):
                pres = _random_presentation(rng, p, mode)
                lazy, whole = (TruncatedAlgebra(pres, bound) for _ in "ab")
                reference = {n: _reference_forms(pres, n)
                             for n in range(bound + 1)}
                want = {n: forms for n, (forms, _) in reference.items()}
                reads = [(n, j, m) for n in want
                         for j, m in enumerate(lazy._monomials(n))]
                for n, j, m in rng.sample(reads, len(reads)):
                    assert np.array_equal(lazy.reduce_poly({m: 1})[n],
                                          want[n][j]), (pres, n, m)
                    assert lazy.vanishes(m) == (not want[n][j].any())
                for n, forms in want.items():
                    monos = whole._monomials(n)
                    early = rng.sample(range(len(monos)), len(monos) // 2)
                    for j in early:
                        whole.reduce_poly({monos[j]: 1})
                    d = whole._degree(n)
                    assert np.array_equal(d.rows(range(len(monos))), forms)
                    for j in range(len(monos)):
                        assert np.array_equal(
                            whole.reduce_poly({monos[j]: 1})[n], forms[j])
                    assert whole.basis(n) == reference[n][1]


def _with_exterior_square(p):
    """x of degree 1 and y of degree 2 at odd p, with the relation
    x^2 + y, whose first term squares the exterior x and so is zero."""
    free = parse(LAMBDA_TENSOR.replace("char 3", f"char {p}"))
    return dataclasses.replace(free, relations=({(2, 0): 1, (0, 1): 1},))


def test_rows_and_tables_match_the_tuple_construction():
    # the engine's relation rows, read as (monomial, value) pairs, and
    # every multiplication table equal those the tuple construction gives,
    # at p = 2, 3 and 5 in both modes, with exterior generators and
    # generators of mixed degrees
    rng = random.Random(5153)
    presentations = [_random_presentation(rng, p, mode)
                     for p in (2, 3, 5)
                     for mode in ("commutative", "associative")
                     for _ in range(12)]
    presentations += [parse(text) for text in MIXED_FILTRATIONS]
    presentations += [parse(LAMBDA_TENSOR), _with_exterior_square(3),
                      _with_exterior_square(5)]
    seen = set()
    for pres in presentations:
        bound = 6 if pres.mode == COMMUTATIVE else 5
        T = TruncatedAlgebra(pres, bound)
        ext = exterior_mask(pres.gens, pres.p, pres.mode)
        seen.add((pres.p, pres.mode, any(ext),
                  len(set(pres.gens.degrees)) > 1))
        forms = {}
        for n in range(bound + 1):
            want, monos = _reference_relation_rows(pres, n)
            assert T._monomials(n) == monos
            assert ([{(monos[j], v) for j, v in row}
                     for row in T._relation_rows(n)]
                    == [{(monos[j], v) for j, v in row} for row in want])
            forms[n] = _reference_forms(pres, n)
            assert T.basis(n) == forms[n][1]
        for a in range(1, bound):
            for b in range(1, bound - a + 1):
                nf, index = forms[a + b][0], {
                    m: j for j, m in enumerate(T._monomials(a + b))}
                want = np.zeros((T.dim(a), T.dim(b), T.dim(a + b)),
                                dtype=np.int64)
                for i, u in enumerate(forms[a][1]):
                    for j, v in enumerate(forms[b][1]):
                        sign, m = mono_mul(u, v, pres.gens, pres.mode,
                                           pres.p, ext)
                        if sign:
                            want[i, j] = sign * nf[index[m]] % pres.p
                assert np.array_equal(T.table(a, b), want), (pres, a, b)
    for mode in ("commutative", "associative"):
        assert {p for p, m, _, _ in seen if m == mode} == {2, 3, 5}
        assert any(mixed for _, m, _, mixed in seen if m == mode)
    assert {p for p, _, exterior, _ in seen if exterior} == {3, 5}


def test_a_monomial_that_squares_an_exterior_generator_is_zero():
    # at odd p an odd-degree generator squares to zero, so a monomial that
    # holds its square, whatever the power, reads as zero and adds nothing
    # to a polynomial, in degrees with pivots and without
    for p in (3, 5):
        free = parse(LAMBDA_TENSOR.replace("char 3", f"char {p}"))
        for pres in (free, _with_exterior_square(p)):
            T = TruncatedAlgebra(pres, 10)
            for m in ((2, 0), (3, 0), (2, 1), (4, 0), (5, 2), (10, 0)):
                n = m[0] + 2 * m[1]
                assert T.is_zero({m: 1}), (pres, m)
                assert T.vanishes(m), (pres, m)
                assert T.element({m: 1}) is None, (pres, m)
                assert not T.reduce_poly({m: 2})[n].any(), (pres, m)
        T = TruncatedAlgebra(free, 10)
        assert np.array_equal(T.element({(1, 1): 2, (3, 0): 1})[1],
                              T.element({(1, 1): 2})[1])
        assert not T.vanishes((1, 4)) and not T.is_zero({(0, 5): 1})


def test_a_malformed_monomial_raises():
    # a tuple that is no monomial of the algebra raises KeyError, in a
    # degree with pivots and without, so it never reads as another one
    comm = TruncatedAlgebra(parse(LAMBDA_TENSOR), 10)
    assoc = TruncatedAlgebra(parse(ASSOC_COMM), 6)
    for T, bad in ((comm, [(2,), (1, 0, 0), (-1, 1), (3, -1)]),
                   (assoc, [(-1,), (0, -2), (2,), (0, 2)])):
        for m in bad:
            with pytest.raises(KeyError):
                T.reduce_poly({m: 1})
            with pytest.raises(KeyError):
                T.vanishes(m)
