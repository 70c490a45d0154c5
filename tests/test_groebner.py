import random
import signal
import tracemalloc

import numpy as np
import pytest

import finalg
from finalg.errors import ResourceLimitError
from finalg.groebner import (annihilator, eliminate, groebner_basis,
                             normal_form, series_of_quotient,
                             standard_monomials)
from finalg.hilbert import RationalSeries, equal
from finalg.present import (COMMUTATIVE, GeneratorSet, Presentation, parse,
                            poly_canon)
from finalg.truncated import TruncatedAlgebra
from tests.conftest import brute_basis


def test_groebner_frozen_example():
    # ideal (xy, x^2 + y^2) in GF(2)[x,y] completes with y^3
    pres = parse("algebra g\nchar 2\nmode commutative\ngen x 1\ngen y 1\n"
                 "rel x*y\nrel x^2 + y^2\n")
    G = groebner_basis(pres)
    assert G.complete
    leads = {max(g, key=lambda m: finalg.present.mono_key(m, pres.gens, pres.mode))
             for g in G.polys}
    assert (0, 3) in leads  # y^3
    assert not G.normal_form(pres.parse_poly("y^3"))
    assert not G.normal_form(pres.parse_poly("x^3"))
    dims = [len(standard_monomials(G, n)) for n in range(5)]
    assert dims == [1, 2, 1, 0, 0]
    series = series_of_quotient(G)
    assert equal(series, RationalSeries((1, 2, 1), (1,)))


_ODD = ("algebra m\nchar 3\nmode commutative\ngen x 1\ngen y 2\nrel x*y\n",
        "algebra n\nchar 5\nmode commutative\ngen a 1\ngen b 1\ngen c 2\n"
        "rel a*b + 2*c\nrel c^2 + a*b*c\n")


def test_monic_and_interreduced(corpus):
    # default and block orders; each poly is monic, already in poly_canon
    # order, and G.leads[i] is its leading monomial
    for pres in [*corpus.values(), *map(parse, _ODD)]:
        bases = [groebner_basis(pres)] + [
            eliminate(pres, (i,), degree_cap=8)[1]
            for i in range(len(pres.gens))]
        for G in bases:
            key = G.key()
            assert len(G.leads) == len(G.polys)
            for g, lm in zip(G.polys, G.leads):
                assert lm == max(g, key=key) and g[lm] == 1
                canon = poly_canon(g, pres.gens, pres.mode, pres.p)
                assert list(g.items()) == list(canon.items())
                for other in G.leads:
                    if other is not lm:
                        assert not finalg.present.mono_divides(other, lm)


def test_normal_form_of_unsorted_unreduced_input(corpus):
    rng = random.Random(61)
    for pres in [corpus["q8"], corpus["d8"], *map(parse, _ODD)]:
        G = groebner_basis(pres)
        for _ in range(10):
            monos = pres.monomials_of_degree(rng.randint(2, 6))
            f = {m: rng.randrange(pres.p) for m in monos}
            canon = poly_canon(f, pres.gens, pres.mode, pres.p)
            # increasing order, coefficients shifted by multiples of p
            raw = {m: c + pres.p * rng.randint(1, 3)
                   for m, c in reversed(list(f.items()))}
            want = G.normal_form(canon)
            for got in (G.normal_form(raw),
                        finalg.groebner.normal_form(raw, list(G.polys), pres)):
                assert list(got.items()) == list(want.items())


def test_standard_monomials_match_truncated_dims(corpus):
    for name, pres in corpus.items():
        G = groebner_basis(pres)
        T = TruncatedAlgebra(pres, 8)
        for n in range(9):
            assert len(standard_monomials(G, n)) == T.dim(n), (name, n)


def test_normal_form_agrees_with_truncated_is_zero(corpus):
    rng = random.Random(83)
    for name, pres in corpus.items():
        G = groebner_basis(pres)
        T = TruncatedAlgebra(pres, 8)
        for _ in range(15):
            deg = rng.randint(1, 6)
            monos = pres.monomials_of_degree(deg)
            if not monos:
                continue
            poly = {m: rng.randrange(pres.p) for m in monos
                    if rng.random() < 0.5}
            poly = {m: c for m, c in poly.items() if c}
            assert (not G.normal_form(poly)) == T.is_zero(poly), name


def test_odd_characteristic_exterior_squares():
    # two odd generators, zero ideal: implicit squares shape the quotient
    pres = parse("algebra ext2\nchar 3\nmode commutative\ngen x 1\ngen y 1\n")
    G = groebner_basis(pres)
    assert G.complete and G.polys == ()
    assert [len(standard_monomials(G, n)) for n in range(4)] == [1, 2, 1, 0]
    series = series_of_quotient(G)
    assert equal(series, RationalSeries((1, 2, 1), (1,)))


def test_normal_form_drops_exterior_squares():
    # at p = 3 a term that squares the degree-1 x is zero: a reduction
    # that divided it by a lead would add nothing and loop, and one that
    # kept it would return it; an alarm turns a hang into a failure
    def hung(signum, frame):
        raise TimeoutError("normal form did not return")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        P = parse("algebra e\nchar 3\nmode commutative\ngen x 1\nrel x\n")
        assert groebner_basis(P).normal_form({(2,): 1}) == {}
        Q = parse("algebra f\nchar 3\nmode commutative\ngen x 1\ngen y 2\n"
                  "rel x*y\n")
        G = groebner_basis(Q)
        assert normal_form({(2, 0): 1}, G.polys, Q) == {}
        assert G.normal_form({(2, 0): 1}) == {}
        assert G.normal_form({(2, 1): 1, (0, 1): 2}) == {(0, 1): 2}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_odd_characteristic_spair_from_implicit_square():
    # rel x*y with x odd: x*(xy) = 0 yields no new data, but y^2*x survives
    pres = parse("algebra m\nchar 3\nmode commutative\n"
                 "gen x 1\ngen y 2\nrel x*y\n")
    G = groebner_basis(pres)
    assert G.complete
    T = TruncatedAlgebra(pres, 8)
    for n in range(9):
        assert len(standard_monomials(G, n)) == T.dim(n)


def test_eliminate_frozen(corpus):
    c4 = corpus["c4"]
    kept, _ = eliminate(c4, [c4.gens.index("x")], degree_cap=6)
    assert [c4.format_poly(g) for g in kept] == ["x^2"]
    kept, _ = eliminate(c4, [c4.gens.index("y")], degree_cap=6)
    assert kept == []
    d8 = corpus["d8"]
    kept, _ = eliminate(d8, [d8.gens.index("x")], degree_cap=6)
    assert kept == []
    q8 = corpus["q8"]
    kept, _ = eliminate(q8, [q8.gens.index("x")], degree_cap=8)
    assert any(q8.format_poly(g) == "x^3" for g in kept)


def test_eliminate_pair_subset(corpus):
    d8 = corpus["d8"]
    idx = [d8.gens.index("x"), d8.gens.index("y")]
    kept, _ = eliminate(d8, idx, degree_cap=6)
    assert [d8.format_poly(g) for g in kept] == ["x*y"]


def ann_dims_by_tables(pres, ideal_polys, cap, max_dim=None):
    """Annihilator dims through the truncated engine only.

    For each degree n, stack the multiplication-by-f maps out of component
    n and count the kernel by rank-nullity over a brute-force basis;
    independent of the Groebner route and of `gfp`.  An f that is zero in
    the quotient adds no map.  A degree of dimension above `max_dim` is
    skipped and reads None.
    """
    fs = [pres.parse_poly(s) for s in ideal_polys]
    T = TruncatedAlgebra(pres, cap + max(pres.poly_degree(f) for f in fs))
    dims = []
    for n in range(cap + 1):
        dim_n = T.dim(n)
        if max_dim is not None and dim_n > max_dim:
            dims.append(None)
            continue
        if dim_n == 0:
            dims.append(0)
            continue
        blocks = []
        for f in fs:
            fd = pres.poly_degree(f)
            fv = T.element(f)
            if fv is None:
                continue
            rows = []
            for i in range(dim_n):
                basis_vec = np.zeros(dim_n, dtype=np.int64)
                basis_vec[i] = 1
                rows.append(T.multiply_vec(n, basis_vec, fd, fv[1]))
            blocks.append(np.array(rows, dtype=np.int64))
        if not blocks:
            dims.append(dim_n)
            continue
        stacked = np.concatenate(blocks, axis=1)
        dims.append(dim_n - len(brute_basis(stacked, pres.p)))
    return dims


def test_annihilator_against_table_oracle(corpus):
    cases = [
        ("c4", ["x"]),
        ("c4", ["y"]),
        ("d8", ["x"]),
        ("d8", ["x", "y"]),
        ("q8", ["x"]),
        ("q8", ["x + y"]),
        ("c4c2", ["x"]),
    ]
    for name, ideal in cases:
        pres = corpus[name]
        G = groebner_basis(pres)
        polys = [pres.parse_poly(s) for s in ideal]
        got = list(annihilator(G, polys, 6))
        want = ann_dims_by_tables(pres, ideal, 6)
        assert got == want, (name, ideal)


def _random_poly(rng, gens, deg, p):
    monos = finalg.present.monomials_of_degree(gens, deg, COMMUTATIVE, p)
    return poly_canon({m: rng.randrange(p) for m in monos}, gens,
                      COMMUTATIVE, p)


def test_annihilator_against_table_oracle_on_random_presentations():
    # degree-1 generators are exterior at odd p; an ideal element equal to
    # a relation is zero in the quotient and contributes nothing
    rng = random.Random(4111)
    compared = zero_elements = 0
    for k in range(60):
        p = (2, 3, 5)[k % 3]
        degrees = (1,) + tuple(rng.randint(1, 2)
                               for _ in range(rng.randint(0, 3)))
        gens = GeneratorSet.from_pairs(list(zip("xyzw", degrees)))
        rels = [_random_poly(rng, gens, rng.randint(2, 4), p)
                for _ in range(rng.randint(k % 4 == 0, 2))]
        rels = tuple(r for r in rels if r)
        pres = Presentation(name=f"r{k}", p=p, mode=COMMUTATIVE, gens=gens,
                            relations=rels)
        ideal = []
        while len(ideal) < 1 + k // 3 % 2:
            f = _random_poly(rng, gens, rng.randint(1, 3), p)
            if f:
                ideal.append(pres.format_poly(f))
        if k % 4 == 0 and rels:
            ideal[-1] = pres.format_poly(rels[0])
            zero_elements += 1
        want = ann_dims_by_tables(pres, ideal, 6, max_dim=8)
        got = annihilator(groebner_basis(pres),
                          [pres.parse_poly(s) for s in ideal], 6)
        for n, (g, w) in enumerate(zip(got, want)):
            if w is not None:
                assert g == w, (pres.p, degrees, rels, ideal, n)
                compared += 1
    assert zero_elements >= 10 and compared >= 300


def test_annihilator_keeps_no_dense_matrix():
    gens = "".join(f"gen x{i} 1\n" for i in range(1, 7))
    pres = parse(f"algebra a\nchar 2\nmode commutative\n{gens}rel x1^2\n")
    G = groebner_basis(pres)
    tracemalloc.start()
    try:
        dims = annihilator(G, [pres.parse_poly("x1")], 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # x1 kills exactly x1 times the monomials of degree n - 1 in x2..x6
    assert dims == (0, 1, 5, 15, 35, 70, 126, 210)
    assert peak < 2 * 2**20


def test_annihilator_frozen_c4(corpus):
    c4 = corpus["c4"]
    G = groebner_basis(c4)
    # x kills exactly the odd-degree lines x*y^k
    assert annihilator(G, [c4.parse_poly("x")], 7) == (0, 1, 0, 1, 0, 1, 0, 1)


def test_annihilator_of_zero_divisor_free_generator(corpus):
    c2c2 = corpus["c2c2"]
    G = groebner_basis(c2c2)
    assert annihilator(G, [c2c2.parse_poly("x")], 6) == (0,) * 7


def test_degree_cap_marks_truncation():
    pres = parse("algebra g\nchar 2\nmode commutative\ngen x 1\ngen y 1\n"
                 "rel x*y\nrel x^2 + y^2\n")
    G = finalg.groebner.buchberger(pres, degree_cap=2)
    assert not G.complete
    assert G.truncated_at == 2
    with pytest.raises(ResourceLimitError):
        standard_monomials(G, 5)
    with pytest.raises(ResourceLimitError):
        series_of_quotient(G)


def test_pair_ceiling():
    # (xy, x^2 + y^2) spawns a second pair once y^3 enters the basis
    pres = parse("algebra big\nchar 2\nmode commutative\n"
                 "gen x 1\ngen y 1\nrel x*y\nrel x^2 + y^2\n")
    with pytest.raises(ResourceLimitError):
        finalg.groebner.buchberger(pres, pair_ceiling=1)


def test_buchberger_deterministic(corpus):
    for pres in corpus.values():
        G1 = groebner_basis(pres)
        G2 = groebner_basis(pres)
        assert G1.polys == G2.polys


def test_normal_form_is_linear(corpus):
    rng = random.Random(29)
    q8 = corpus["q8"]
    G = groebner_basis(q8)
    for _ in range(10):
        deg = rng.randint(2, 6)
        monos = q8.monomials_of_degree(deg)
        f = {m: rng.randrange(2) for m in monos if rng.random() < 0.5}
        g = {m: rng.randrange(2) for m in monos if rng.random() < 0.5}
        f = {m: c for m, c in f.items() if c}
        g = {m: c for m, c in g.items() if c}
        total = finalg.present.poly_add(f, g, q8.gens, q8.mode, 2)
        lhs = G.normal_form(total)
        rhs = finalg.present.poly_add(G.normal_form(f), G.normal_form(g),
                                      q8.gens, q8.mode, 2)
        assert lhs == rhs
