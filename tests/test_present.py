import random

import pytest

import finalg
from finalg.errors import ParseError
from finalg.present import (ASSOCIATIVE, COMMUTATIVE, GeneratorSet,
                            Presentation, format_poly, mono_mul,
                            monomials_of_degree, parse,
                            parse_poly, poly_mul, prefix_counts, serialize,
                            substitute)
from tests.conftest import (CORPUS8, FIXTURE_NAMES, free_algebra_dims,
                            walk_monomials)


def make_gens(pairs):
    return GeneratorSet.from_pairs(pairs)


def test_generator_set_sorting():
    gens = make_gens([("b", 2), ("a", 1), ("c", 1)])
    # degree first, then input position
    assert gens.names == ("a", "c", "b")
    assert gens.degrees == (1, 1, 2)
    assert gens.index("b") == 2


def test_generator_set_validation():
    with pytest.raises(ValueError):
        make_gens([("x", 0)])
    with pytest.raises(ValueError):
        make_gens([("x", 1), ("x", 2)])
    with pytest.raises(ValueError):
        make_gens([("2x", 1)])


def test_mono_mul_char2():
    gens = make_gens([("x", 1), ("y", 1)])
    sign, mono = mono_mul((1, 0), (0, 1), gens, COMMUTATIVE, 2)
    assert sign == 1 and mono == (1, 1)
    # char 2: squares of degree-1 generators survive
    sign, mono = mono_mul((1, 0), (1, 0), gens, COMMUTATIVE, 2)
    assert sign == 1 and mono == (2, 0)


def test_mono_mul_odd_characteristic_signs():
    gens = make_gens([("x", 1), ("y", 1)])
    # odd-degree generators square to zero at odd p
    sign, mono = mono_mul((1, 0), (1, 0), gens, COMMUTATIVE, 3)
    assert sign == 0 and mono is None
    # y*x picks up the transposition sign
    sign, mono = mono_mul((0, 1), (1, 0), gens, COMMUTATIVE, 3)
    assert sign == -1 and mono == (1, 1)
    # even-degree generators commute without signs
    gens2 = make_gens([("x", 1), ("y", 2)])
    sign, mono = mono_mul((0, 1), (1, 0), gens2, COMMUTATIVE, 3)
    assert sign == 1 and mono == (1, 1)


def test_parse_poly_signs():
    gens = make_gens([("x", 1), ("y", 1)])
    pres = Presentation(name="t", p=3, mode=COMMUTATIVE, gens=gens)
    assert pres.parse_poly("y*x") == {(1, 1): 2}
    assert pres.parse_poly("x*x") == {}
    assert pres.parse_poly("x^2") == {}
    assert pres.parse_poly("2*x*y + x*y") == {}
    assert pres.parse_poly("x*y - y*x") == {(1, 1): 2}
    # the liberal '-' after a '+', or before the first term
    assert pres.parse_poly("x+-y") == pres.parse_poly("x - y") == {
        (1, 0): 1, (0, 1): 2}
    assert pres.parse_poly("-x") == {(1, 0): 2}
    # but every sign needs a term after it, and '+' follows no sign
    for bad in ("x+", "x-", "x + ", "x++y", "x-+y", "+", "-"):
        with pytest.raises(ParseError):
            pres.parse_poly(bad)


def test_parse_poly_associative_keeps_word_order():
    gens = make_gens([("x", 1), ("y", 1)])
    pres = Presentation(name="t", p=2, mode=ASSOCIATIVE, gens=gens)
    assert pres.parse_poly("y*x") == {(1, 0): 1}
    assert pres.parse_poly("x*y + y*x") == {(0, 1): 1, (1, 0): 1}
    assert pres.format_poly(pres.parse_poly("y*x")) == "y*x"


def test_poly_mul_graded_commutativity():
    rng = random.Random(31)
    gens = make_gens([("x", 1), ("y", 1), ("z", 2)])
    for _ in range(40):
        p = rng.choice([2, 3])
        def random_poly(deg):
            monos = monomials_of_degree(gens, deg, COMMUTATIVE, p)
            return {m: rng.randrange(p) for m in monos if rng.random() < 0.7}
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        f = random_poly(da)
        g = random_poly(db)
        fg = poly_mul(f, g, gens, COMMUTATIVE, p)
        gf = poly_mul(g, f, gens, COMMUTATIVE, p)
        expect = 1 if (p == 2 or da % 2 == 0 or db % 2 == 0) else -1
        scaled = {m: (expect * c) % p for m, c in fg.items()}
        scaled = {m: c for m, c in scaled.items() if c}
        assert gf == scaled


def test_poly_mul_associative_property():
    rng = random.Random(67)
    gens = make_gens([("x", 1), ("y", 1)])
    for p, mode in [(2, COMMUTATIVE), (3, COMMUTATIVE), (2, ASSOCIATIVE)]:
        for _ in range(20):
            def rand(deg):
                monos = monomials_of_degree(gens, deg, mode, p)
                out = {m: rng.randrange(p) for m in monos}
                return {m: c for m, c in out.items() if c}
            f, g, h = rand(1), rand(1), rand(2)
            left = poly_mul(poly_mul(f, g, gens, mode, p), h, gens, mode, p)
            right = poly_mul(f, poly_mul(g, h, gens, mode, p), gens, mode, p)
            assert left == right


def test_monomials_of_degree_counts():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 3)
        names = ["x", "y", "z"][:n]
        degrees = [rng.randint(1, 3) for _ in range(n)]
        gens = make_gens(list(zip(names, degrees)))
        p = rng.choice([2, 3])
        exterior = [p != 2 and d % 2 == 1 for d in degrees]
        want = free_algebra_dims(degrees, exterior, 7)
        for deg in range(1, 8):
            monos = monomials_of_degree(gens, deg, COMMUTATIVE, p)
            assert len(monos) == want[deg], (degrees, p, deg)
            assert len(set(monos)) == len(monos)
            # listing is strictly descending in the canonical order
            keys = [finalg.present.mono_key(m, gens, COMMUTATIVE)
                    for m in monos]
            assert keys == sorted(keys, reverse=True)


def test_monomials_of_degree_associative():
    gens = make_gens([("x", 1), ("y", 1)])
    words = monomials_of_degree(gens, 3, ASSOCIATIVE, 2)
    assert len(words) == 8  # free words of length 3 on two letters
    # the walk lists words strictly descending in the canonical order,
    # which the truncated engine's columns rely on without sorting
    for pairs in ([("x", 1), ("y", 1)], [("x", 1), ("y", 2), ("z", 1)]):
        gens = make_gens(pairs)
        for deg in range(1, 7):
            keys = [finalg.present.mono_key(m, gens, ASSOCIATIVE)
                    for m in monomials_of_degree(gens, deg, ASSOCIATIVE, 2)]
            assert all(a > b for a, b in zip(keys, keys[1:])), deg


def test_monomials_of_degree_exterior_order():
    # x and y are exterior at p = 3: no squares, and the listing is
    # strictly descending, last generator's exponent ascending first
    gens = make_gens([("x", 1), ("y", 1), ("u", 2)])
    assert monomials_of_degree(gens, 3, COMMUTATIVE, 3) == [
        (1, 0, 1), (0, 1, 1)]
    assert monomials_of_degree(gens, 4, COMMUTATIVE, 3) == [
        (1, 1, 1), (0, 0, 2)]
    for deg in range(1, 9):
        monos = monomials_of_degree(gens, deg, COMMUTATIVE, 3)
        assert all(max(m[:2]) <= 1 for m in monos)
        keys = [finalg.present.mono_key(m, gens, COMMUTATIVE) for m in monos]
        assert all(a > b for a, b in zip(keys, keys[1:])), deg


def test_monomial_counts_match_the_listings():
    # mixed degrees, with degree-1 and degree-3 generators exterior at p = 3
    for pairs in ([("x", 1)], [("x", 2)], [("x", 1), ("y", 1)],
                  [("x", 1), ("y", 2), ("z", 3)],
                  [("x", 1), ("y", 1), ("u", 2), ("w", 3)],
                  [("a", 2), ("b", 3), ("c", 3), ("d", 4)]):
        gens = make_gens(pairs)
        for mode in (COMMUTATIVE, ASSOCIATIVE):
            for p in (2, 3):
                counts = prefix_counts(gens, 12, mode, p)[-1]
                want = [len(monomials_of_degree(gens, n, mode, p))
                        for n in range(13)]
                assert counts == want, (pairs, mode, p)


def test_lister_matches_the_walks():
    # p = 2, 3, 5, 7 in both modes, with exterior generators (odd degree
    # at odd p) and mixed degrees, against the one-degree walks
    for pairs in ([("x", 1)], [("x", 3)], [("x", 1), ("y", 1)],
                  [("x", 1), ("y", 2), ("z", 3)],
                  [("x", 1), ("y", 1), ("u", 2), ("w", 3)],
                  [("a", 2), ("b", 3), ("c", 3), ("d", 4)],
                  [("a", 1), ("b", 1), ("c", 1), ("d", 5)]):
        gens = make_gens(pairs)
        for mode in (COMMUTATIVE, ASSOCIATIVE):
            for p in (2, 3, 5, 7):
                for n in range(13):
                    assert monomials_of_degree(gens, n, mode, p) == (
                        walk_monomials(gens, n, mode, p)), (pairs, mode, p, n)
    gens = make_gens([("x", 1)])
    assert monomials_of_degree(gens, -1, COMMUTATIVE, 2) == []


def test_prefix_counts_count_each_prefix():
    gens = make_gens([("x", 1), ("y", 2), ("z", 3)])
    for mode in (COMMUTATIVE, ASSOCIATIVE):
        for p in (2, 3):
            rows = prefix_counts(gens, 9, mode, p)
            assert rows[0] == [1] + [0] * 9
            for i in range(1, len(rows)):
                front = make_gens(list(zip(gens.names[:i], gens.degrees[:i])))
                assert rows[i] == [len(walk_monomials(front, n, mode, p))
                                   for n in range(10)]


def test_substitute_is_multiplicative():
    rng = random.Random(71)
    gens = make_gens([("x", 1), ("y", 2)])
    for p in (2, 3):
        images = [
            parse_poly("x", gens, COMMUTATIVE, p),
            parse_poly("y + x^2", gens, COMMUTATIVE, p) if p == 2
            else parse_poly("2*y", gens, COMMUTATIVE, p),
        ]
        for _ in range(25):
            def rand(deg):
                monos = monomials_of_degree(gens, deg, COMMUTATIVE, p)
                out = {m: rng.randrange(p) for m in monos}
                return {m: c for m, c in out.items() if c}
            f = rand(rng.randint(1, 3))
            g = rand(rng.randint(1, 3))
            fg = poly_mul(f, g, gens, COMMUTATIVE, p)
            sub_fg = substitute(fg, images, gens, gens, COMMUTATIVE, p)
            prod = poly_mul(
                substitute(f, images, gens, gens, COMMUTATIVE, p),
                substitute(g, images, gens, gens, COMMUTATIVE, p),
                gens, COMMUTATIVE, p)
            assert sub_fg == prod


def test_parse_corpus_roundtrip():
    for name in FIXTURE_NAMES:
        text = (CORPUS8 / f"{name}.alg").read_text()
        pres = parse(text)
        again = parse(serialize(pres))
        assert again.name == pres.name
        assert again.gens == pres.gens
        assert again.relations == pres.relations
        assert again.p == pres.p and again.mode == pres.mode


def test_parse_full_presentation():
    pres = parse("""
# comment line
algebra sample
char 3
mode commutative
gen x 1
gen y 2
rel x * y
nilradical x
series 1+t / 1-t^2
meta origin handwritten
""")
    assert pres.name == "sample"
    assert pres.relations == ({(1, 1): 1},)
    assert pres.nilradical == ({(1, 0): 1},)
    assert pres.declared_series is not None
    assert dict(pres.meta)["origin"] == "handwritten"


def test_parse_errors_carry_line_numbers():
    # (text, line of the error or None, a fragment of its message)
    cases = [
        ("algebra a\nchar 4\nmode commutative\ngen x 1\n", 2, "not prime"),
        ("algebra a\nchar 2\nmode weird\ngen x 1\n", 3,
         "mode must be commutative or associative"),
        ("algebra a\nchar 2\nmode commutative\ngen x 0\n", 4,
         "generator degree must be a positive integer"),
        ("algebra a\nchar 2\nmode commutative\ngen x 1\ngen x 2\n", 5,
         "duplicate generator"),
        ("algebra a\nchar 2\nmode commutative\ngen x 1\nrel q\n", 5,
         "unknown generator"),
        ("algebra a\nchar 2\nmode commutative\ngen x 1\nrel x^2+\n", 5,
         "sign without a term"),
        ("algebra a\nchar 2\nmode commutative\n", None,
         "at least one gen line"),
        ("char 2\nmode commutative\ngen x 1\n", None, "missing algebra line"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.line == line, text
        assert fragment in str(info.value), text


def test_inhomogeneous_relation_rejected_with_line():
    text = "algebra a\nchar 2\nmode commutative\ngen x 1\ngen y 2\nrel x + y\n"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == 6
    assert "line 6" in str(info.value)


def test_degree_zero_relation_rejected():
    with pytest.raises(ParseError):
        parse("algebra a\nchar 2\nmode commutative\ngen x 1\nrel 1\n")


def test_format_poly_zero_and_terms():
    gens = make_gens([("x", 1), ("y", 2)])
    assert format_poly({}, gens, COMMUTATIVE, 2) == "0"
    poly = parse_poly("y + x^2", gens, COMMUTATIVE, 2)
    text = format_poly(poly, gens, COMMUTATIVE, 2)
    assert parse_poly(text, gens, COMMUTATIVE, 2) == poly
