import math
import random
from fractions import Fraction

import pytest

from finalg import fingerprint, hilbert, parse
from finalg.errors import ParseError
from finalg.hilbert import (RationalSeries, count_nonzero_vectors,
                            dims_from_series, equal, format_int_poly,
                            monomial_ideal_numerator, parse_int_poly,
                            parse_series, quotient_series)
from tests.conftest import (CORPUS4, CORPUS8, naive_division,
                            quotient_monomial_dims)


def test_parse_int_poly():
    assert parse_int_poly("1") == (1,)
    assert parse_int_poly("1-2t+t^2") == (1, -2, 1)
    assert parse_int_poly("t^3") == (0, 0, 0, 1)
    assert parse_int_poly("-t + 3") == (3, -1)
    assert parse_int_poly("2t^2+t^2") == (0, 0, 3)


def test_parse_int_poly_errors():
    for bad in ("", "t^", "2tt", "x+1", "t^-2", "+"):
        with pytest.raises(ParseError):
            parse_int_poly(bad)


def test_format_roundtrip():
    rng = random.Random(23)
    for _ in range(50):
        coeffs = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 6)))
        text = format_int_poly(coeffs)
        back = parse_int_poly(text)
        trimmed = coeffs
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        assert back == trimmed


def test_canonical_reduction():
    s = RationalSeries((2, -2), (2,)).canonical()
    assert (s.num, s.den) == ((1, -1), (1,))
    s = RationalSeries((1, 0, -1), (1, -1)).canonical()
    assert (s.num, s.den) == ((1, 1), (1,))
    # leading denominator sign normalizes positive at t=0
    s = RationalSeries((1,), (-1, 1)).canonical()
    assert s.den[0] > 0


def test_series_equality_cross_multiplication():
    a = RationalSeries((1,), (1, -1))
    b = RationalSeries((1, 1), (1, 0, -1))
    assert equal(a, b)
    assert not equal(a, RationalSeries((1,), (1, 0, -1)))


def test_dims_from_series_known():
    geo = RationalSeries((1,), (1, -1))
    assert dims_from_series(geo, 6) == [1] * 7
    plane = RationalSeries((1,), (1, -2, 1))
    assert dims_from_series(plane, 6) == [1, 2, 3, 4, 5, 6, 7]
    koszul = RationalSeries((1, 2, 2, 1), (1, 0, 0, 0, -1))
    assert dims_from_series(koszul, 9) == [1, 2, 2, 1, 1, 2, 2, 1, 1, 2]


def test_dims_from_series_matches_naive_division():
    rng = random.Random(41)
    for _ in range(60):
        num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        den = [rng.choice([1, -1])] + \
            [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
        series = RationalSeries(tuple(num), tuple(den))
        assert dims_from_series(series, 20) == naive_division(num, den, 20)
    # constant terms other than +-1, with and without integer coefficients
    cases = {"1 / 2-t": [Fraction(1, 2 ** (n + 1)) for n in range(21)],
             "2 / 2-2t": [1] * 21,
             "3+t / 3": [1, Fraction(1, 3)] + [0] * 19}
    for text, want in cases.items():
        series = parse_series(text)
        got = dims_from_series(series, 20)
        assert got == naive_division(series.num, series.den, 20) == want
        assert [type(c) for c in got] == [type(c) for c in want], text


def test_parse_series():
    s = parse_series("1+t / 1-t^2")
    assert isinstance(s, RationalSeries)
    assert dims_from_series(s, 4) == [1] * 5
    with pytest.raises(ParseError):
        parse_series("1+t")
    with pytest.raises(ParseError):
        parse_series("1 / 1-t / 1")
    for den in ("t", "0", "t-t^2"):
        with pytest.raises(ParseError, match="line 7"):
            parse_series(f"1 / {den}", line=7)


def test_count_nonzero_vectors_worked_values():
    # the worked candidate-space counts quote these exact factor values
    assert count_nonzero_vectors(2, 3) == 8
    assert count_nonzero_vectors(4, 3) == 80
    assert count_nonzero_vectors(6, 3) == 728
    assert count_nonzero_vectors(9, 3) == 19682
    assert count_nonzero_vectors(3, 2) == 7
    assert count_nonzero_vectors(7, 2) == 127
    assert count_nonzero_vectors(0, 5) == 0


def test_monomial_ideal_numerator_closed_forms():
    # principal ideal
    assert monomial_ideal_numerator([(2,)], (1,)) == (1, 0, -1)
    # pairwise coprime generators: product formula
    num = monomial_ideal_numerator([(2, 0), (0, 3)], (1, 1))
    expected = hilbert.poly_mul((1, 0, -1), (1, 0, 0, -1))
    assert num == expected
    # zero ideal
    assert monomial_ideal_numerator([], (1, 1)) == (1,)
    # whole ring: generator 1
    assert monomial_ideal_numerator([(0, 0)], (1, 1)) == (0,)


def test_quotient_series_examples():
    # one polynomial generator
    s = quotient_series([], (1,), (False,)).canonical()
    assert equal(s, RationalSeries((1,), (1, -1)))
    # square-zero class in degree 1 next to a polynomial class in degree 2
    s = quotient_series([(2, 0)], (1, 2), (False, False))
    assert equal(s, RationalSeries((1,), (1, -1)))
    # exterior generator contributes a (1 + t^d) factor
    s = quotient_series([], (1, 2), (True, False))
    assert equal(s, RationalSeries((1,), (1, -1)))
    s = quotient_series([], (1, 1), (True, True))
    assert equal(s, RationalSeries((1, 2, 1), (1,)))


def test_quotient_series_against_box_walk():
    rng = random.Random(97)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        degrees = tuple(rng.randint(1, 2) for _ in range(nvars))
        exterior = tuple(rng.random() < 0.3 for _ in range(nvars))
        leads = []
        for _ in range(rng.randint(0, 2)):
            exps = tuple(rng.randint(0, 1 if exterior[i] else 3)
                         for i in range(nvars))
            if any(exps):
                leads.append(exps)
        series = quotient_series(leads, degrees, exterior)
        got = dims_from_series(series, 8)
        want = quotient_monomial_dims(degrees, leads, exterior, 8)
        assert got == want, (degrees, exterior, leads)
        # returned unreduced: the same series as its lowest terms
        canon = series.canonical()
        assert equal(series, canon)
        assert dims_from_series(canon, 8) == got


def test_sparse_series_of_a_high_degree_generator():
    # two exterior lines at p = 3, of degrees 1 and 999: the unreduced
    # series (1-t^2)(1-t^1998) / (1-t)(1-t^999) expands to degree 1998
    pres = parse("algebra y999\nchar 3\nmode commutative\ngen x 1\n"
                 "gen y 999\n")
    fp = fingerprint(pres)
    assert fp.bound == 1998
    assert str(fp.series.canonical()) == "1+t+t^999+t^1000 / 1"
    want = [1 if n in (0, 1, 999, 1000) else 0 for n in range(1999)]
    assert dims_from_series(fp.series, 1998) == list(fp.dims) == want


# ------------------------------------ canonical form against its reference

def _fraction_gcd(a, b):
    """Primitive gcd, positive leading coefficient, by Euclid over Q: the
    reference of the library's integer pseudo-remainder sequence."""
    A = [Fraction(c) for c in a]
    B = [Fraction(c) for c in b]

    def trimf(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    A, B = trimf(A), trimf(B)
    while B:
        R = A[:]
        while len(R) >= len(B) and trimf(R):
            q = R[-1] / B[-1]
            shift = len(R) - len(B)
            for i, c in enumerate(B):
                R[shift + i] -= q * c
            R = trimf(R)
            if not R:
                break
        A, B = B, R
    den = math.lcm(*(c.denominator for c in A))
    ints = [int(c * den) for c in A]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    return tuple(-c for c in ints) if ints[-1] < 0 else tuple(ints)


def _fraction_div_exact(a, b):
    A = [Fraction(c) for c in a]
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = A[k + len(b) - 1] / b[-1]
        out[k] = q
        for i, c in enumerate(b):
            A[k + i] -= q * c
    assert not any(A) and all(c.denominator == 1 for c in out)
    return hilbert._trim([int(c) for c in out])


def fraction_canonical(series):
    """(num, den) of the canonical form, computed over `Fraction`s."""
    num, den = series.num, series.den
    if num == (0,):
        return (0,), (1,)
    g = _fraction_gcd(num, den)
    if len(g) > 1:
        num, den = _fraction_div_exact(num, g), _fraction_div_exact(den, g)
    c = math.gcd(*num, *den)
    num, den = tuple(x // c for x in num), tuple(x // c for x in den)
    if den[0] < 0:
        num, den = tuple(-x for x in num), tuple(-x for x in den)
    return num, den


def _random_int_poly(rng, degree, low=-3, high=3):
    coeffs = [rng.randint(low, high) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or rng.choice((-2, -1, 1, 2))
    return tuple(coeffs)


def test_canonical_matches_the_fraction_reference():
    # 600 seeded series, most with a common factor to cancel: a shared
    # random factor, powers of (1 - t^w) as in Hilbert series, or both
    rng = random.Random(4813)
    for k in range(600):
        g = (1,)
        if k % 3:
            g = _random_int_poly(rng, rng.randint(1, 3))
        if k % 4 == 0:
            for _ in range(rng.randint(1, 3)):
                w = rng.randint(1, 4)
                g = hilbert.poly_mul(g, (1,) + (0,) * (w - 1) + (-1,))
        num = hilbert.poly_mul(g, _random_int_poly(rng, rng.randint(0, 4)))
        den = hilbert.poly_mul(g, _random_int_poly(rng, rng.randint(0, 4)))
        if k % 10 == 0:
            num = tuple(5 * c for c in num)
        if den[0] == 0:
            den = hilbert.poly_add(den, (rng.choice((-1, 1)),))
        if den == (0,) or den[0] == 0:
            continue
        series = RationalSeries(num, den)
        got = series.canonical()
        assert (got.num, got.den) == fraction_canonical(series), series


def test_canonical_matches_the_reference_on_the_corpus():
    files = sorted(CORPUS4.glob("*.alg")) + sorted(CORPUS8.glob("*.alg"))
    seen = 0
    for path in files:
        P = parse(path.read_text())
        fp = fingerprint(P)
        for series in (P.declared_series, fp.series):
            if series is not None:
                got = series.canonical()
                assert (got.num, got.den) == fraction_canonical(series), path
                seen += 1
    assert seen >= len(files)
