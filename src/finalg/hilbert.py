"""Hilbert series of graded algebras as exact integer rational functions.

A series is stored as a pair of integer polynomials in t (coefficient
tuples, index = power), not necessarily in lowest terms.  Two series are
compared by cross-multiplication (`equal`); canonical form (gcd-reduced,
coprime integer contents, positive denominator constant term) is computed
only to display a series or to digest it.  `==` on a `RationalSeries`, and
so on a `Fingerprint` holding one, compares representations and is no
series-equality test; nothing in the package uses it as one.  Degreewise
dimensions s_0, s_1, ... solve num = den * sum s_n t^n one coefficient at
a time,

    den_0 * s_n = num_n - sum_{i >= 1} den_i * s_{n-i},

over den's nonzero terms, in integers unless a division by den_0 leaves a
remainder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ParseError

IntPoly = tuple  # tuple[int, ...], coefficient of t^k at index k

# Most degree of a generator, a term or a series exponent that parsing
# accepts, so that no hostile degree sizes a list or a loop.
DEGREE_CAP = 100_000


# ---------------------------------------------------------------- int polys

def parse_digits(text: str, line: int | None = None) -> int:
    """The integer a string of digits spells, or a ParseError naming the
    line where `int` refuses it: past the digits it converts, or for a
    digit that is not a decimal one, such as '²'."""
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 20 else f"of {len(text)} digits"
        raise ParseError(f"cannot read the number {shown}", line) from None


def _trim(coeffs) -> IntPoly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(int(c) for c in cs) if cs else (0,)


def poly_add(a, b) -> IntPoly:
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                  for k in range(n)])


def poly_sub(a, b) -> IntPoly:
    n = max(len(a), len(b))
    return _trim([(a[k] if k < len(a) else 0) - (b[k] if k < len(b) else 0)
                  for k in range(n)])


def poly_mul(a, b) -> IntPoly:
    if a == (0,) or b == (0,):
        return (0,)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _trim(out)


def _content(a) -> int:
    g = 0
    for c in a:
        g = gcd(g, c)
    return g or 1


def _primitive(a) -> list:
    """a over its content, with a positive leading coefficient."""
    g = _content(a) if a[-1] > 0 else -_content(a)
    return [c // g for c in a]


def _pseudo_remainder(a, b) -> list:
    """A nonzero multiple of a mod b, with integer coefficients and the
    trailing zeros dropped: each step scales the rest by lead(b) only when
    lead(b) does not divide its leading coefficient."""
    r, lead, width = list(a), b[-1], len(b)
    while len(r) >= width:
        q, rest = divmod(r[-1], lead)
        if rest:
            q, r = r[-1], [c * lead for c in r]
        shift = len(r) - width
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _poly_gcd(a, b) -> IntPoly:
    """Primitive gcd of two nonzero integer polynomials, positive leading
    coefficient, by the primitive pseudo-remainder sequence."""
    a, b = _primitive(_trim(a)), _primitive(_trim(b))
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            b = _primitive(b)
    return tuple(a)


def _poly_div_exact(a, b) -> IntPoly:
    """Quotient a / b when the division is exact over the integers."""
    r, lead, width = list(a), b[-1], len(b)
    out = [0] * max(len(a) - width + 1, 0)
    for k in reversed(range(len(out))):
        q, rest = divmod(r[k + width - 1], lead)
        if rest:
            raise ArithmeticError("inexact polynomial division")
        out[k] = q
        for i, c in enumerate(b):
            r[k + i] -= q * c
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


# ------------------------------------------------------------- series text

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?(?P<t>t)?\s*(?:\^\s*(?P<exp>\d+))?\s*")


def parse_int_poly(text: str, line: int | None = None) -> IntPoly:
    """Parse an integer polynomial in t, e.g. "1-2t+t^2"."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", line)
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad series polynomial near {s[pos:]!r}", line)
        sign, coeff, tvar, exp = m.group("sign", "coeff", "t", "exp")
        if coeff is None and tvar is None:
            raise ParseError(f"bad series polynomial near {s[pos:]!r}", line)
        if sign is None and not first:
            raise ParseError(f"missing sign near {s[pos:]!r}", line)
        if exp is not None and tvar is None:
            raise ParseError(f"exponent without t near {s[pos:]!r}", line)
        c = parse_digits(coeff, line) if coeff is not None else 1
        if sign == "-":
            c = -c
        k = 0 if tvar is None else (
            parse_digits(exp, line) if exp is not None else 1)
        if k > DEGREE_CAP:
            raise ParseError(f"series exponent {k} is above {DEGREE_CAP}",
                             line)
        coeffs[k] = coeffs.get(k, 0) + c
        pos = m.end()
        first = False
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return _trim(out)


def format_int_poly(coeffs) -> str:
    coeffs = _trim(coeffs)
    if coeffs == (0,):
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "t" if mag == 1 else f"{mag}t"
        else:
            body = f"t^{k}" if mag == 1 else f"{mag}t^{k}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts)


# ----------------------------------------------------------------- series

@dataclass(frozen=True)
class RationalSeries:
    """Exact rational generating function num(t)/den(t), den(0) != 0."""

    num: IntPoly
    den: IntPoly

    def __post_init__(self):
        object.__setattr__(self, "num", _trim(self.num))
        object.__setattr__(self, "den", _trim(self.den))
        if self.den == (0,) or self.den[0] == 0:
            raise ValueError("series denominator needs a nonzero constant term")

    def canonical(self) -> "RationalSeries":
        num, den = self.num, self.den
        if num == (0,):
            return RationalSeries((0,), (1,))
        g = _poly_gcd(num, den)
        if len(g) > 1:
            num = _poly_div_exact(num, g)
            den = _poly_div_exact(den, g)
        c = gcd(_content(num), _content(den))
        if c > 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        if den[0] < 0:
            num = tuple(-x for x in num)
            den = tuple(-x for x in den)
        return RationalSeries(num, den)

    def __str__(self):
        return f"{format_int_poly(self.num)} / {format_int_poly(self.den)}"


def parse_series(text: str, line: int | None = None) -> RationalSeries:
    """Parse "num / den" with integer polynomial halves."""
    if text.count("/") != 1:
        raise ParseError("series must be written as num / den", line)
    num_s, den_s = text.split("/")
    num, den = parse_int_poly(num_s, line), parse_int_poly(den_s, line)
    if den[0] == 0:
        raise ParseError("series denominator needs a nonzero constant term",
                         line)
    return RationalSeries(num, den)


def dims_from_series(series: RationalSeries, max_degree: int) -> list:
    """Coefficients 0..max_degree of the series, as ints, or as Fractions
    where den_0 does not divide."""
    num, den = series.num, series.den
    terms = [(i, c) for i, c in enumerate(den) if i and c]
    dims: list = []
    for n in range(max_degree + 1):
        acc = num[n] if n < len(num) else 0
        for i, c in terms:
            if i > n:
                break
            acc -= c * dims[n - i]
        q, r = divmod(acc, den[0])
        dims.append(Fraction(acc, den[0]) if r else q)
    return dims


def equal(P: RationalSeries, Q: RationalSeries) -> bool:
    """Exact equality by cross-multiplication, no canonicalization needed."""
    return poly_mul(P.num, Q.den) == poly_mul(Q.num, P.den)


def count_nonzero_vectors(dim: int, p: int) -> int:
    """Number of nonzero coordinate vectors in GF(p)^dim."""
    return p ** dim - 1


# ----------------------------------------------- monomial ideal numerators

def _minimalize(gens):
    """Drop monomial generators divisible by another generator."""
    out = []
    for u in sorted(set(gens), key=lambda m: (sum(m), m)):
        if any(all(v[i] <= u[i] for i in range(len(u))) for v in out):
            continue
        out.append(u)
    return out


def monomial_ideal_numerator(gens, weights) -> IntPoly:
    """Numerator of the Hilbert series of k[x]/M over prod(1 - t^w_i).

    gens: exponent vectors of monomial ideal generators; weights: variable
    degrees.  Pivot recursion: split on a variable occurring in at least two
    minimal generators,

        N(M) = N(M + <x_j>) + t^{w_j} * N(M : x_j).
    """
    gens = _minimalize([tuple(g) for g in gens])
    if not gens:
        return (1,)
    if any(sum(g) == 0 for g in gens):
        return (0,)  # 1 in the ideal, quotient is zero

    def wdeg(u):
        return sum(e * w for e, w in zip(u, weights))

    if len(gens) == 1:
        return poly_sub((1,), (0,) * wdeg(gens[0]) + (1,))
    # coprime generators split the quotient into a tensor product
    counts = [0] * len(weights)
    for u in gens:
        for i, e in enumerate(u):
            if e:
                counts[i] += 1
    best = max(range(len(weights)), key=lambda i: counts[i])
    if counts[best] <= 1:
        out = (1,)
        for u in gens:
            out = poly_mul(out, poly_sub((1,), (0,) * wdeg(u) + (1,)))
        return out
    j = best
    plus = [u for u in gens if u[j] == 0]
    plus.append(tuple(1 if i == j else 0 for i in range(len(weights))))
    colon = [tuple(e - 1 if i == j and e > 0 else e for i, e in enumerate(u))
             for u in gens]
    n_plus = monomial_ideal_numerator(plus, weights)
    n_colon = monomial_ideal_numerator(colon, weights)
    return poly_add(n_plus, poly_mul((0,) * weights[j] + (1,), n_colon))


def quotient_series(lead_exponents, weights, exterior_mask) -> RationalSeries:
    """Series of a graded quotient from leading monomials, over the
    denominator prod(1 - t^w) and not reduced to lowest terms: compare it
    with `equal`, and call `.canonical()` to display or digest it.

    exterior_mask flags variables with an implicit square-zero; their squares
    join the monomial ideal and the denominator keeps the plain 1 - t^w
    factor for every variable, so an exterior line contributes
    (1 - t^2w)/(1 - t^w) = 1 + t^w.
    """
    m = len(weights)
    gens = [tuple(g) for g in lead_exponents]
    for i, ext in enumerate(exterior_mask):
        if ext:
            gens.append(tuple(2 if k == i else 0 for k in range(m)))
    num = monomial_ideal_numerator(gens, weights)
    den = (1,)
    for w in weights:
        den = poly_mul(den, poly_sub((1,), (0,) * w + (1,)))
    return RationalSeries(num, den)
