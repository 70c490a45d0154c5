"""Shared fixtures and independent oracles.

The oracle helpers here deliberately avoid the package's own linear
algebra and series code: ranks come from enumerating every row
combination, series expansions from naive long division, and monomial
counts from direct generating-function products, so test expectations
do not lean on the code under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from pathlib import Path

import pytest

import finalg
from finalg.present import COMMUTATIVE, GeneratorSet, Presentation, substitute

ROOT = Path(__file__).resolve().parent.parent
CORPUS4 = ROOT / "corpus" / "div4"
CORPUS8 = ROOT / "corpus" / "div8"

FIXTURE_NAMES = ["c2", "c4", "c8", "c2c2", "c4c2", "c2c2c2", "d8", "q8"]

# Three degree-1 words modulo z and x*y: 3^n monomials in degree n, under
# the monomial ceiling at the default bound 10, but n * 3^(n-1) +
# (n-1) * 3^(n-2) cofactor rows, so the relation matrix has 6561 x 2187
# (1.4e7) cells in degree 7 and 76545 x 19683 (1.5e9) in degree 9.
WIDE = ("algebra wide\nchar 2\nmode associative\ngen x 1\ngen y 1\n"
        "gen z 1\nrel z\nrel x*y\n")


@pytest.fixture(scope="session")
def corpus():
    """All eight fixture presentations keyed by file stem."""
    return {name: finalg.parse_file(CORPUS8 / f"{name}.alg")
            for name in FIXTURE_NAMES}


# --------------------------------------------------------------- oracles

def brute_rank(rows, p: int) -> int:
    """Rank over GF(p) by counting the row span point by point."""
    if not rows:
        return 0
    ncols = len(rows[0])
    span = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        vec = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p
                    for j in range(ncols))
        span.add(vec)
    rank = 0
    while p ** rank < len(span):
        rank += 1
    assert p ** rank == len(span)
    return rank


def brute_basis(rows, p: int) -> list:
    """Rows, reduced mod p, that enlarge the span of the rows before them.

    The span is kept as its full point set, grown by every multiple of
    each new row, so the cost is exponential in the rank only, not in the
    number of rows.
    """
    basis = []
    span = None
    for row in rows:
        vec = tuple(int(x) % p for x in row)
        if span is None:
            span = {(0,) * len(vec)}
        if vec in span:
            continue
        basis.append(vec)
        span = {tuple((s + c * x) % p for s, x in zip(pt, vec))
                for pt in span for c in range(p)}
    return basis


def memo_values(P: Presentation) -> list:
    """Every value in P's invariant memo, with nested tuples, lists and
    dicts opened up, and the dataclass fields of the values held."""
    out, todo = [], list(P._memo.values())
    while todo:
        value = todo.pop()
        out.append(value)
        if isinstance(value, dict):
            todo += list(value.keys()) + list(value.values())
        elif isinstance(value, (tuple, list)):
            todo += list(value)
        elif dataclasses.is_dataclass(value):
            todo += [getattr(value, f.name)
                     for f in dataclasses.fields(value)]
    return out


def naive_division(num, den, max_degree: int):
    """Power series coefficients of num/den by long division.

    Requires den[0] in {1, -1} so every quotient coefficient is an
    integer.
    """
    assert den[0] in (1, -1)
    rem = list(num) + [0] * (max_degree + len(den) + 1 - len(num))
    out = []
    for k in range(max_degree + 1):
        c = rem[k] // den[0]
        out.append(c)
        for i, d in enumerate(den):
            rem[k + i] -= c * d
    return out


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def free_algebra_dims(degrees, exterior, max_degree: int):
    """Graded dimension counts of a free graded-commutative algebra.

    Multiplies one geometric (or two-term exterior) series per generator,
    truncated at max_degree.
    """
    series = [1]
    for d, ext in zip(degrees, exterior):
        if ext:
            factor = [0] * (d + 1)
            factor[0] = 1
            factor[d] = 1
        else:
            factor = [0] * (max_degree + 1)
            for k in range(0, max_degree + 1, d):
                factor[k] = 1
        series = poly_mul_int(series, factor)[:max_degree + 1]
    series += [0] * (max_degree + 1 - len(series))
    return series[:max_degree + 1]


def quotient_monomial_dims(gen_degrees, lead_exponents, exterior,
                           max_degree: int):
    """Dims of a monomial-ideal quotient by walking the exponent box."""
    nvars = len(gen_degrees)
    dims = [0] * (max_degree + 1)
    caps = []
    for i in range(nvars):
        caps.append(1 if exterior[i] else max_degree // gen_degrees[i])
    for exps in itertools.product(*(range(c + 1) for c in caps)):
        deg = sum(e * d for e, d in zip(exps, gen_degrees))
        if deg > max_degree:
            continue
        if any(all(e >= le for e, le in zip(exps, lead))
               for lead in lead_exponents):
            continue
        dims[deg] += 1
    return dims


# ----------------------------------------------- random presentation pool

def random_presentation(rng: random.Random, name: str = "rand") -> Presentation:
    """Small commutative presentation: p in {2,3}, <=3 gens of degree <=2,
    <=2 homogeneous relations of degree <=4."""
    p = rng.choice([2, 3])
    ngens = rng.randint(1, 3)
    names = ["x", "y", "z"][:ngens]
    degrees = tuple(rng.randint(1, 2) for _ in range(ngens))
    gens = GeneratorSet.from_pairs(list(zip(names, degrees)))
    relations = []
    for _ in range(rng.randint(0, 2)):
        deg = rng.randint(max(1, min(gens.degrees)), 4)
        monos = finalg.present.monomials_of_degree(gens, deg, COMMUTATIVE, p)
        if not monos:
            continue
        poly = {}
        for mono in monos:
            c = rng.randrange(p)
            if c:
                poly[mono] = c
        if poly:
            relations.append(poly)
    return Presentation(name=name, p=p, mode=COMMUTATIVE, gens=gens,
                        relations=tuple(relations))


def disguise(P: Presentation, rng: random.Random,
             name: str = "disguised") -> Presentation:
    """Rewrite P through a random graded automorphism of the free algebra.

    Per degree the generator block gets an invertible linear change plus,
    in degrees >= 2, a random decomposable tail; such a substitution is
    invertible, so the result is graded isomorphic to P by construction.
    """
    gens = P.gens
    n = len(gens)
    by_degree = {}
    for i, d in enumerate(gens.degrees):
        by_degree.setdefault(d, []).append(i)

    def random_invertible(k: int):
        while True:
            mat = [[rng.randrange(P.p) for _ in range(k)] for _ in range(k)]
            if brute_rank(mat, P.p) == k:
                return mat

    images = [None] * n
    for d, idxs in by_degree.items():
        mat = random_invertible(len(idxs))
        lower = [j for j in range(n) if gens.degrees[j] < d]
        monos = finalg.present.monomials_of_degree(gens, d, P.mode, P.p)
        tails = [m for m in monos
                 if all(e == 0 for j, e in enumerate(m) if j not in lower)]
        for row, i in zip(mat, idxs):
            poly = {}
            for c, j in zip(row, idxs):
                if c:
                    mono = tuple(1 if k == j else 0 for k in range(n))
                    poly[mono] = c
            for mono in tails:
                c = rng.randrange(P.p)
                if c:
                    poly[mono] = (poly.get(mono, 0) + c) % P.p
            images[i] = {m: c for m, c in poly.items() if c}
    new_rels = []
    for rel in P.relations:
        out = substitute(rel, images, gens, gens, P.mode, P.p)
        if out:
            new_rels.append(out)
    return Presentation(name=name, p=P.p, mode=P.mode, gens=gens,
                        relations=tuple(new_rels))
