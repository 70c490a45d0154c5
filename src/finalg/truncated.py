"""Degree-truncated models of finitely presented graded algebras.

Because relations are homogeneous, the degree-n component of the relation
ideal is spanned by cofactor multiples of the relations, so each graded
component A_n with n <= bound is computed exactly by linear algebra: list
the monomials of degree n, row reduce the relation consequences, and keep
the non-pivot monomials as the component basis.  With columns in decreasing
term order those are precisely the standard monomials.

Every monomial of degree n keeps its normal form, a coordinate vector on
that basis.  The powers of the augmentation ideal are read off those
vectors: I^c is spanned by the monomials with at least c generator
factors, so one rref per degree gives the whole power filtration, and the
decomposables are I^2.  Multiplication tables serve only products of
coordinate vectors.

Everything an instance exposes (bases, normal forms, multiplication
tables, ideal-power filtrations) is exact for degrees within the bound;
degrees beyond it raise BoundExceededError.  Instances are immutable after
construction apart from internal caches, so sharing one across threads for
reads is safe.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundExceededError, ResourceLimitError
from .gfp import RowSpace, rref
from .present import (COMMUTATIVE, Presentation, mono_degree, mono_mul,
                      term_mul_poly)

DEFAULT_MONOMIAL_CEILING = 200_000


def truncation_bound(P: Presentation) -> int:
    """Smallest safe working degree: max of 1, generator degrees, and the
    top monomial degree appearing in any relation."""
    w = max(1, P.max_generator_degree())
    for r in P.relations:
        for m in r:
            w = max(w, mono_degree(m, P.gens, P.mode))
    return w


def default_bound(P: Presentation) -> int:
    """Default construction bound: twice the safe degree, at least 10."""
    return max(2 * truncation_bound(P), 10)


class TruncatedAlgebra:
    """Exact graded components of a presented algebra up to a bound."""

    def __init__(self, presentation: Presentation, bound: int | None = None,
                 monomial_ceiling: int = DEFAULT_MONOMIAL_CEILING):
        if bound is None:
            bound = default_bound(presentation)
        if bound < 1:
            raise ValueError("bound must be at least 1")
        self.presentation = presentation
        self.bound = bound
        self.p = presentation.p
        self.mode = presentation.mode
        self.gens = presentation.gens
        self.monomial_ceiling = monomial_ceiling
        self._monos: list[list] = []
        self._basis: list[list] = []
        self._basis_index: list[dict] = []
        self._nf: list[dict] = []
        self._tables: dict = {}
        self._decomposables: dict = {}
        self._filtration: list[int] | None = None
        self._build()

    # ------------------------------------------------------------- build

    def _relation_rows(self, n: int, monos: list, index: dict) -> np.ndarray:
        P = self.presentation
        rows = []
        for rel in P.relations:
            r = P.poly_degree(rel)
            if r is None or r > n:
                continue
            if self.mode == COMMUTATIVE:
                for cof in P.monomials_of_degree(n - r):
                    poly = term_mul_poly(1, cof, rel, self.gens, self.mode, self.p)
                    if poly:
                        rows.append(self._poly_row(poly, index, len(monos)))
            else:
                for a in range(n - r + 1):
                    b = n - r - a
                    for u in P.monomials_of_degree(a):
                        left = term_mul_poly(1, u, rel, self.gens, self.mode, self.p)
                        if not left:
                            continue
                        for v in P.monomials_of_degree(b):
                            poly = {}
                            for mm, cc in left.items():
                                sg, mono = mono_mul(mm, v, self.gens, self.mode, self.p)
                                if sg:
                                    poly[mono] = (poly.get(mono, 0) + sg * cc) % self.p
                            row = self._poly_row(poly, index, len(monos))
                            if row.any():
                                rows.append(row)
        if not rows:
            return np.zeros((0, len(monos)), dtype=np.int64)
        return np.array(rows, dtype=np.int64)

    @staticmethod
    def _poly_row(poly: dict, index: dict, width: int) -> np.ndarray:
        row = np.zeros(width, dtype=np.int64)
        for m, c in poly.items():
            row[index[m]] = c
        return row

    def _build(self):
        P = self.presentation
        for n in range(self.bound + 1):
            monos = P.monomials_of_degree(n)
            if len(monos) > self.monomial_ceiling:
                raise ResourceLimitError(
                    f"degree {n} has {len(monos)} monomials, ceiling is "
                    f"{self.monomial_ceiling}; lower the bound or raise the ceiling")
            index = {m: j for j, m in enumerate(monos)}
            R, pivots = rref(self._relation_rows(n, monos, index), self.p)
            pivot_set = set(pivots)
            basis = [m for j, m in enumerate(monos) if j not in pivot_set]
            bindex = {m: i for i, m in enumerate(basis)}
            nf = {}
            for m in basis:
                vec = np.zeros(len(basis), dtype=np.int64)
                vec[bindex[m]] = 1
                nf[m] = vec
            for rno, col in enumerate(pivots):
                vec = np.zeros(len(basis), dtype=np.int64)
                for j, m in enumerate(monos):
                    if j in pivot_set or j == col:
                        continue
                    if R[rno, j]:
                        vec[bindex[m]] = (-R[rno, j]) % self.p
                nf[monos[col]] = vec
            self._monos.append(monos)
            self._basis.append(basis)
            self._basis_index.append(bindex)
            self._nf.append(nf)

    # --------------------------------------------------------- accessors

    def _check(self, n: int):
        if not 0 <= n <= self.bound:
            raise BoundExceededError(
                f"degree {n} outside the truncation bound {self.bound}")

    def dim(self, n: int) -> int:
        self._check(n)
        return len(self._basis[n])

    def basis(self, n: int) -> list:
        """Standard-monomial basis of the degree-n component."""
        self._check(n)
        return list(self._basis[n])

    def dims(self) -> list:
        return [len(self._basis[n]) for n in range(self.bound + 1)]

    def reduce_poly(self, f: dict) -> dict:
        """Map a polynomial to coordinate vectors, one per occupied degree."""
        comps: dict[int, np.ndarray] = {}
        for m, c in f.items():
            n = mono_degree(m, self.gens, self.mode)
            self._check(n)
            vec = comps.setdefault(n, np.zeros(len(self._basis[n]), dtype=np.int64))
            vec += c * self._nf[n][m]
        return {n: np.mod(v, self.p) for n, v in comps.items()}

    def is_zero(self, f: dict) -> bool:
        """Exact word-problem test for elements presented in degrees <= bound."""
        return all(not v.any() for v in self.reduce_poly(f).values())

    def element(self, f: dict):
        """Homogeneous polynomial -> (degree, coordinate vector)."""
        comps = {n: v for n, v in self.reduce_poly(f).items() if v.any()}
        if not comps:
            return None
        if len(comps) > 1:
            raise ValueError("element is not homogeneous")
        return next(iter(comps.items()))

    def poly_of_vec(self, n: int, vec) -> dict:
        self._check(n)
        out = {}
        for m, c in zip(self._basis[n], np.mod(np.asarray(vec, dtype=np.int64), self.p)):
            if c:
                out[m] = int(c)
        return out

    # ----------------------------------------------------- multiplication

    def table(self, a: int, b: int) -> np.ndarray:
        """Structure constants basis(a) x basis(b) -> A_{a+b}, cached."""
        self._check(a)
        self._check(b)
        self._check(a + b)
        key = (a, b)
        T = self._tables.get(key)
        if T is None:
            da, db, dc = self.dim(a), self.dim(b), self.dim(a + b)
            T = np.zeros((da, db, dc), dtype=np.int64)
            for i, u in enumerate(self._basis[a]):
                for j, v in enumerate(self._basis[b]):
                    sign, m = mono_mul(u, v, self.gens, self.mode, self.p)
                    if sign:
                        T[i, j] = (sign * self._nf[a + b][m]) % self.p
            self._tables[key] = T
        return T

    def multiply_vec(self, a: int, va, b: int, vb) -> np.ndarray:
        """Product of coordinate vectors, landing in degree a+b."""
        T = self.table(a, b)
        da, db, dc = T.shape
        if dc == 0 or da == 0 or db == 0:
            return np.zeros(dc, dtype=np.int64)
        va = np.asarray(va, dtype=np.int64)
        vb = np.asarray(vb, dtype=np.int64)
        tmp = (va @ T.reshape(da, db * dc)).reshape(db, dc)
        return (vb @ tmp) % self.p

    def evaluate(self, poly: dict, src: Presentation, images: list):
        """Evaluate a homogeneous polynomial over `src` at images in this
        algebra; images[i] = (degree, vector).  Returns (degree, vector) or
        None for an empty polynomial."""
        out_deg = None
        out_vec = None
        powers = [dict() for _ in images]
        for m, c in poly.items():
            if src.mode == COMMUTATIVE:
                factors = [(i, e) for i, e in enumerate(m) if e]
            else:
                factors = [(i, 1) for i in m]
            cur = None
            for i, e in factors:
                img = self._image_power(images, powers, i, e)
                cur = img if cur is None else (
                    cur[0] + img[0], self.multiply_vec(cur[0], cur[1], img[0], img[1]))
            if cur is None:  # constant monomial
                cur = (0, np.array([1], dtype=np.int64))
            if out_deg is None:
                out_deg = cur[0]
                out_vec = np.zeros(self.dim(out_deg), dtype=np.int64)
            elif cur[0] != out_deg:
                raise ValueError("evaluation of an inhomogeneous polynomial")
            out_vec = (out_vec + c * cur[1]) % self.p
        if out_deg is None:
            return None
        return out_deg, out_vec

    def _image_power(self, images, powers, i: int, e: int):
        cache = powers[i]
        got = cache.get(e)
        if got is not None:
            return got
        if e == 1:
            val = images[i]
        else:
            lo = self._image_power(images, powers, i, e - 1)
            hi = images[i]
            val = (lo[0] + hi[0], self.multiply_vec(lo[0], lo[1], hi[0], hi[1]))
        cache[e] = val
        return val

    # ------------------------------------------------- ideal powers

    def _factors(self, mono) -> int:
        """Number of generator factors: exponent sum or word length."""
        return sum(mono) if self.mode == COMMUTATIVE else len(mono)

    def _nf_rows(self, n: int, monos) -> np.ndarray:
        """Normal forms of degree-n monomials, one row each."""
        return np.array([self._nf[n][m] for m in monos],
                        dtype=np.int64).reshape(len(monos), self.dim(n))

    def decomposables(self, n: int) -> RowSpace:
        """Row space of I^2 in degree n, the products of positive-degree
        elements: the span of the monomials with at least two factors."""
        self._check(n)
        got = self._decomposables.get(n)
        if got is None:
            monos = [m for m in self._monos[n] if self._factors(m) >= 2]
            got = RowSpace.spanned_by(self._nf_rows(n, monos), self.p)
            self._decomposables[n] = got
        return got

    def generates(self, images: list) -> bool:
        """Do the images, with all decomposables, span every component up
        to the top generator degree?  That is exactly generation, since the
        quotient by decomposables is where indecomposables live."""
        for n in sorted(set(self.gens.degrees)):
            span = self.decomposables(n).copy()
            for deg, vec in images:
                if deg == n:
                    span.add(vec)
            if span.dim != self.dim(n):
                return False
        return True

    def power_filtration_dims(self) -> list:
        """dim of I^c in degrees <= bound, for c = 1..bound.

        I is the augmentation ideal (everything of positive degree), and
        I^c is spanned by the monomials with at least c factors.  In each
        degree the normal forms of the monomials, longest first, are the
        columns of one rref; its pivot columns are a greedy independent
        prefix, so the pivots among the monomials with at least c factors
        count dim I^c_n for every c at once.
        """
        if self._filtration is None:
            dims = [0] * self.bound
            for n in range(1, self.bound + 1):
                monos = sorted(self._monos[n], key=self._factors, reverse=True)
                _, pivots = rref(self._nf_rows(n, monos).T, self.p)
                for col in pivots:
                    for c in range(self._factors(monos[col])):
                        dims[c] += 1
            self._filtration = dims
        return list(self._filtration)
