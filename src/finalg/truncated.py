"""Degree-truncated models of finitely presented graded algebras.

Because relations are homogeneous, the degree-n component of the relation
ideal is spanned by cofactor multiples of the relations, so each graded
component A_n with n <= bound is computed exactly by linear algebra: list
the monomials of degree n, eliminate the relation consequences, and keep
the non-pivot monomials as the component basis.  With columns in decreasing
term order those are precisely the standard monomials.  The consequences
are built as sparse rows, a few (column, value) pairs each, for the forward
pass of the elimination, `gfp.forward`; no dense relation matrix is formed.
Degree n's monomials are built from the lists of the degrees below it
(`present.monomials_from_below`).

A monomial's normal form, its coordinate vector on that basis, is a unit
vector for a standard monomial; a pivot's is back-substituted from the
rows it reaches (`gfp.back_substitute`) on first read, and kept.  The
powers of the augmentation ideal need no normal form: I^c is spanned by
the monomials with at least c generator factors, so dim I^c_n is their
count less the dimension of the relations among them, which one forward
pass counts for every c (`power_filtration_dims`).  The decomposables are
I^2, spanned by the normal forms of those monomials.  Multiplication tables
serve only products of coordinate vectors, one at a time or as a block: a
2-d array of candidate vectors, one per row, which products, evaluation
and the generation test treat in whole-array steps.

Construction counts the monomials of every degree, without listing
them, and checks the resource limits of every degree.  A degree's
monomials are listed on first use, with those of every degree below it
not listed yet, and its component is reduced on first use, so a caller
that reads only low degrees pays only for those.

Everything an instance exposes (bases, normal forms, multiplication
tables, ideal-power filtrations) is exact for degrees within the bound;
degrees beyond it raise BoundExceededError.  Instances are immutable after
construction apart from internal caches, so sharing one across threads for
reads is safe: a reduced degree (row index, forward rows, basis and factor
counts) is published by one assignment, so a reader sees all of it or
none, and a reader reduces every degree it does not see, so two threads
may reduce a degree twice but both get the same result.  A reduction that
raises publishes nothing.  So is each reduced row a degree builds later,
and none is changed after.  Two threads may likewise list a degree's
monomials twice, and get equal lists: each list is published whole, after
the lists below it.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundExceededError, ResourceLimitError
from .gfp import RowSpace, back_substitute, forward
from .present import (COMMUTATIVE, Presentation, exterior_mask, mono_degree,
                      mono_mul, monomials_from_below, prefix_counts)

DEFAULT_MONOMIAL_CEILING = 200_000
# Most cells (cofactor rows x monomials) one degree's elimination may span.
# The rows are sparse, but elimination fills them in, up to one entry per
# monomial each, so this bounds the kernel's work and memory.  The monomial
# ceiling alone does not: the rows grow with every cofactor of every
# relation.
RELATION_CELL_BUDGET = 10_000_000
# Most candidate images, summed over a pair's generators, that
# `graded_isomorphism` lists before it searches; an image is one row of an
# int64 block, so this also bounds the memory the blocks take.
CANDIDATE_LIST_BUDGET = 300_000
# Most cells of the temporary that one chunk of a product of two blocks
# (`multiply_vec`) holds, 2 MB as int64.
_PRODUCT_CELLS = 1 << 18


class _Degree:
    """One reduced degree (see the module docstring): the monomial -> row
    index, the forward rows by pivot, the standard monomials and their rows,
    each monomial's generator factors, and the reduced rows found so far."""

    def __init__(self, index, lead, basis, free, factors, p):
        self.index, self.lead, self.basis, self.free = index, lead, basis, free
        self.factors, self.p, self.reduced = factors, p, {}
        self.column = {j: k for k, j in enumerate(free)}

    def entries(self, j: int) -> list:
        """(column, value) of each nonzero of row j's normal form."""
        if j not in self.lead:
            return [(self.column[j], 1)]
        row = back_substitute(self.lead, (j,), self.reduced, self.p)[j]
        return [(self.column[c], self.p - v) for c, v in row.items() if c != j]

    def rows(self, js) -> np.ndarray:
        """The normal forms of the monomials at rows js, one per row."""
        out = np.zeros((len(js), len(self.free)), dtype=np.int64)
        for i, j in enumerate(js):
            for k, v in self.entries(j):
                out[i, k] = v
        return out


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
        self._ext = exterior_mask(self.gens, self.p, self.mode)
        # (degree, relation) of every nonzero relation
        self._relations = [(presentation.poly_degree(rel), rel)
                           for rel in presentation.relations if rel]
        self._prefix = prefix_counts(self.gens, bound, self.mode, self.p)
        self._counts = self._prefix[-1]
        self._tables: dict = {}
        self._decomposables: dict = {}
        self._filtration: list[int] | None = None
        for n, count in enumerate(self._counts):
            if count > monomial_ceiling:
                raise ResourceLimitError(
                    f"degree {n} has {count} monomials, ceiling is "
                    f"{monomial_ceiling}; lower the bound or raise the ceiling")
            rows = self._relation_row_count(n)
            if rows * count > RELATION_CELL_BUDGET:
                raise ResourceLimitError(
                    f"degree {n} needs {rows} relation rows over {count} "
                    f"monomials, more than the cell budget of "
                    f"{RELATION_CELL_BUDGET}; lower the bound")
        # filled per degree on first use; None until then
        self._monos: list = [None] * (bound + 1)
        self._degrees: list = [None] * (bound + 1)

    # ------------------------------------------------------------- build

    def _monomials(self, n: int) -> list:
        """The monomials of degree n, in decreasing term order, listed on
        first use with every degree below it, each from the lists below."""
        monos = self._monos
        if monos[n] is None:
            for m in range(n + 1):
                if monos[m] is None:
                    monos[m] = monomials_from_below(
                        m, monos, self.gens, self.mode, self._ext,
                        self._prefix)
        return monos[n]

    def _relation_row_count(self, n: int) -> int:
        """Number of cofactor multiples of the relations in degree n, an
        upper bound on the rows of its relation matrix, from the monomial
        counts of degrees <= n."""
        counts = self._counts
        count = 0
        for r, _ in self._relations:
            if r > n:
                continue
            if self.mode == COMMUTATIVE:
                count += counts[n - r]
            else:
                count += sum(counts[a] * counts[n - r - a]
                             for a in range(n - r + 1))
        return count

    def _relation_rows(self, n: int, index: dict) -> list:
        """The nonzero cofactor multiples of the relations in degree n, as
        sparse rows: each a tuple of (column, value) pairs, with a column
        per degree-n monomial at its `index`.  Distinct cofactors give
        distinct rows in commutative mode; in associative mode a word that
        holds a relation's monomial twice would repeat a row, so each row
        is kept once."""
        monos, p, gens, mode = self._monomials, self.p, self.gens, self.mode
        rows: dict = {}   # (column, value) pairs -> None, in first-seen order
        for r, rel in self._relations:
            if r > n:
                continue
            terms = [(m, c % p) for m, c in rel.items() if c % p]
            if not terms:
                continue
            if mode == COMMUTATIVE:
                for cof in monos(n - r):
                    row = []
                    for m, c in terms:
                        sign, mm = mono_mul(cof, m, gens, mode, p, self._ext)
                        if sign:
                            row.append((index[mm], (sign * c) % p))
                    if row:
                        rows[tuple(row)] = None
            else:
                for a in range(n - r + 1):
                    for u in monos(a):
                        for v in monos(n - r - a):
                            rows[tuple((index[u + m + v], c)
                                       for m, c in terms)] = None
        return list(rows)

    def _reduce_degree(self, n: int) -> _Degree:
        """Eliminate degree n's sparse relation rows by `gfp.forward`: the
        non-pivot monomials are its basis; normal forms wait for a reader."""
        monos = self._monomials(n)
        index = {m: j for j, m in enumerate(monos)}
        lead = forward(self._relation_rows(n, index), self.p)
        free = [j for j in range(len(monos)) if j not in lead]
        factors = np.array([sum(m) if self.mode == COMMUTATIVE else len(m)
                            for m in monos], dtype=np.int64)
        got = self._degrees[n] = _Degree(
            index, lead, [monos[j] for j in free], free, factors, self.p)
        return got

    # --------------------------------------------------------- accessors

    def _degree(self, n: int) -> _Degree:
        """Degree n, reduced on its first use; raise past the bound."""
        if not 0 <= n <= self.bound:
            raise BoundExceededError(
                f"degree {n} outside the truncation bound {self.bound}")
        got = self._degrees[n]
        return self._reduce_degree(n) if got is None else got

    def dim(self, n: int) -> int:
        return len(self._degree(n).basis)

    def basis(self, n: int) -> list:
        """Standard-monomial basis of the degree-n component."""
        return list(self._degree(n).basis)

    def dims(self) -> list:
        return [self.dim(n) for n in range(self.bound + 1)]

    def reduce_poly(self, f: dict) -> dict:
        """Map a polynomial to coordinate vectors, one per occupied degree."""
        comps: dict[int, np.ndarray] = {}
        for m, c in f.items():
            n = mono_degree(m, self.gens, self.mode)
            d = self._degree(n)
            row = c * d.rows([d.index[m]])[0]
            comps[n] = comps[n] + row if n in comps else row
        return {n: v % self.p for n, v in comps.items()}

    def is_zero(self, f: dict) -> bool:
        """Exact word-problem test for elements presented in degrees <= bound."""
        return not any(map(np.count_nonzero, self.reduce_poly(f).values()))

    def vanishes(self, m) -> bool:
        """Is the monomial m zero?  A standard monomial never is."""
        d = self._degree(mono_degree(m, self.gens, self.mode))
        j = d.index[m]
        return j in d.lead and not d.entries(j)

    def element(self, f: dict):
        """Homogeneous polynomial -> (degree, coordinate vector)."""
        comps = {n: v for n, v in self.reduce_poly(f).items() if v.any()}
        if not comps:
            return None
        if len(comps) > 1:
            raise ValueError("element is not homogeneous")
        return next(iter(comps.items()))

    def poly_of_vec(self, n: int, vec) -> dict:
        out = {}
        for m, c in zip(self._degree(n).basis, np.mod(np.asarray(vec, dtype=np.int64), self.p)):
            if c:
                out[m] = int(c)
        return out

    # ----------------------------------------------------- multiplication

    def table(self, a: int, b: int) -> np.ndarray:
        """Structure constants basis(a) x basis(b) -> A_{a+b}, cached."""
        A, B, C = self._degree(a), self._degree(b), self._degree(a + b)
        key = (a, b)
        T = self._tables.get(key)
        if T is None:
            T = np.zeros((len(A.basis), len(B.basis), len(C.basis)),
                         dtype=np.int64)
            for i, u in enumerate(A.basis):
                for j, v in enumerate(B.basis):
                    sign, m = mono_mul(u, v, self.gens, self.mode, self.p,
                                       self._ext)
                    if sign:
                        T[i, j] = (sign * C.rows([C.index[m]])[0]) % self.p
            self._tables[key] = T
        return T

    def multiply_vec(self, a: int, va, b: int, vb) -> np.ndarray:
        """Product of coordinate vectors, landing in degree a+b.

        Either factor may be a block, a 2-d array of one vector per row;
        the product is then a block, row by row, with a 1-d factor shared
        by every row and two blocks multiplied row against row."""
        T = self.table(a, b)
        da, db, dc = T.shape
        va = np.asarray(va, dtype=np.int64)
        vb = np.asarray(vb, dtype=np.int64)
        if dc == 0 or da == 0 or db == 0:
            # a block keeps its row count; the shape is (dc,) for vectors
            return np.zeros((va.shape[:-1] or vb.shape[:-1]) + (dc,),
                            dtype=np.int64)
        p = self.p
        if va.ndim == 1:
            tmp = (va @ T.reshape(da, db * dc)).reshape(db, dc)
            return (vb @ tmp) % p
        if vb.ndim == 1:
            # the shared right factor is folded into the table first
            return (va @ ((T.transpose(0, 2, 1) @ vb) % p)) % p
        # two blocks: each row's outer product va x vb, a da x db matrix,
        # goes through the table, so rows are taken a chunk at a time to
        # bound that temporary
        out = np.empty((len(va), dc), dtype=np.int64)
        step = max(1, _PRODUCT_CELLS // (da * db))
        for start in range(0, len(va), step):
            rows = slice(start, start + step)
            outer = va[rows, :, None] * vb[rows, None, :]
            out[rows] = (outer.reshape(len(outer), da * db)
                         @ T.reshape(da * db, dc))
        return out % p

    def evaluate(self, poly: dict, src: Presentation, images: list):
        """Evaluate a homogeneous polynomial over `src` at images in this
        algebra; images[i] = (degree, vector).  Returns (degree, vector) or
        None for an empty polynomial.  An image may be a block (see
        `multiply_vec`); the value is then a block, one row per row of it,
        wherever a monomial meets that image."""
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

    def decomposables(self, n: int) -> RowSpace:
        """Row space of I^2 in degree n, the products of positive-degree
        elements: the span of the monomials with at least two factors."""
        got = self._decomposables.get(n)
        if got is None:
            d = self._degree(n)
            many = np.flatnonzero(d.factors >= 2).tolist()
            got = RowSpace.spanned_by(d.rows(many), self.p)
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
            if span.dim < self.dim(n):
                return False
        return True

    def power_filtration_dims(self) -> list:
        """dim of I^c in degrees <= bound, for c = 1..bound.

        I is the augmentation ideal.  I^c_n is the image of V^c_n, the span
        of the degree-n monomials with at least c factors, so dim I^c_n is
        dim V^c_n less the dimension of R^c_n, the relations inside V^c_n.
        Key the columns by (factor count, column), fewer factors first:
        V^c_n is then a suffix of them, and an echelon form of the degree's
        relations under that key has exactly dim R^c_n pivots in that
        suffix, for every c at once.  The forward rows are such a form
        already unless one of them mixes factor counts; then one `forward`
        pass over them, re-keyed, gives one.
        """
        if self._filtration is None:
            m = self.bound + 1
            net = np.zeros(m, dtype=np.int64)   # monomials less pivots
            pivots = []                           # factor count of each pivot
            for n in range(1, m):
                d = self._degree(n)
                net += np.bincount(d.factors, minlength=m)
                if not d.lead:
                    continue
                f, lead = d.factors.tolist(), d.lead
                if any(f[j] != f[c] for c, row in lead.items() for j in row):
                    w = len(f)
                    lead = forward(({f[j] * w + j: v for j, v in row.items()}
                                    for row in lead.values()), self.p)
                    pivots += [k // w for k in lead]
                else:
                    pivots += [f[c] for c in lead]
            net -= np.bincount(np.array(pivots, dtype=np.int64), minlength=m)
            self._filtration = net[::-1].cumsum()[::-1][1:].tolist()
        return list(self._filtration)
