"""Degree-truncated models of finitely presented graded algebras.

Because relations are homogeneous, the degree-n component of the relation
ideal is spanned by cofactor multiples of the relations, so each graded
component A_n with n <= bound is computed exactly by linear algebra: list
the monomials of degree n, eliminate the relation consequences, and keep
the non-pivot monomials as the component basis.  With columns in decreasing
term order those are precisely the standard monomials.  The consequences
are built as sparse rows, a few (column, value) pairs each, for the forward
pass of the elimination, `gfp.forward`; no dense relation matrix is formed.

Inside the engine a monomial is a key, of which `+` is the product, and
a column, its place in its degree's listing in that term order, found
from its key by the degree's index.  In associative mode the key is the
word itself, so a relation row's column is `index[u + term + v]` and a
product's is `index[u + v]`.  In commutative mode the key is one integer
holding each exponent in a bit field at least 2 bits wide and wide
enough for the bound, so the key of a product is the sum of the keys.  A
relation row's column is `index[cofactor + term]`; the sum reaches a
guard bit, above the lowest bit of an exterior generator's field, where
the product squares that generator, and the sign is the parity of the
cofactor's bits under the term's sign mask.  Degree n's keys are listed
from the lists below it, one addition per monomial, as are every
degree's factor counts, by `present`'s lister, the one every listing of
monomials uses.  Exponent vectors exist only at the edge: a vector a
caller passes is packed into its key, and a degree's basis is unpacked
from its keys on first read.

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
them, and checks the resource limits of every degree.  A degree's keys
are listed on first use, with those of every degree below it not listed
yet, and its component is reduced on first use, so a caller that reads
only low degrees pays only for those; a degree with no relation row
lists nothing.

Everything an instance exposes (bases, normal forms, multiplication
tables, ideal-power filtrations) is exact for degrees within the bound;
degrees beyond it raise BoundExceededError.  Instances are immutable after
construction apart from internal caches, so sharing one across threads for
reads is safe.  Each lazily built field is published by one assignment,
after everything it is built from: a degree's keys and factor counts
(after the lists below them), its key index, its reduction (forward rows
and free columns), and in a reduced degree the decoded basis, each free
column's place in it and each reduced row.  A reader sees all of a field
or none of it, and builds what it does not see, so two threads may build
a field twice but both get equal values.  A reduction that raises
publishes nothing, and nothing published is changed after.
"""

from __future__ import annotations

from operator import lshift

import numpy as np

from .errors import BoundExceededError, ResourceLimitError
from .gfp import RowSpace, back_substitute, forward
from .hilbert import DEGREE_CAP
from .present import (COMMUTATIVE, Presentation, _extended, _from_below,
                      _unpacked, exterior_mask, mono_degree, mono_factors,
                      prefix_counts)

DEFAULT_MONOMIAL_CEILING = 200_000
# Most cells (cofactor rows x monomials) one degree's elimination may span.
# The rows are sparse, but elimination fills them in, up to one entry per
# monomial each, so this bounds the kernel's work and memory.  The monomial
# ceiling alone does not: the rows grow with every cofactor of every
# relation.
RELATION_CELL_BUDGET = 10_000_000
# Most cells of the temporary that one chunk of a product of two blocks
# (`multiply_vec`) holds, 2 MB as int64.
_PRODUCT_CELLS = 1 << 18


class _lazy:
    """A field computed on its first read and then kept in the instance,
    published by one assignment.  Unlike `functools.cached_property`
    before Python 3.12 it takes no lock: two threads may compute it twice
    and keep equal values, and a first read costs about a third of the
    locked one, which matters since an engine reads several of them."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _Degree:
    """One reduced degree (see the module docstring): the forward rows by
    pivot, the free (non-pivot) columns and the reduced rows found so far;
    on first read, each free column's place in the basis, and the basis
    itself, which the engine decodes."""

    def __init__(self, lead, free, p):
        self.lead, self.free, self.p, self.reduced = lead, free, p, {}
        self.basis = None

    @_lazy
    def column(self) -> dict:
        return {j: k for k, j in enumerate(self.free)}

    def entries(self, j: int) -> list:
        """(column, value) of each nonzero of row j's normal form."""
        if j not in self.lead:
            return [(self.column[j], 1)]
        row = back_substitute(self.lead, (j,), self.reduced, self.p)[j]
        return [(self.column[c], self.p - v) for c, v in row.items() if c != j]

    def rows(self, js) -> np.ndarray:
        """The normal forms of the monomials at rows js, one per row; a
        row None, a monomial that is zero, gives zeros."""
        out = np.zeros((len(js), len(self.free)), dtype=np.int64)
        for i, j in enumerate(js):
            if j is not None:
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
        if bound > 2 * DEGREE_CAP:
            raise ResourceLimitError(
                f"bound {bound} is above {2 * DEGREE_CAP}, which no "
                f"presentation's default bound reaches; lower the bound")
        self.presentation = presentation
        self.bound = bound
        self.p = presentation.p
        self.mode = presentation.mode
        self.gens = presentation.gens
        self.monomial_ceiling = monomial_ceiling
        self._ext = exterior_mask(self.gens, self.p, self.mode)
        self._prefix = prefix_counts(self.gens, bound, self.mode, self.p)
        self._counts = self._prefix[-1]
        # (degree, relation) of every nonzero relation
        self._relations = [(presentation.poly_degree(rel), rel)
                           for rel in presentation.relations if rel]
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
        self._keys: list = [None] * (bound + 1)
        self._indexes: list = [None] * (bound + 1)
        self._factors: list = [None] * (bound + 1)
        self._degrees: list = [None] * (bound + 1)

    # ----------------------------------------- layout, built on first use

    @_lazy
    def _shifts(self) -> range:
        """Commutative: the bit at which each generator's exponent field
        starts in a key.  A field is at least 2 bits wide and holds the
        bound; every exponent, and every sum of two that the engine forms,
        is at most the bound, so no field carries into the next."""
        width = max(2, self.bound.bit_length())
        return range(0, width * len(self.gens), width)

    @_lazy
    def _guard(self) -> int:
        """Commutative: the bits above the lowest of each exterior field, of
        which a key holds one exactly when it squares that generator."""
        wide = (1 << self._shifts.step) - 2
        return sum(wide << s for s, e in zip(self._shifts, self._ext) if e)

    @_lazy
    def _units(self) -> list:
        """Each generator's key, the steps of `_key_list`: its one-letter
        word, or in commutative mode the lowest bit of its field."""
        if self.mode != COMMUTATIVE:
            return [(i,) for i in range(len(self.gens))]
        return [1 << s for s in self._shifts]

    @_lazy
    def _cut(self) -> list:
        """`present._extended`, for the engine's calls of `_from_below`."""
        return _extended(self._prefix, self._ext, self.mode)

    @_lazy
    def _terms(self) -> list:
        """(degree, terms) of every nonzero relation, its nonzero terms as
        `_relation_rows` reads them: (key, sign mask, coefficient, its
        negative) in commutative mode and (word, coefficient) in
        associative mode."""
        p, out = self.p, []
        for r, rel in self._relations:
            terms = [(m, c % p) for m, c in rel.items() if c % p]
            if self.mode == COMMUTATIVE:
                terms = [(key, self._sign_mask(key), c, p - c) for key, c
                         in ((self._key(m), c) for m, c in terms)]
            out.append((r, terms))
        return out

    # ------------------------------------------------------ monomials

    def _key(self, m):
        """The key of the monomial m: the word itself, or the exponent
        vector packed into one integer."""
        if self.mode != COMMUTATIVE:
            return m
        return sum(map(lshift, m, self._shifts))

    def _sign_mask(self, key: int) -> int:
        """Commutative: the bits of a left factor's key whose count has the
        parity of the sign of its product with the monomial `key`: the
        lowest bit of each exterior field that follows an odd number of
        exterior factors of `key`.  Zero at p = 2."""
        mask = parity = 0
        for s, e in zip(self._shifts, self._ext):
            if e:
                mask |= parity << s
                parity ^= (key >> s) & 1
        return mask

    def _key_list(self, n: int) -> list:
        """The keys of degree n, column by column."""
        return _from_below(self._keys, n, self.gens.degrees, self._cut,
                           self._units, 0 if self.mode == COMMUTATIVE else ())

    def _index(self, n: int) -> dict:
        """Degree n's key -> column, built on first use."""
        got = self._indexes[n]
        if got is None:
            keys = self._key_list(n)
            got = self._indexes[n] = dict(zip(keys, range(len(keys))))
        return got

    def _factor_counts(self, n: int) -> list:
        """The number of generator factors of each monomial of degree n."""
        return _from_below(self._factors, n, self.gens.degrees, self._cut,
                           [1] * len(self.gens), 0)

    def _monomial_degree(self, m) -> int:
        """The degree of the monomial m, a tuple: KeyError unless it is an
        exponent vector with a slot per generator or a word of generator
        indices, so no malformed tuple reads as another monomial."""
        k = len(self.gens)
        if min(m, default=0) < 0 or (len(m) != k if self.mode == COMMUTATIVE
                                     else max(m, default=0) >= k):
            raise KeyError(m)
        return mono_degree(m, self.gens, self.mode)

    def _column(self, n: int, m):
        """The column of the monomial m, of degree n, or None if m is zero
        because it squares an exterior generator."""
        key = self._key(m)
        if self._guard and key & self._guard:
            return None
        return self._index(n)[key]

    def _decoded(self, n: int, columns) -> list:
        """The monomials at the columns of degree n, as tuples."""
        keys = list(map(self._key_list(n).__getitem__, columns))
        if self.mode != COMMUTATIVE:
            return keys
        return _unpacked(keys, self._shifts)

    def _monomials(self, n: int) -> list:
        """The monomials of degree n, in decreasing term order."""
        return self._decoded(n, range(self._counts[n]))

    # ------------------------------------------------------------- build

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

    def _relation_rows(self, n: int) -> list:
        """The nonzero cofactor multiples of the relations in degree n, as
        sparse rows: each a tuple of (column, value) pairs, kept once.
        Distinct cofactors can give one row: at odd p, a·(ax - bx) and
        b·(ax - bx) are both -abx, and a word that holds a relation's
        monomial twice repeats a row."""
        if all(r > n for r, _ in self._relations):
            return []
        live = [(r, terms) for r, terms in self._terms if r <= n and terms]
        rows: dict = {}   # (column, value) pairs -> None, in first-seen order
        index = self._index(n)
        if self.mode == COMMUTATIVE:
            guard = self._guard
            for r, terms in live:
                for cof in self._key_list(n - r):
                    row = []
                    for key, mask, c, neg in terms:
                        at = cof + key
                        if not at & guard:
                            row.append((index[at], neg if (cof & mask)
                                        .bit_count() & 1 else c))
                    if row:
                        rows[tuple(row)] = None
        else:
            for r, terms in live:
                for a in range(n - r + 1):
                    tails = self._key_list(n - r - a)
                    for u in self._key_list(a):
                        heads = [(u + m, c) for m, c in terms]
                        for v in tails:
                            rows[tuple([(index[h + v], c)
                                        for h, c in heads])] = None
        return list(rows)

    def _reduce_degree(self, n: int) -> _Degree:
        """Eliminate degree n's sparse relation rows by `gfp.forward`: the
        non-pivot monomials are its basis; normal forms wait for a reader."""
        lead = forward(self._relation_rows(n), self.p)
        got = self._degrees[n] = _Degree(
            lead, [j for j in range(self._counts[n]) if j not in lead],
            self.p)
        return got

    # --------------------------------------------------------- accessors

    def _degree(self, n: int) -> _Degree:
        """Degree n, reduced on its first use; raise past the bound."""
        if not 0 <= n <= self.bound:
            raise BoundExceededError(
                f"degree {n} outside the truncation bound {self.bound}")
        got = self._degrees[n]
        return self._reduce_degree(n) if got is None else got

    def _basis(self, n: int) -> list:
        d = self._degree(n)
        if d.basis is None:
            d.basis = self._decoded(n, d.free)
        return d.basis

    def dim(self, n: int) -> int:
        return len(self._degree(n).free)

    def basis(self, n: int) -> list:
        """Standard-monomial basis of the degree-n component."""
        return list(self._basis(n))

    def dims(self) -> list:
        return [self.dim(n) for n in range(self.bound + 1)]

    def reduce_poly(self, f: dict) -> dict:
        """Map a polynomial to coordinate vectors, one per occupied degree."""
        comps: dict[int, np.ndarray] = {}
        for m, c in f.items():
            n = self._monomial_degree(m)
            row = c * self._degree(n).rows([self._column(n, m)])[0]
            comps[n] = comps[n] + row if n in comps else row
        return {n: v % self.p for n, v in comps.items()}

    def is_zero(self, f: dict) -> bool:
        """Exact word-problem test for elements presented in degrees <= bound."""
        return not any(map(np.count_nonzero, self.reduce_poly(f).values()))

    def vanishes(self, m) -> bool:
        """Is the monomial m zero?  A standard monomial never is, and in a
        degree without pivots every monomial is standard unless it squares
        an exterior generator, so there m needs no column."""
        n = self._monomial_degree(m)
        d = self._degree(n)
        if not d.lead:
            return any(e > 1 for e, x in zip(m, self._ext) if x)
        j = self._column(n, m)
        return j is None or (j in d.lead and not d.entries(j))

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
        for m, c in zip(self._basis(n), np.mod(np.asarray(vec, dtype=np.int64), self.p)):
            if c:
                out[m] = int(c)
        return out

    # ----------------------------------------------------- multiplication

    def _products(self, a: int, b: int):
        """(i, j, sign, column) for each nonzero product of basis(a)[i] and
        basis(b)[j]: its sign and its column in degree a + b."""
        left, right = self._key_list(a), self._key_list(b)
        index = self._index(a + b)
        free = self._degree(b).free
        if self.mode != COMMUTATIVE:
            right = [right[c] for c in free]
            for i, c in enumerate(self._degree(a).free):
                u = left[c]
                for j, v in enumerate(right):
                    yield i, j, 1, index[u + v]
            return
        right = [(right[c], self._sign_mask(right[c])) for c in free]
        guard = self._guard
        for i, c in enumerate(self._degree(a).free):
            u = left[c]
            for j, (v, mask) in enumerate(right):
                if not (u + v) & guard:
                    yield (i, j, -1 if (u & mask).bit_count() & 1 else 1,
                           index[u + v])

    def table(self, a: int, b: int) -> np.ndarray:
        """Structure constants basis(a) x basis(b) -> A_{a+b}, cached."""
        A, B, C = self._degree(a), self._degree(b), self._degree(a + b)
        key = (a, b)
        T = self._tables.get(key)
        if T is None:
            T = np.zeros((len(A.free), len(B.free), len(C.free)),
                         dtype=np.int64)
            for i, j, sign, c in self._products(a, b):
                for k, v in C.entries(c):
                    T[i, j, k] = sign * v % self.p
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
            cur = None
            for i, e in mono_factors(m, src.mode):
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
            many = [j for j, f in enumerate(self._factor_counts(n)) if f >= 2]
            got = RowSpace.spanned_by(self._degree(n).rows(many), self.p)
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
        suffix, for every c at once.  With generators of one degree d, a
        monomial of degree n has n / d factors, so no row mixes factor
        counts and each pivot is counted there, with no listing.  Otherwise
        the factor counts are listed, and the forward rows are such a form
        already unless one of them mixes factor counts; then one `forward`
        pass over them, re-keyed, gives one.
        """
        if self._filtration is None:
            m = self.bound + 1
            degrees = set(self.gens.degrees)
            net = np.zeros(m, dtype=np.int64)   # monomials less pivots
            pivots = []                           # factor count of each pivot
            for n in range(1, m):
                lead = self._degree(n).lead
                if len(degrees) == 1:
                    net[n // min(degrees)] += self._counts[n] - len(lead)
                    continue
                f = self._factor_counts(n)
                net += np.bincount(f, minlength=m)
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
