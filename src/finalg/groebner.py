"""Buchberger's algorithm for graded-commutative algebras over GF(p).

Commutative mode only.  The ambient ring is the free graded-commutative
algebra: a polynomial ring at p = 2, and poly(even generators) tensor
exterior(odd generators) at odd p.  Monomials are exponent vectors with
exterior exponents at most 1; products carry the transposition sign and
die on an exterior square.

The exterior squares are implicit ideal members.  They never appear as
basis elements (no monomial is divisible by one), but they do contribute
S-pairs: for every basis element g and exterior variable x dividing its
leading monomial, x*g has a vanishing leading term and must reduce to
zero, so it joins the pair queue.  This is the standard completion rule
for square-zero quotients.

Homogeneous input lets pairs be processed in increasing lcm degree, which
makes a degree cap sound: when the run stops at a cap, leading monomials
of degree <= cap are final and everything degree-bounded (dimensions,
normal forms) is exact there.

Reduction works in place on one dict: each step adds a multiple of a
basis element with `add_multiple`, and term order is applied once, when
the reduced polynomial is returned.  Every polynomial a basis holds is
monic and in that order, and its leading monomial is stored next to it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import MismatchError, ResourceLimitError
from .gfp import forward, inv_mod
from .hilbert import RationalSeries, quotient_series
from .present import (COMMUTATIVE, Presentation, add_multiple,
                      elimination_key, exterior_mask, mono_degree,
                      mono_divides, mono_key, mono_mul, mono_power,
                      monomials_of_degree, monomials_up_to, poly_canon,
                      poly_degree)

DEFAULT_PAIR_CEILING = 100_000

DEGREVLEX = "degrevlex"


def _order_key(order, gens):
    if order == DEGREVLEX:
        return lambda m: mono_key(m, gens, COMMUTATIVE)
    kind, front = order
    if kind != "eliminate":
        raise ValueError(f"unknown term order {order!r}")
    return elimination_key(front, gens)


def _reduce(f: dict, basis, leads, key, gens, p, ext) -> dict:
    """f fully reduced modulo the monic `basis`, whose leading monomials
    are `leads`.

    Standard division on one dict: the largest remaining term is cancelled
    by the first (in basis order) element whose lead divides it, or moved
    to the output.  A term of f that squares an exterior generator is
    zero, and is dropped first.
    """
    work = {m: c % p for m, c in f.items()
            if c % p and not any(e and k > 1 for e, k in zip(ext, m))}
    out: dict = {}
    while work:
        w = max(work, key=key)
        for g, lm in zip(basis, leads):
            if mono_divides(lm, w):
                q = tuple(a - b for a, b in zip(w, lm))
                sign, _ = mono_mul(q, lm, gens, COMMUTATIVE, p, ext)
                add_multiple(work, -work[w] * sign, q, g, gens, COMMUTATIVE,
                             p, ext)
                break
        else:
            out[w] = work.pop(w)
    return poly_canon(out, gens, COMMUTATIVE, p)


def normal_form(f: dict, basis, P: Presentation, order=DEGREVLEX) -> dict:
    """Fully reduce f modulo a list of monic polynomials."""
    if P.mode != COMMUTATIVE:
        raise MismatchError("Groebner reduction needs commutative mode")
    key = _order_key(order, P.gens)
    return _reduce(f, basis, [max(g, key=key) for g in basis], key, P.gens,
                   P.p, exterior_mask(P.gens, P.p, P.mode))


@dataclass
class GroebnerBasis:
    """A monic, interreduced basis with its order and truncation status;
    leads[i] is the leading monomial of polys[i]."""

    presentation: Presentation
    polys: tuple
    leads: tuple
    order: object = DEGREVLEX
    truncated_at: int | None = None

    @property
    def complete(self) -> bool:
        return self.truncated_at is None

    def key(self):
        return _order_key(self.order, self.presentation.gens)

    def normal_form(self, f: dict) -> dict:
        P = self.presentation
        return _reduce(f, self.polys, self.leads, self.key(), P.gens, P.p,
                       exterior_mask(P.gens, P.p, P.mode))


def buchberger(P: Presentation, order=DEGREVLEX,
               degree_cap: int | None = None,
               pair_ceiling: int = DEFAULT_PAIR_CEILING) -> GroebnerBasis:
    """Groebner basis of the relation ideal."""
    if P.mode != COMMUTATIVE:
        raise MismatchError("Groebner bases need commutative mode")
    gens, p = P.gens, P.p
    key = _order_key(order, gens)
    ext = exterior_mask(gens, p, P.mode)

    basis: list[dict] = []
    leads: list[tuple] = []
    pairs: list[tuple] = []  # (degree, kind, i, j) with kind 0=spair, 1=square
    truncated_at = None

    def push_reduced(f: dict):
        """Reduce f by the basis so far; a nonzero remainder joins the
        basis, monic, with its pairs."""
        h = _reduce(f, basis, leads, key, gens, p, ext)
        if not h:
            return
        lm = max(h, key=key)
        inv = inv_mod(h[lm], p)
        k = len(basis)
        basis.append({m: c * inv % p for m, c in h.items()})
        leads.append(lm)
        for i in range(k):
            w = tuple(max(a, b) for a, b in zip(leads[i], lm))
            heapq.heappush(pairs, (mono_degree(w, gens, COMMUTATIVE), 0, i, k))
        for v, e in enumerate(ext):
            if e and lm[v] == 1:
                heapq.heappush(
                    pairs,
                    (mono_degree(lm, gens, COMMUTATIVE) + gens.degrees[v], 1, k, v))

    for g in P.relations:
        push_reduced(g)

    processed = 0
    while pairs:
        deg, kind, i, j = heapq.heappop(pairs)
        if degree_cap is not None and deg > degree_cap:
            truncated_at = degree_cap
            break
        processed += 1
        if processed > pair_ceiling:
            raise ResourceLimitError(
                f"Groebner pair ceiling {pair_ceiling} exceeded")
        spoly: dict = {}
        if kind == 1:
            # implicit exterior square: reduce x_j * g_i
            add_multiple(spoly, 1, mono_power(j, 1, gens, COMMUTATIVE),
                         basis[i], gens, COMMUTATIVE, p, ext)
        else:
            u, v = leads[i], leads[j]
            w = tuple(max(a, b) for a, b in zip(u, v))
            coprime = all(min(a, b) == 0 for a, b in zip(u, v))
            sign_free = not any(
                e and (u[k_] or v[k_]) for k_, e in enumerate(ext))
            if coprime and sign_free:
                continue  # product criterion, classical proof applies
            qi = tuple(a - b for a, b in zip(w, u))
            qj = tuple(a - b for a, b in zip(w, v))
            si, _ = mono_mul(qi, u, gens, COMMUTATIVE, p, ext)
            sj, _ = mono_mul(qj, v, gens, COMMUTATIVE, p, ext)
            add_multiple(spoly, si, qi, basis[i], gens, COMMUTATIVE, p, ext)
            add_multiple(spoly, -sj, qj, basis[j], gens, COMMUTATIVE, p, ext)
        push_reduced(spoly)

    # interreduce: keep the minimal leading monomials, in increasing order,
    # and reduce each tail by the others; a kept lead is divisible by no
    # other kept lead, so it survives as the reduced element's lead
    kept: list[int] = []
    for k_ in sorted(range(len(basis)), key=lambda k_: key(leads[k_])):
        if not any(mono_divides(leads[i], leads[k_]) for i in kept):
            kept.append(k_)
    polys = tuple(
        _reduce(basis[k_], [basis[i] for i in kept if i != k_],
                [leads[i] for i in kept if i != k_], key, gens, p, ext)
        for k_ in kept)
    return GroebnerBasis(P, polys, tuple(leads[k_] for k_ in kept), order,
                         truncated_at)


def groebner_basis(P: Presentation) -> GroebnerBasis:
    return buchberger(P)


def standard_monomials(G: GroebnerBasis, n: int) -> list:
    """Degree-n monomials not divisible by any leading monomial.

    These are a basis of the degree-n quotient component; exact for every
    n below a truncation cap, and for all n when the basis is complete.
    """
    if G.truncated_at is not None and n > G.truncated_at:
        raise ResourceLimitError(
            f"basis truncated at degree {G.truncated_at}, degree {n} requested")
    P = G.presentation
    return _standard(G, monomials_of_degree(P.gens, n, P.mode, P.p))


def _standard(G: GroebnerBasis, monos) -> list:
    """The monomials of `monos` that no leading monomial divides."""
    leads = G.leads
    return [m for m in monos if not any(mono_divides(lm, m) for lm in leads)]


def series_of_quotient(G: GroebnerBasis) -> RationalSeries:
    """Exact Hilbert series of the quotient, from the leading-monomial
    ideal of a complete basis."""
    if not G.complete:
        raise ResourceLimitError(
            f"basis truncated at degree {G.truncated_at}, the series needs "
            f"a complete basis")
    P = G.presentation
    ext = exterior_mask(P.gens, P.p, P.mode)
    return quotient_series(G.leads, P.gens.degrees, ext)


def eliminate(P: Presentation, keep, degree_cap=None,
              pair_ceiling=DEFAULT_PAIR_CEILING):
    """Members of the ideal involving only the kept generators.

    Computed with a block order whose front block is the complement of
    `keep`; basis elements none of whose monomials touch the front block
    generate the intersection with the subalgebra on the kept generators
    (up to the cap when one is given).
    """
    keep = frozenset(keep)
    front = tuple(i for i in range(len(P.gens)) if i not in keep)
    G = buchberger(P, ("eliminate", front), degree_cap, pair_ceiling)
    out = []
    for g in G.polys:
        if all(all(m[i] == 0 for i in front) for m in g):
            out.append(g)
    return out, G


def annihilator(G: GroebnerBasis, ideal_gens, max_degree: int) -> tuple:
    """Dimensions of the annihilator of the ideal generated by
    `ideal_gens`, in degrees 0..max_degree.

    In each degree n the component Ann_n is the kernel of
    x -> (x*f_1, ..., x*f_k) on standard-monomial coordinates.  Each
    standard monomial s gives one sparse row, the normal forms of s*f_i
    keyed by (i, monomial); one forward pass counts the rank, and
    rank-nullity gives the kernel.  Exact per degree; homogeneous elements
    kill the whole ideal once they kill its generators, by graded
    commutativity.
    """
    P = G.presentation
    gens, p = P.gens, P.p
    ext = exterior_mask(gens, p, P.mode)
    fs = [poly_canon(f, gens, P.mode, p) for f in ideal_gens]
    fs = [f for f in fs if f]
    fdegs = [poly_degree(f, gens, P.mode) for f in fs]
    top = max_degree + max(fdegs, default=0)
    if G.truncated_at is not None and top > G.truncated_at:
        raise ResourceLimitError(
            f"annihilator to degree {max_degree} needs normal forms to "
            f"degree {top}, basis truncated at {G.truncated_at}")
    dims = []
    for monos in monomials_up_to(gens, max_degree, P.mode, p):
        sm = _standard(G, monos)
        rows = ({(i, m): c for i, f in enumerate(fs)
                 for m, c in G.normal_form(
                     add_multiple({}, 1, s, f, gens, P.mode, p, ext)).items()}
                for s in sm)
        dims.append(len(sm) - len(forward(rows, p)))
    return tuple(dims)
