"""Graded isomorphism decision for presented algebras over GF(p).

The decision procedure:

1. Compare invariants, cheapest first: the dimension sequences, and only
   when they agree, the exact series when they are computable and the
   ideal-power filtration dims.  Any mismatch refutes.  A file's
   `nilradical` lines are not compared: nothing checks that they name
   the nilradical.
2. Enumerate candidate generator images: the i-th generator of A can only
   map to a nonzero element of the matching graded component of B, a
   finite set.  A tuple extends to an isomorphism exactly when every
   relation of A vanishes on it and the images generate B, so testing the
   two conditions over the whole candidate space decides the question.
3. Optional pruning (commutative mode): before the full search, each
   generator's candidate images are screened one at a time.  When a power
   x^m of a non-exterior generator x vanishes in A within the bound (the
   least such m >= 2, read from A's truncated engine), an image v of x
   must satisfy v^m = 0 in B, and the search walks the survivors.  The
   screen runs no Groebner basis and is linear in each generator's
   candidates; image tuples are left to the search, which cuts them by
   relations.  The test is a necessary condition for extendability, so
   pruning never changes the verdict.

Search exhaustion refutes soundly in every mode: an isomorphism would
itself appear as some enumerated tuple passing both checks.  A successful
tuple upgrades to an "isomorphic" verdict only when exact series equality
is established; otherwise (associative mode without declared series) the
verdict stays "inconclusive" since surjectivity alone is certified.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import hilbert
from .errors import FinalgError, MismatchError, ResourceLimitError
from .groebner import groebner_basis, series_of_quotient
from .hilbert import count_nonzero_vectors
from .present import COMMUTATIVE, Presentation, exterior_mask, format_poly
from .truncated import (CANDIDATE_LIST_BUDGET, DEFAULT_MONOMIAL_CEILING,
                        TruncatedAlgebra, default_bound, truncation_bound)

__all__ = [
    "Fingerprint", "IsoVerdict", "candidate_space_size", "fingerprint",
    "graded_isomorphism", "pair_bound", "prune_ladder", "truncation_bound",
    "verify_certificate",
]


def candidate_space_size(p: int, component_dims) -> int:
    """Number of candidate image tuples: product of p^dim - 1 factors."""
    size = 1
    for d in component_dims:
        size *= count_nonzero_vectors(d, p)
    return size


def pair_bound(A: Presentation, B: Presentation, override: int | None = None) -> int:
    """Shared working degree for a pair: max of both default bounds."""
    if override is not None:
        return override
    return max(default_bound(A), default_bound(B))


# ------------------------------------------------------------ fingerprints

@dataclass(frozen=True)
class Fingerprint:
    """Screening invariants of one presented algebra at a working bound.

    `gen_degrees` is recorded for reporting but never compared, since
    presentations need not be minimal; neither is `zero_generators`, which
    flags the generators that are zero in the algebra (those above the
    bound count as nonzero).
    """

    p: int
    mode: str
    bound: int
    gen_degrees: tuple
    dims: tuple
    filtration_dims: tuple
    series: object | None          # RationalSeries when exact, else None
    zero_generators: tuple = ()

    def digest(self) -> str:
        """Hash of p, mode, bound, dims and filtration dims, which every
        presentation of one algebra shares at one bound.  The series is
        left out: whether it is known depends on the presentation (a
        declared series line, or a Groebner basis within reach), so two
        presentations of one algebra could hash apart; where both are
        known, `graded_isomorphism` compares them."""
        blob = json.dumps({
            "p": self.p, "mode": self.mode, "bound": self.bound,
            "dims": list(self.dims), "filtration": list(self.filtration_dims),
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _memoized(P: Presentation, key, compute):
    """The entry `key` of P's memo (see `Presentation`), computed on first
    use.  A compute that raises stores nothing, so the error is raised
    again on every call."""
    memo = P._memo
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _series_from_basis(P: Presentation):
    """Series of P's quotient from a Groebner basis; None in associative
    mode or when the basis is out of reach."""
    if P.mode != COMMUTATIVE:
        return None
    try:
        return series_of_quotient(groebner_basis(P))
    except ResourceLimitError:
        return None


def _ground_series(P: Presentation):
    """`_series_from_basis(P)`, memoized; None also says that the ground
    Groebner basis is out of reach."""
    return _memoized(P, "ground_series", lambda: _series_from_basis(P))


def _exact_series(P: Presentation, dims, ground):
    """Exact rational series when obtainable, else None.

    `ground` is the series from P's ground Groebner basis, or None.  Either
    mode may add a declared series line, which must agree with it.
    Whatever is returned has been checked against P's truncated `dims`
    (degrees 0..bound), so an inconsistency raises here and nowhere else.
    """
    series = ground
    if P.declared_series is not None:
        if series is not None and not hilbert.equal(series, P.declared_series):
            raise FinalgError(
                f"presentation {P.name}: declared series {P.declared_series} "
                f"contradicts the computed series {series.canonical()}")
        if series is None:
            series = P.declared_series
    if series is not None:
        expected = hilbert.dims_from_series(series, len(dims) - 1)
        if list(dims) != expected:
            if ground is None:
                raise FinalgError(
                    f"presentation {P.name}: declared series "
                    f"{P.declared_series} contradicts the truncated dims "
                    f"{list(dims)}; its expansion {expected} does not match")
            raise FinalgError(
                f"presentation {P.name}: series expansion {expected} does not "
                f"match truncated dims {list(dims)}; engine inconsistency")
    return series


def _gen_mono(P: Presentation, i: int, e: int = 1):
    """The monomial of the e-th power of generator i."""
    if P.mode == COMMUTATIVE:
        return tuple(e if k == i else 0 for k in range(len(P.gens)))
    return (i,) * e


def _zero_generators(P: Presentation, T: TruncatedAlgebra) -> tuple:
    """Which generators are zero in the algebra, as far as T's bound sees.
    A generator in T's standard basis is a basis vector, so only the
    others need reducing."""
    flags = []
    for i, d in enumerate(P.gens.degrees):
        mono = _gen_mono(P, i)
        flags.append(d <= T.bound and mono not in T.basis(d)
                     and T.element({mono: 1}) is None)
    return tuple(flags)


def _dims(P: Presentation, engine, bound: int, monomial_ceiling: int,
          upto: int) -> tuple:
    """P's graded dims in degrees 0..upto.  P's memo keeps the longest
    prefix read so far at the bound and ceiling; `engine()` returns P's
    engine there and is called only to read past that prefix."""
    key = ("dims", bound, monomial_ceiling)
    known = P._memo.get(key, ())
    if len(known) <= upto:
        T = engine()
        known += tuple(T.dim(n) for n in range(len(known), upto + 1))
        P._memo[key] = known
    return known[:upto + 1]


def _zero_flags(P: Presentation, T: TruncatedAlgebra | None, bound: int,
                monomial_ceiling: int) -> tuple:
    """`_zero_generators(P, T)`, memoized per bound and ceiling; T, P's
    engine there, is read only when they are not memoized yet."""
    return _memoized(P, ("zero_generators", bound, monomial_ceiling),
                     lambda: _zero_generators(P, T))


def _vanishing_powers(P: Presentation, engine, bound: int,
                      monomial_ceiling: int) -> tuple:
    """For each generator x of commutative P, the least m >= 2 with
    x^m = 0 within the bound, else 0; 0 also for an exterior generator,
    whose square vanishes in every algebra.  Memoized per bound and
    ceiling; `engine()` returns P's engine there and is called only when
    they are not memoized yet."""
    def compute():
        T = engine()
        ext = exterior_mask(P.gens, P.p, P.mode)
        return tuple(
            0 if ext[i] else next((m for m in range(2, T.bound // d + 1)
                                   if T.is_zero({_gen_mono(P, i, m): 1})), 0)
            for i, d in enumerate(P.gens.degrees))
    return _memoized(P, ("vanishing_powers", bound, monomial_ceiling),
                     compute)


def fingerprint(P: Presentation, bound: int | None = None,
                T: TruncatedAlgebra | None = None,
                monomial_ceiling: int = DEFAULT_MONOMIAL_CEILING) -> Fingerprint:
    """Invariants of P at the bound (default: the presentation's own).

    Computed once per bound and monomial ceiling and kept in P's memo,
    where its dims and zero-generator flags also have entries of their own
    (`graded_isomorphism` reads the dims before anything else, and only as
    far as they agree).  An engine `T` of P fixes both and is used when
    they are not memoized yet.
    """
    if T is not None:
        bound, monomial_ceiling = T.bound, T.monomial_ceiling
    elif bound is None:
        bound = default_bound(P)

    def compute():
        TP = T if T is not None else TruncatedAlgebra(P, bound,
                                                      monomial_ceiling)
        return _compute_fingerprint(P, TP)
    return _memoized(P, ("fingerprint", bound, monomial_ceiling), compute)


def _compute_fingerprint(P: Presentation, T: TruncatedAlgebra) -> Fingerprint:
    dims = _dims(P, lambda: T, T.bound, T.monomial_ceiling, T.bound)
    series = _exact_series(P, dims, _ground_series(P))
    # the filtration reduces every degree of T anyway, so reading the prune
    # ladder's powers here adds only lookups, and no later pair builds an
    # engine for them
    if P.mode == COMMUTATIVE:
        _vanishing_powers(P, lambda: T, T.bound, T.monomial_ceiling)
    return Fingerprint(p=P.p, mode=P.mode, bound=T.bound,
                       gen_degrees=tuple(sorted(P.gens.degrees)),
                       dims=dims,
                       filtration_dims=tuple(T.power_filtration_dims()),
                       series=series,
                       zero_generators=_zero_flags(P, T, T.bound,
                                                   T.monomial_ceiling))


_DIMS_DIFFER = "dimension sequence differs within the bound"


def compare_fingerprints(fa: Fingerprint, fb: Fingerprint):
    """(equal, reason): the first mismatching invariant field, if any."""
    if fa.bound != fb.bound:
        raise MismatchError("fingerprints computed at different bounds")
    if fa.dims != fb.dims:
        return False, _DIMS_DIFFER
    if fa.series is not None and fb.series is not None:
        if not hilbert.equal(fa.series, fb.series):
            return False, "Hilbert series differ"
    if fa.filtration_dims != fb.filtration_dims:
        return False, "augmentation-ideal power filtration differs"
    return True, None


# ----------------------------------------------------------------- verdict

@dataclass
class IsoVerdict:
    outcome: str                      # isomorphic | not-isomorphic | inconclusive
    reason: str | None = None
    certificate: dict | None = None   # A generator name -> polynomial in B
    statistics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"outcome": self.outcome, "reason": self.reason,
                "certificate": self.certificate, "statistics": self.statistics}


# ------------------------------------------------------------ prune ladder

def prune_ladder(A: Presentation, B: Presentation, TB: TruncatedAlgebra,
                 cand_lists) -> SimpleNamespace | None:
    """Screen each generator's candidate images: where x^m = 0 in A (m the
    generator's vanishing power, see `_vanishing_powers`), an image v must
    have v^m = 0 in B.

    Returns `survivors`, each generator's passing candidates in candidate
    order, and `stats`, one entry "stage1" of counters.  The screen stops
    at the first generator left with none, which `empty_generator` names
    (else None), so `survivors` then ends with that empty list.  Returns
    None in associative mode.

    The test is a necessary condition, so a failing candidate can never
    take part in an isomorphism.  A's powers are read from its memo at
    TB's bound and ceiling, where `graded_isomorphism` leaves them (an
    engine of A is built only when they are missing); the screen runs no
    Groebner basis and leaves nothing in B's memo.
    """
    if A.mode != COMMUTATIVE:
        return None
    bound, ceiling = TB.bound, TB.monomial_ceiling
    powers = _vanishing_powers(
        A, lambda: TruncatedAlgebra(A, bound, ceiling), bound, ceiling)
    # eliminated_series and eliminated_annihilator are always 0;
    # bench/tracing.py sums them per stage
    stat = {"subsets": 0, "tested": 0, "eliminated_series": 0,
            "eliminated_relations": 0, "eliminated_annihilator": 0,
            "surviving": 0}
    ladder = SimpleNamespace(survivors=[], stats={"stage1": stat},
                             empty_generator=None)
    images = [(d, None) for d in A.gens.degrees]
    for i, cands in enumerate(cand_lists):
        keep = cands
        if powers[i]:
            power = {_gen_mono(A, i, powers[i]): 1}
            keep = []
            for v in cands:
                images[i] = (A.gens.degrees[i], np.array(v, dtype=np.int64))
                if TB.evaluate(power, A, images)[1].any():
                    stat["eliminated_relations"] += 1
                else:
                    keep.append(v)
        stat["subsets"] += 1
        stat["tested"] += len(cands)
        stat["surviving"] += len(keep)
        ladder.survivors.append(keep)
        if not keep:
            ladder.empty_generator = A.gens.names[i]
            return ladder
    return ladder


# ------------------------------------------------------------- the search

def _relation_plans(A: Presentation):
    """A's relations keyed by their highest generator position + 1, the
    search depth at which every generator they mention has an image."""
    by_depth: dict[int, list] = {}
    for rel in A.relations:
        if A.mode == COMMUTATIVE:
            used = [i for mono in rel for i, e in enumerate(mono) if e]
        else:
            used = [i for mono in rel for i in mono]
        by_depth.setdefault(max(used, default=0) + 1, []).append(rel)
    return by_depth


def _search(k: int, A: Presentation, TB: TruncatedAlgebra, cand_lists,
            plans_by_depth, images, stats):
    """Depth-first over candidate images from generator k on; returns the
    first tuple whose relations vanish and whose images generate B.

    Each relation is checked as soon as every generator it mentions has
    an image, cutting whole subtrees instead of waiting for full tuples.
    A module-level function rather than a closure, so that a call leaves
    no reference cycle holding the engine.
    """
    if k == len(cand_lists):
        stats["enumerated"] += 1
        if not TB.generates(images):
            stats["generation_failures"] += 1
            return None
        return [img[1].copy() for img in images]
    deg = A.gens.degrees[k]
    for v in cand_lists[k]:
        images[k] = (deg, np.array(v, dtype=np.int64))
        ok = True
        for rel in plans_by_depth.get(k + 1, ()):
            got = TB.evaluate(rel, A, images)
            if got is not None and got[1].any():
                stats["relation_failures"] += 1
                ok = False
                break
        if ok:
            found = _search(k + 1, A, TB, cand_lists, plans_by_depth, images,
                            stats)
            if found is not None:
                return found
    images[k] = None
    return None


def graded_isomorphism(A: Presentation, B: Presentation, *,
                       max_degree: int | None = None, prune: bool = True,
                       use_fingerprints: bool = True,
                       monomial_ceiling: int = DEFAULT_MONOMIAL_CEILING
                       ) -> IsoVerdict:
    """Decide graded isomorphism; see the module docstring for the plan."""
    t0 = time.monotonic()
    if A.p != B.p:
        raise MismatchError(f"characteristics differ: {A.p} vs {B.p}")
    if A.mode != B.mode:
        raise MismatchError(f"modes differ: {A.mode} vs {B.mode}")
    D = pair_bound(A, B, max_degree)
    stats: dict = {"bound": D, "enumerated": 0, "relation_failures": 0,
                   "generation_failures": 0, "pruned_by_stage": None}

    def done(verdict: IsoVerdict) -> IsoVerdict:
        verdict.statistics = dict(stats)
        verdict.statistics["wall_time_ms"] = round(
            1000 * (time.monotonic() - t0), 3)
        return verdict

    try:
        # A's engine serves only its zero flags and dims, which its memo
        # may hold: with the flags memoized it is built only if the dims
        # are read past the memoized prefix (`fingerprint` builds one
        # again if it needs it); the brute path computes everything afresh
        TA = (None if use_fingerprints
              and ("zero_generators", D, monomial_ceiling) in A._memo
              else TruncatedAlgebra(A, D, monomial_ceiling))
        TB = TruncatedAlgebra(B, D, monomial_ceiling)
    except ResourceLimitError as exc:
        return done(IsoVerdict("inconclusive", f"resource limit: {exc}"))

    def engine_a() -> TruncatedAlgebra:
        # TA is None only when A's memo holds its zero flags, which a
        # successful build of this engine wrote, so this one raises no
        # resource limit
        nonlocal TA
        if TA is None:
            TA = TruncatedAlgebra(A, D, monomial_ceiling)
        return TA

    degrees = A.gens.degrees
    comp_dims = [TB.dim(d) for d in degrees]
    if use_fingerprints:
        gen_is_zero = _zero_flags(A, TA, D, monomial_ceiling)
        sides = ((A, engine_a), (B, lambda: TB))
        # a declared series is checked on every call, against all the dims
        for P, engine in sides:
            if P.declared_series is not None:
                _exact_series(P, _dims(P, engine, D, monomial_ceiling, D),
                              _ground_series(P))
    else:
        sa = _exact_series(A, TA.dims(), _series_from_basis(A))
        sb = _exact_series(B, TB.dims(), _series_from_basis(B))
        gen_is_zero = _zero_generators(A, TA)
    # a graded isomorphism is injective, so a generator that is nonzero in
    # A needs a nonzero image, while one that collapses to zero in A (a
    # non-minimal presentation) is forced to the zero image
    stats["candidate_space"] = candidate_space_size(
        A.p, [d for d, z in zip(comp_dims, gen_is_zero) if not z])
    if use_fingerprints:
        # dims first, degree by degree up to the first difference; the
        # series and the filtration are computed only when all the dims
        # agree
        for n in range(D + 1):
            da, db = (_dims(P, engine, D, monomial_ceiling, n)[n]
                      for P, engine in sides)
            if da != db:
                stats["fingerprint"] = f"mismatch: {_DIMS_DIFFER}"
                stats["first_dims_difference"] = n
                return done(IsoVerdict("not-isomorphic", _DIMS_DIFFER))
        fa = fingerprint(A, D, TA, monomial_ceiling)
        fb = fingerprint(B, D, TB, monomial_ceiling)
        sa, sb = fa.series, fb.series
    exact_series = sa is not None and sb is not None
    stats["exact_series"] = exact_series
    if use_fingerprints:
        equal_fp, why = compare_fingerprints(fa, fb)
        if not equal_fp:
            stats["fingerprint"] = f"mismatch: {why}"
            return done(IsoVerdict("not-isomorphic", why))
        stats["fingerprint"] = "equal"
    else:
        stats["fingerprint"] = "skipped"
    if exact_series and not hilbert.equal(sa, sb):
        return done(IsoVerdict("not-isomorphic", "Hilbert series differ"))

    if stats["candidate_space"] == 0:
        empty = next(d for d, dim, z in
                     zip(degrees, comp_dims, gen_is_zero) if not z and dim == 0)
        return done(IsoVerdict(
            "not-isomorphic",
            f"no candidate images: the degree-{empty} component of the "
            f"target is zero"))

    # the lists are built whole, so their total length is bounded first
    sizes = [1 if zero else count_nonzero_vectors(dim, A.p)
             for dim, zero in zip(comp_dims, gen_is_zero)]
    if sum(sizes) > CANDIDATE_LIST_BUDGET:
        count, name = max(zip(sizes, A.gens.names))
        return done(IsoVerdict(
            "inconclusive",
            f"resource limit: generator {name} has {count} candidate "
            f"images, {sum(sizes)} in all, more than the candidate budget "
            f"of {CANDIDATE_LIST_BUDGET}"))

    # coordinate rows in lexicographic order over GF(p) residues, indexed
    # against the basis listed smallest-first, so the identity tuple is
    # enumerated first when A and B share a presentation
    cand_lists = [
        [(0,) * dim] if zero else
        [tuple(reversed(v))
         for v in itertools.product(range(A.p), repeat=dim) if any(v)]
        for dim, zero in zip(comp_dims, gen_is_zero)
    ]

    if prune and A.mode == COMMUTATIVE:
        # the ladder reads A's powers from A's memo; without fingerprints
        # nothing has put them there, and A's engine here does so with no
        # second build
        _vanishing_powers(A, engine_a, D, monomial_ceiling)
        ladder = prune_ladder(A, B, TB, cand_lists)
        stats["pruned_by_stage"] = ladder.stats
        if ladder.empty_generator is not None:
            return done(IsoVerdict(
                "not-isomorphic",
                "subset admissibility empty for generators "
                f"({ladder.empty_generator})"))
        cand_lists = ladder.survivors

    try:
        found = _search(0, A, TB, cand_lists, _relation_plans(A),
                        [None] * len(degrees), stats)
    except ResourceLimitError as exc:
        return done(IsoVerdict("inconclusive", f"resource limit: {exc}"))

    if found is None:
        return done(IsoVerdict("not-isomorphic", "search exhausted"))

    cert = {}
    for name, deg, vec in zip(A.gens.names, degrees, found):
        cert[name] = format_poly(TB.poly_of_vec(deg, vec), B.gens, B.mode, B.p)
    if not verify_certificate(A, B, cert, TB=TB):
        raise FinalgError("internal error: found tuple failed re-verification")
    if exact_series:
        return done(IsoVerdict("isomorphic", None, cert))
    return done(IsoVerdict(
        "inconclusive",
        f"surjective graded map certified, series equality only checked to "
        f"degree {D}", cert))


def verify_certificate(A: Presentation, B: Presentation, certificate: dict,
                       TB: TruncatedAlgebra | None = None,
                       max_degree: int | None = None) -> bool:
    """Re-check a certificate: relations vanish and the images generate.

    `certificate` maps each A generator name to a polynomial string over
    B's generators, whose monomials must all have the generator's degree.
    Independent of the search that produced it.
    """
    if A.p != B.p or A.mode != B.mode:
        return False
    if set(certificate) != set(A.gens.names):
        return False
    if TB is None:
        TB = TruncatedAlgebra(B, pair_bound(A, B, max_degree))
    images = []
    for name, deg in zip(A.gens.names, A.gens.degrees):
        poly = B.parse_poly(certificate[name])
        if any(B.mono_degree(mono) != deg for mono in poly):
            return False
        got = TB.element(poly)
        images.append(got if got is not None
                      else (deg, np.zeros(TB.dim(deg), dtype=np.int64)))
    for rel in A.relations:
        out = TB.evaluate(rel, A, images)
        if out is not None and out[1].any():
            return False
    return TB.generates(images)
