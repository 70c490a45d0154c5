"""Graded isomorphism decision for presented algebras over GF(p).

The decision procedure:

1. Compare invariants, cheapest first: the dimension sequences, and only
   when they agree, the exact series when they are computable, the
   ideal-power filtration dims and declared nilradical quotient data.
   Any mismatch refutes.
2. Enumerate candidate generator images: the i-th generator of A can only
   map to a nonzero element of the matching graded component of B, a
   finite set.  A tuple extends to an isomorphism exactly when every
   relation of A vanishes on it and the images generate B, so testing the
   two conditions over the whole candidate space decides the question.
3. Optional subset pruning (commutative mode): before the full search,
   subsets of at most three generators are screened with two necessary
   conditions on the ideal they generate, relations surviving elimination
   and the quotient Hilbert series.  Surviving image lists then drive the
   enumeration; every test is a necessary condition for extendability, so
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

import numpy as np

from . import hilbert
from .errors import FinalgError, MismatchError, ResourceLimitError
from .groebner import eliminate, groebner_basis, series_of_quotient
from .hilbert import RationalSeries, TruncatedSeries, count_nonzero_vectors
from .present import COMMUTATIVE, Presentation, format_poly
from .truncated import (DEFAULT_MONOMIAL_CEILING, TruncatedAlgebra,
                        default_bound, truncation_bound)

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
    bound count as nonzero).  `nilrad` compares only when both sides
    declare nilradical generators; it is file-supplied data, not a derived
    invariant, so it also stays out of the digest.
    """

    p: int
    mode: str
    bound: int
    gen_degrees: tuple
    dims: tuple
    filtration_dims: tuple
    series: object | None          # RationalSeries when exact, else None
    nilrad: object | None = None   # RationalSeries | tuple of dims | None
    zero_generators: tuple = ()

    def digest(self) -> str:
        if self.series is not None:
            series_tag = str(self.series.canonical())
        else:
            series_tag = "truncated:" + ",".join(str(d) for d in self.dims)
        blob = json.dumps({
            "p": self.p, "mode": self.mode, "bound": self.bound,
            "dims": list(self.dims), "filtration": list(self.filtration_dims),
            "series": series_tag,
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


def _series_from_basis(P: Presentation, extra=()):
    """Series of the quotient by P's relations and `extra`, from a
    Groebner basis; None in associative mode or when the basis is out of
    reach."""
    if P.mode != COMMUTATIVE:
        return None
    try:
        return series_of_quotient(groebner_basis(P, list(extra)))
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
            raise FinalgError(
                f"presentation {P.name}: series expansion {expected} does not "
                f"match truncated dims {list(dims)}; engine inconsistency")
    return series


def _gen_mono(P: Presentation, i: int):
    """The monomial of generator i."""
    if P.mode == COMMUTATIVE:
        return tuple(1 if k == i else 0 for k in range(len(P.gens)))
    return (i,)


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


def _dims(P: Presentation, T: TruncatedAlgebra | None, bound: int,
          monomial_ceiling: int) -> tuple:
    """P's graded dims in degrees 0..bound, memoized; T, P's engine at the
    bound and ceiling, is read only when they are not memoized yet."""
    return _memoized(P, ("dims", bound, monomial_ceiling),
                     lambda: tuple(T.dims()))


def _zero_flags(P: Presentation, T: TruncatedAlgebra | None, bound: int,
                monomial_ceiling: int) -> tuple:
    """`_zero_generators(P, T)`, memoized like `_dims`."""
    return _memoized(P, ("zero_generators", bound, monomial_ceiling),
                     lambda: _zero_generators(P, T))


def fingerprint(P: Presentation, bound: int | None = None,
                T: TruncatedAlgebra | None = None,
                monomial_ceiling: int = DEFAULT_MONOMIAL_CEILING) -> Fingerprint:
    """Invariants of P at the bound (default: the presentation's own).

    Computed once per bound and monomial ceiling and kept in P's memo,
    where its dims and zero-generator flags also have entries of their own
    (`graded_isomorphism` reads the dims before anything else).  An engine
    `T` of P fixes both and is used when they are not memoized yet.
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
    dims = _dims(P, T, T.bound, T.monomial_ceiling)
    series = _exact_series(P, dims, _ground_series(P))
    nilrad = None
    if P.nilradical:
        sub = Presentation(name=P.name + "_modnil", p=P.p, mode=P.mode,
                           gens=P.gens,
                           relations=P.relations + P.nilradical)
        nilrad = _series_from_basis(sub)
        if nilrad is None:
            nilrad = tuple(TruncatedAlgebra(sub, T.bound,
                                            T.monomial_ceiling).dims())
    return Fingerprint(p=P.p, mode=P.mode, bound=T.bound,
                       gen_degrees=tuple(sorted(P.gens.degrees)),
                       dims=dims,
                       filtration_dims=tuple(T.power_filtration_dims()),
                       series=series, nilrad=nilrad,
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
    if fa.nilrad is not None and fb.nilrad is not None:
        if isinstance(fa.nilrad, RationalSeries) and isinstance(fb.nilrad, RationalSeries):
            if not hilbert.equal(fa.nilrad, fb.nilrad):
                return False, "nilradical quotient series differ"
        else:
            da = (fa.nilrad if isinstance(fa.nilrad, tuple)
                  else tuple(hilbert.dims_from_series(fa.nilrad, fa.bound)))
            db = (fb.nilrad if isinstance(fb.nilrad, tuple)
                  else tuple(hilbert.dims_from_series(fb.nilrad, fb.bound)))
            if da != db:
                return False, "nilradical quotient dims differ"
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

def _subset_label(A: Presentation, subset) -> str:
    return "(" + ", ".join(A.gens.names[i] for i in subset) + ")"


class _PruneData:
    """Admissible image tuples for generator subsets of size <= 3."""

    def __init__(self):
        self.singles: dict = {}    # i -> list of vector tuples, candidate order
        self.pairs: dict = {}      # (i, j) -> set of (vec, vec)
        self.triples: dict = {}    # (i, j, k) -> set
        self.stats: dict = {}
        self.empty_subset = None


# a pair or triple subset with more candidate tuples than this keeps them all
_CANDIDATE_CEILING = 50_000


def _quotient_series(P: Presentation, polys):
    """Memoized series of P's quotient by the ideal the polys generate;
    None when its Groebner basis is out of reach."""
    key = tuple(sorted(format_poly(f, P.gens, P.mode, P.p) for f in polys))
    return _memoized(P, ("quotient_series", key),
                     lambda: _series_from_basis(P, polys))


def _eliminated(P: Presentation, subset, elim_cap: int) -> tuple:
    """P's relations among the subset's generators, up to elim_cap; none
    when the elimination is out of reach."""
    try:
        return tuple(eliminate(P, subset, degree_cap=elim_cap)[0])
    except ResourceLimitError:
        return ()


def _stage_stat(**extra) -> dict:
    # eliminated_annihilator is always 0; bench/tracing.py sums it per stage
    return {"subsets": 0, "tested": 0, "eliminated_series": 0,
            "eliminated_relations": 0, "eliminated_annihilator": 0,
            "surviving": 0, **extra}


def prune_ladder(A: Presentation, B: Presentation, TB: TruncatedAlgebra,
                 cand_lists) -> _PruneData | None:
    """Screen generator subsets of size <= 3 with two ideal tests: A's
    relations among the subset's generators must vanish on the images,
    and the quotient by the images must have the series of A's quotient.

    Returns admissibility tables, or None when the ground Groebner bases
    are out of reach (pruning then silently turns off).  Every test is a
    necessary condition, so a failing candidate can never take part in an
    isomorphism; subsets skipped on the candidate ceiling, and tests
    skipped on resource limits, simply keep all candidates.  Quotient
    series and eliminated relations are kept in the memos of A and B, so
    a later pair with either side reuses them.
    """
    data = _PruneData()
    if A.mode != COMMUTATIVE:
        return None
    # the ground bases must be in reach, else pruning turns off
    if _ground_series(A) is None or _ground_series(B) is None:
        return None
    m = len(A.gens)
    elim_cap = 2 * max(truncation_bound(A), truncation_bound(B))

    def series_match(sa, sb) -> bool:
        if sa is None or sb is None:
            return True  # resource-capped: keep the candidate
        if isinstance(sa, RationalSeries) and isinstance(sb, RationalSeries):
            return hilbert.equal(sa, sb)
        cap = min(sa.bound if isinstance(sa, TruncatedSeries) else TB.bound,
                  sb.bound if isinstance(sb, TruncatedSeries) else TB.bound)
        return hilbert.equal_truncated(sa, sb, cap)

    def a_side(subset):
        return (_quotient_series(A, [{_gen_mono(A, i): 1} for i in subset]),
                _memoized(A, ("eliminated", subset, elim_cap),
                          lambda: _eliminated(A, subset, elim_cap)))

    def test_candidate(subset, vecs, a_data, stat):
        qa, rels = a_data
        images = {i: (A.gens.degrees[i], np.array(v, dtype=np.int64))
                  for i, v in zip(subset, vecs)}
        full = [images.get(i, (A.gens.degrees[i], None)) for i in range(m)]
        for rel in rels:
            got = TB.evaluate(rel, A, full)
            if got is not None and got[1].any():
                stat["eliminated_relations"] += 1
                return False
        vpolys = [TB.poly_of_vec(d, v) for d, v in (images[i] for i in subset)]
        if not series_match(qa, _quotient_series(B, vpolys)):
            stat["eliminated_series"] += 1
            return False
        return True

    # stage 1: single generators
    stage_stat = _stage_stat()
    for i in range(m):
        a_data = a_side((i,))
        stage_stat["subsets"] += 1
        keep = []
        for v in cand_lists[i]:
            stage_stat["tested"] += 1
            if test_candidate((i,), (v,), a_data, stage_stat):
                keep.append(v)
        stage_stat["surviving"] += len(keep)
        data.singles[i] = keep
        if not keep:
            data.empty_subset = (i,)
            data.stats["stage1"] = stage_stat
            return data
    data.stats["stage1"] = stage_stat

    # stage 2: pairs built from surviving singles
    if m >= 2:
        stage_stat = _stage_stat(skipped_on_cap=0)
        for i, j in itertools.combinations(range(m), 2):
            n_cand = len(data.singles[i]) * len(data.singles[j])
            if n_cand > _CANDIDATE_CEILING:
                stage_stat["skipped_on_cap"] += 1
                continue
            stage_stat["subsets"] += 1
            a_data = a_side((i, j))
            keep = set()
            for vi in data.singles[i]:
                for vj in data.singles[j]:
                    stage_stat["tested"] += 1
                    if test_candidate((i, j), (vi, vj), a_data, stage_stat):
                        keep.add((vi, vj))
            stage_stat["surviving"] += len(keep)
            data.pairs[(i, j)] = keep
            if not keep:
                data.empty_subset = (i, j)
                data.stats["stage2"] = stage_stat
                return data
        data.stats["stage2"] = stage_stat

    # stage 3: triples whose sub-pairs all survived
    if m >= 3:
        stage_stat = _stage_stat(skipped_on_cap=0)
        for i, j, k in itertools.combinations(range(m), 3):
            pij = data.pairs.get((i, j))
            pik = data.pairs.get((i, k))
            pjk = data.pairs.get((j, k))
            if pij is None or pik is None or pjk is None:
                stage_stat["skipped_on_cap"] += 1
                continue
            cands = [(vi, vj, vk) for (vi, vj) in sorted(pij)
                     for vk in data.singles[k]
                     if (vi, vk) in pik and (vj, vk) in pjk]
            if len(cands) > _CANDIDATE_CEILING:
                stage_stat["skipped_on_cap"] += 1
                continue
            stage_stat["subsets"] += 1
            a_data = a_side((i, j, k))
            keep = set()
            for vi, vj, vk in cands:
                stage_stat["tested"] += 1
                if test_candidate((i, j, k), (vi, vj, vk), a_data, stage_stat):
                    keep.add((vi, vj, vk))
            stage_stat["surviving"] += len(keep)
            data.triples[(i, j, k)] = keep
            if not keep:
                data.empty_subset = (i, j, k)
                data.stats["stage3"] = stage_stat
                return data
        data.stats["stage3"] = stage_stat
    return data


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


def _admissible(k: int, v, raw, pair_adm, triple_adm) -> bool:
    for i in range(k):
        adm = pair_adm.get((i, k))
        if adm is not None and (raw[i], v) not in adm:
            return False
    for i, j in itertools.combinations(range(k), 2):
        adm = triple_adm.get((i, j, k))
        if adm is not None and (raw[i], raw[j], v) not in adm:
            return False
    return True


def _search(k: int, A: Presentation, TB: TruncatedAlgebra, cand_lists,
            plans_by_depth, pruned, images, raw, stats):
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
        if pruned and not _admissible(k, v, raw, *pruned):
            continue
        raw[k] = v
        images[k] = (deg, np.array(v, dtype=np.int64))
        ok = True
        for rel in plans_by_depth.get(k + 1, ()):
            got = TB.evaluate(rel, A, images)
            if got is not None and got[1].any():
                stats["relation_failures"] += 1
                ok = False
                break
        if ok:
            found = _search(k + 1, A, TB, cand_lists, plans_by_depth, pruned,
                            images, raw, stats)
            if found is not None:
                return found
    raw[k] = None
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
        # A's engine serves only its dims and zero flags, which its memo
        # may hold (`fingerprint` builds one again if it needs it); the
        # brute path computes everything afresh
        TA = (None if use_fingerprints and all(
                  (kind, D, monomial_ceiling) in A._memo
                  for kind in ("dims", "zero_generators"))
              else TruncatedAlgebra(A, D, monomial_ceiling))
        TB = TruncatedAlgebra(B, D, monomial_ceiling)
    except ResourceLimitError as exc:
        return done(IsoVerdict("inconclusive", f"resource limit: {exc}"))

    degrees = A.gens.degrees
    comp_dims = [TB.dim(d) for d in degrees]
    if use_fingerprints:
        dims_a = _dims(A, TA, D, monomial_ceiling)
        dims_b = _dims(B, TB, D, monomial_ceiling)
        gen_is_zero = _zero_flags(A, TA, D, monomial_ceiling)
        # a declared series is checked on every call, whatever the dims
        for P, dims in ((A, dims_a), (B, dims_b)):
            if P.declared_series is not None:
                _exact_series(P, dims, _ground_series(P))
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
        # dims first: the series, the filtration and the nilradical data
        # are computed only when the dims agree
        if dims_a != dims_b:
            stats["fingerprint"] = f"mismatch: {_DIMS_DIFFER}"
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

    # coordinate rows in lexicographic order over GF(p) residues, indexed
    # against the basis listed smallest-first, so the identity tuple is
    # enumerated first when A and B share a presentation
    cand_lists = [
        [(0,) * dim] if zero else
        [tuple(reversed(v))
         for v in itertools.product(range(A.p), repeat=dim) if any(v)]
        for dim, zero in zip(comp_dims, gen_is_zero)
    ]

    pruned = None
    if prune and A.mode == COMMUTATIVE:
        ladder = prune_ladder(A, B, TB, cand_lists)
        if ladder is not None:
            stats["pruned_by_stage"] = ladder.stats
            if ladder.empty_subset is not None:
                return done(IsoVerdict(
                    "not-isomorphic",
                    "subset admissibility empty for generators "
                    + _subset_label(A, ladder.empty_subset)))
            cand_lists = [ladder.singles[i] for i in range(len(degrees))]
            if ladder.pairs or ladder.triples:
                pruned = (ladder.pairs, ladder.triples)

    m = len(degrees)
    try:
        found = _search(0, A, TB, cand_lists, _relation_plans(A), pruned,
                        [None] * m, [None] * m, stats)
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
    B's generators.  Independent of the search that produced it.
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
        got = TB.element(poly)
        if got is None:
            images.append((deg, np.zeros(TB.dim(deg), dtype=np.int64)))
            continue
        if got[0] != deg:
            return False
        images.append(got)
    for rel in A.relations:
        out = TB.evaluate(rel, A, images)
        if out is not None and out[1].any():
            return False
    return TB.generates(images)
