"""Graded isomorphism decision for presented algebras over GF(p).

The decision procedure:

1. Compare cheap invariants (dimension sequences, exact series when they
   are computable, ideal-power filtration dims, declared nilradical
   quotient data).  Any mismatch refutes.
2. Enumerate candidate generator images: the i-th generator of A can only
   map to a nonzero element of the matching graded component of B, a
   finite set.  A tuple extends to an isomorphism exactly when every
   relation of A vanishes on it and the images generate B, so testing the
   two conditions over the whole candidate space decides the question.
3. Optional subset pruning (commutative mode): before the full search,
   small subsets of generators are screened with three necessary
   conditions on the ideal they generate, quotient Hilbert series,
   relations surviving elimination, and annihilator dimensions.  Surviving
   image lists then drive the enumeration; every test is a necessary
   condition for extendability, so pruning never changes the verdict.

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
from .groebner import (annihilator, eliminate, groebner_basis,
                       series_of_quotient)
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

@dataclass
class Fingerprint:
    """Screening invariants of one presented algebra at a working bound.

    `gen_degrees` is recorded for reporting but never compared, since
    presentations need not be minimal.  `nilrad` compares only when both
    sides declare nilradical generators; it is file-supplied data, not a
    derived invariant, so it also stays out of the digest.
    """

    p: int
    mode: str
    bound: int
    gen_degrees: tuple
    dims: tuple
    filtration_dims: tuple
    series: object | None          # RationalSeries when exact, else None
    nilrad: object | None = None   # RationalSeries | tuple of dims | None

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


def _exact_series(P: Presentation, pair_ceiling=None):
    """Exact rational series when obtainable, else None.

    Commutative: from a complete Groebner basis (resource failures fall
    back to None).  Either mode: a declared series line, validated against
    the engine before use.
    """
    computed = None
    if P.mode == COMMUTATIVE:
        try:
            kwargs = {} if pair_ceiling is None else {"pair_ceiling": pair_ceiling}
            G = groebner_basis(P, **kwargs)
            computed = series_of_quotient(G)
        except ResourceLimitError:
            computed = None
    if P.declared_series is not None:
        if computed is not None and not hilbert.equal(computed, P.declared_series):
            raise FinalgError(
                f"presentation {P.name}: declared series {P.declared_series} "
                f"contradicts the computed series {computed.canonical()}")
        return P.declared_series if computed is None else computed
    return computed


def fingerprint(P: Presentation, bound: int | None = None,
                T: TruncatedAlgebra | None = None,
                monomial_ceiling: int = DEFAULT_MONOMIAL_CEILING) -> Fingerprint:
    """Invariants of P at the bound (default: the presentation's own)."""
    if T is None:
        T = TruncatedAlgebra(P, bound, monomial_ceiling)
    series = _exact_series(P)
    dims = tuple(T.dims())
    if series is not None:
        expected = hilbert.dims_from_series(series, T.bound)
        if list(dims) != expected:
            raise FinalgError(
                f"presentation {P.name}: series expansion {expected} does not "
                f"match truncated dims {list(dims)}; engine inconsistency")
    nilrad = None
    if P.nilradical:
        sub = Presentation(name=P.name + "_modnil", p=P.p, mode=P.mode,
                           gens=P.gens,
                           relations=P.relations + P.nilradical)
        if P.mode == COMMUTATIVE:
            try:
                nilrad = series_of_quotient(groebner_basis(sub))
            except ResourceLimitError:
                nilrad = None
        if nilrad is None:
            nilrad = tuple(TruncatedAlgebra(sub, T.bound, monomial_ceiling).dims())
    return Fingerprint(p=P.p, mode=P.mode, bound=T.bound,
                       gen_degrees=tuple(sorted(P.gens.degrees)),
                       dims=dims,
                       filtration_dims=tuple(T.power_filtration_dims()),
                       series=series, nilrad=nilrad)


def compare_fingerprints(fa: Fingerprint, fb: Fingerprint):
    """(equal, reason): the first mismatching invariant field, if any."""
    if fa.bound != fb.bound:
        raise MismatchError("fingerprints computed at different bounds")
    if fa.dims != fb.dims:
        return False, "dimension sequence differs within the bound"
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


def _var_poly(P: Presentation, i: int) -> dict:
    return {tuple(1 if k == i else 0 for k in range(len(P.gens))): 1}


class _PruneData:
    """Admissible image tuples for generator subsets of size <= cap."""

    def __init__(self):
        self.singles: dict = {}    # i -> list of vector tuples, candidate order
        self.pairs: dict = {}      # (i, j) -> set of (vec, vec)
        self.triples: dict = {}    # (i, j, k) -> set
        self.stats: dict = {}
        self.empty_subset = None
        self.capped = False


ALL_PRUNE_TESTS = ("series", "relations", "annihilator")


def prune_ladder(A: Presentation, B: Presentation, TB: TruncatedAlgebra,
                 cand_lists, *, subset_cap: int = 3, elim_cap: int | None = None,
                 ann_cap: int | None = None, candidate_ceiling: int = 50_000,
                 pair_ceiling: int | None = None,
                 enabled_tests=ALL_PRUNE_TESTS) -> _PruneData | None:
    """Screen small generator subsets with the three ideal tests.

    Returns admissibility tables, or None when the ground Groebner bases
    are out of reach (pruning then silently turns off).  Every test is a
    necessary condition, so a failing candidate can never take part in an
    isomorphism; subsets or stages skipped on resource caps simply keep
    all candidates.
    """
    data = _PruneData()
    enabled = frozenset(enabled_tests)
    if A.mode != COMMUTATIVE:
        return None
    try:
        kwargs = {} if pair_ceiling is None else {"pair_ceiling": pair_ceiling}
        gb_A = groebner_basis(A, **kwargs)
        gb_B = groebner_basis(B, **kwargs)
    except ResourceLimitError:
        return None
    m = len(A.gens)
    w = max(truncation_bound(A), truncation_bound(B))
    if elim_cap is None:
        elim_cap = 2 * w
    if ann_cap is None:
        ann_cap = min(TB.bound - max(B.gens.degrees + A.gens.degrees), 2 * w)
        ann_cap = max(ann_cap, 0)
    series_cache: dict = {}

    def b_quotient_series(vpolys):
        key = tuple(sorted(format_poly(v, B.gens, B.mode, B.p) for v in vpolys))
        if key not in series_cache:
            try:
                series_cache[key] = series_of_quotient(
                    groebner_basis(B, list(vpolys), **kwargs))
            except ResourceLimitError:
                series_cache[key] = None
        return series_cache[key]

    def series_match(sa, sb) -> bool:
        if sa is None or sb is None:
            return True  # resource-capped: keep the candidate
        if isinstance(sa, RationalSeries) and isinstance(sb, RationalSeries):
            return hilbert.equal(sa, sb)
        cap = min(sa.bound if isinstance(sa, TruncatedSeries) else TB.bound,
                  sb.bound if isinstance(sb, TruncatedSeries) else TB.bound)
        return hilbert.equal_truncated(sa, sb, cap)

    def a_side(subset):
        vars_ = [_var_poly(A, i) for i in subset]
        qa, rels, ann = None, [], None
        if "series" in enabled:
            try:
                qa = series_of_quotient(groebner_basis(A, vars_, **kwargs))
            except ResourceLimitError:
                qa = None
        if "relations" in enabled:
            try:
                rels, _ = eliminate(A, subset, degree_cap=elim_cap, **kwargs)
            except ResourceLimitError:
                rels = []
        if "annihilator" in enabled:
            try:
                ann = annihilator(gb_A, vars_, ann_cap).dims
            except ResourceLimitError:
                ann = None
        return qa, rels, ann

    def test_candidate(subset, vecs, a_data, stat):
        qa, rels, ann_a = a_data
        images = {i: (A.gens.degrees[i], np.array(v, dtype=np.int64))
                  for i, v in zip(subset, vecs)}
        full = [images.get(i, (A.gens.degrees[i], None)) for i in range(m)]
        if "relations" in enabled:
            for rel in rels:
                got = TB.evaluate(rel, A, full)
                if got is not None and got[1].any():
                    stat["eliminated_relations"] += 1
                    return False
        vpolys = [TB.poly_of_vec(d, v) for d, v in (images[i] for i in subset)]
        if "annihilator" in enabled and ann_a is not None:
            try:
                ann_b = annihilator(gb_B, vpolys, ann_cap).dims
            except ResourceLimitError:
                ann_b = None
            if ann_b is not None and ann_b != ann_a:
                stat["eliminated_annihilator"] += 1
                return False
        if "series" in enabled and not series_match(qa, b_quotient_series(vpolys)):
            stat["eliminated_series"] += 1
            return False
        return True

    # stage 1: single generators
    stage_stat = {"subsets": 0, "tested": 0, "eliminated_series": 0,
                  "eliminated_relations": 0, "eliminated_annihilator": 0,
                  "surviving": 0}
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
    if subset_cap >= 2 and m >= 2:
        stage_stat = {"subsets": 0, "tested": 0, "eliminated_series": 0,
                      "eliminated_relations": 0, "eliminated_annihilator": 0,
                      "surviving": 0, "skipped_on_cap": 0}
        for i, j in itertools.combinations(range(m), 2):
            n_cand = len(data.singles[i]) * len(data.singles[j])
            if n_cand > candidate_ceiling:
                stage_stat["skipped_on_cap"] += 1
                data.capped = True
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
    if subset_cap >= 3 and m >= 3:
        stage_stat = {"subsets": 0, "tested": 0, "eliminated_series": 0,
                      "eliminated_relations": 0, "eliminated_annihilator": 0,
                      "surviving": 0, "skipped_on_cap": 0}
        for i, j, k in itertools.combinations(range(m), 3):
            pij = data.pairs.get((i, j))
            pik = data.pairs.get((i, k))
            pjk = data.pairs.get((j, k))
            if pij is None or pik is None or pjk is None:
                stage_stat["skipped_on_cap"] += 1
                data.capped = True
                continue
            cands = [(vi, vj, vk) for (vi, vj) in sorted(pij)
                     for vk in data.singles[k]
                     if (vi, vk) in pik and (vj, vk) in pjk]
            if len(cands) > candidate_ceiling:
                stage_stat["skipped_on_cap"] += 1
                data.capped = True
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


def graded_isomorphism(A: Presentation, B: Presentation, *,
                       max_degree: int | None = None, prune: bool = True,
                       use_fingerprints: bool = True, subset_cap: int = 3,
                       monomial_ceiling: int = DEFAULT_MONOMIAL_CEILING,
                       pair_ceiling: int | None = None,
                       prune_tests=ALL_PRUNE_TESTS) -> IsoVerdict:
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
        TA = TruncatedAlgebra(A, D, monomial_ceiling)
        TB = TruncatedAlgebra(B, D, monomial_ceiling)
    except ResourceLimitError as exc:
        return done(IsoVerdict("inconclusive", f"resource limit: {exc}"))

    degrees = A.gens.degrees
    comp_dims = [TB.dim(d) for d in degrees]
    # a graded isomorphism is injective, so a generator that is nonzero in
    # A needs a nonzero image, while one that collapses to zero in A (a
    # non-minimal presentation) is forced to the zero image
    gen_is_zero = [TA.element(A.parse_poly(name)) is None
                   for name in A.gens.names]
    stats["candidate_space"] = candidate_space_size(
        A.p, [d for d, z in zip(comp_dims, gen_is_zero) if not z])

    fa = fingerprint(A, T=TA)
    fb = fingerprint(B, T=TB)
    exact_series = fa.series is not None and fb.series is not None
    stats["exact_series"] = exact_series
    if use_fingerprints:
        equal_fp, why = compare_fingerprints(fa, fb)
        if not equal_fp:
            stats["fingerprint"] = f"mismatch: {why}"
            return done(IsoVerdict("not-isomorphic", why))
        stats["fingerprint"] = "equal"
    else:
        stats["fingerprint"] = "skipped"
    if exact_series and not hilbert.equal(fa.series, fb.series):
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
        pruned = prune_ladder(A, B, TB, cand_lists, subset_cap=subset_cap,
                              pair_ceiling=pair_ceiling,
                              enabled_tests=prune_tests)
        if pruned is not None:
            stats["pruned_by_stage"] = pruned.stats
            if pruned.empty_subset is not None:
                return done(IsoVerdict(
                    "not-isomorphic",
                    "subset admissibility empty for generators "
                    + _subset_label(A, pruned.empty_subset)))
            cand_lists = [pruned.singles[i] for i in range(len(degrees))]

    plans_by_depth = _relation_plans(A)
    m = len(degrees)
    images: list = [None] * m
    pair_adm = pruned.pairs if pruned is not None else {}
    triple_adm = pruned.triples if pruned is not None else {}
    raw = [None] * m

    def admissible(k: int, v) -> bool:
        for i in range(k):
            adm = pair_adm.get((i, k))
            if adm is not None and (raw[i], v) not in adm:
                return False
        for i, j in itertools.combinations(range(k), 2):
            adm = triple_adm.get((i, j, k))
            if adm is not None and (raw[i], raw[j], v) not in adm:
                return False
        return True

    # each relation is checked as soon as every generator it mentions has
    # an image, cutting whole subtrees instead of waiting for full tuples
    def search(k: int):
        if k == m:
            stats["enumerated"] += 1
            if not TB.generates(images):
                stats["generation_failures"] += 1
                return None
            return [img[1].copy() for img in images]
        for v in cand_lists[k]:
            if (pair_adm or triple_adm) and not admissible(k, v):
                continue
            raw[k] = v
            images[k] = (degrees[k], np.array(v, dtype=np.int64))
            ok = True
            for rel in plans_by_depth.get(k + 1, ()):
                got = TB.evaluate(rel, A, images)
                if got is not None and got[1].any():
                    stats["relation_failures"] += 1
                    ok = False
                    break
            if ok:
                found = search(k + 1)
                if found is not None:
                    return found
        raw[k] = None
        images[k] = None
        return None

    try:
        found = search(0)
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
