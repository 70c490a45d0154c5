"""Graded isomorphism decision for presented algebras over GF(p).

The decision procedure:

1. Compare invariants, cheapest first: the dimension sequences, and only
   when they agree, the exact series when they are computable and the
   ideal-power filtration dims.  Any mismatch refutes.  A file's
   `nilradical` lines are not compared: nothing checks that they name
   the nilradical.
2. Enumerate candidate generator images: the i-th generator of A can only
   map to a nonzero element of the matching graded component of B, a
   finite set, held as one block with a row per image.  A tuple extends
   to an isomorphism exactly when every relation of A vanishes on it and
   the images generate B, so testing the two conditions over the whole
   candidate space decides the question.  The search evaluates each
   relation once over a block of one generator's rows, with the earlier
   generators' images fixed.  For generation it carries, per generator
   degree of B, the reduced span of B's decomposables and the images
   fixed so far, extended by one row where a row adds rank, so the last
   generator's rows are tested at once by one reduction against it, or
   refuted whole when a degree falls short by more than one row can
   fill.  It walks the rows in candidate order, so it finds and counts
   what a walk one tuple at a time would.
3. Optional pruning (commutative mode): before the full search, each
   generator's candidate images are screened as one block.  When a power
   x^m of a non-exterior generator x vanishes in A within the bound (the
   least such m >= 2, read from A's truncated engine), an image v of x
   must satisfy v^m = 0 in B, and the search walks the survivors.  The
   screen runs no Groebner basis and is linear in each generator's
   candidates; image tuples are left to the search, which cuts them by
   relations.  The test is a necessary condition for extendability, so
   pruning never changes the verdict.

A call holds one side object per presentation, at the pair's bound and
monomial ceiling.  It builds that presentation's engine on first need and
keeps the dims, zero-generator flags, vanishing powers, truncation bound,
ground series and fingerprint in the presentation's memo, under flat keys
such as ("dims", bound, ceiling).  The brute-force oracle
(`use_fingerprints=False`) gives both sides a fresh dict instead, so it
reads and fills no memo whatever `prune` is, and compares no fingerprint.

Search exhaustion refutes soundly in every mode: an isomorphism would
itself appear as some enumerated tuple passing both checks.  A successful
tuple upgrades to an "isomorphic" verdict only when exact series equality
is established; otherwise (associative mode without declared series) the
verdict stays "inconclusive" since surjectivity alone is certified.  A
bound below the pair's truncation bound (its largest generator or
relation degree) keeps the invariants exact but lists no map, so a pair
they do not refute there is "inconclusive" too.

`_decide` reaches every verdict, and `graded_isomorphism` finishes each
in one place: it attaches the statistics and the time taken, and turns a
resource limit hit at any stage (an engine build, a screen, the search)
into an "inconclusive" verdict that names the limit.

numpy holds the candidate blocks, so it is loaded by the first pair that
lists candidates (`_candidates`, `prune_ladder`, `_search`) or re-checks
a certificate (`verify_certificate`).  The invariants load none, so a pair
they refute, or a fingerprint alone, runs without it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from . import hilbert
from .errors import FinalgError, MismatchError, ParseError, ResourceLimitError
from .groebner import groebner_basis, series_of_quotient
from .hilbert import count_nonzero_vectors
from .present import (COMMUTATIVE, Presentation, exterior_mask, format_poly,
                      mono_factors, mono_power)
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
    """Screening invariants of one presented algebra at a working bound."""

    p: int
    mode: str
    bound: int
    dims: tuple
    filtration_dims: tuple
    series: object | None          # RationalSeries when exact, else None

    def digest(self) -> str:
        """Hash of p, mode, bound, dims and filtration dims, which every
        presentation of one algebra shares at one bound.  The series is
        left out: whether it is known depends on the presentation (a
        declared series line, or a Groebner basis within reach), so two
        presentations of one algebra could hash apart; where both are
        known, `graded_isomorphism` compares them."""
        import hashlib
        import json
        blob = json.dumps({
            "p": self.p, "mode": self.mode, "bound": self.bound,
            "dims": list(self.dims), "filtration": list(self.filtration_dims),
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _series_from_basis(P: Presentation):
    """Series of P's quotient from a Groebner basis; None in associative
    mode or when the basis is out of reach."""
    if P.mode != COMMUTATIVE:
        return None
    try:
        return series_of_quotient(groebner_basis(P))
    except ResourceLimitError:
        return None


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


class _Side:
    """The invariants of one presentation P at one bound and monomial
    ceiling, for the length of one call.

    Values are kept in `memo` under flat keys, `(name, bound, ceiling)`,
    and the ground series, which no bound changes, under
    `"ground_series"`.  The memo is P's own (see `Presentation`), or a
    fresh dict for a call that must read and fill none.  A compute that
    raises stores nothing, so the error is raised again on every call.
    P's engine `T` at the bound and ceiling is built on first need.
    """

    def __init__(self, P: Presentation, bound: int, ceiling: int,
                 memo: dict, T: TruncatedAlgebra | None):
        self.P, self.bound, self.ceiling = P, bound, ceiling
        self.memo, self.T = memo, T

    def engine(self) -> TruncatedAlgebra:
        if self.T is None:
            self.T = TruncatedAlgebra(self.P, self.bound, self.ceiling)
        return self.T

    def entry(self, name: str, compute):
        key = (name, self.bound, self.ceiling)
        if key not in self.memo:
            self.memo[key] = compute(self.P)
        return self.memo[key]

    def dim(self, n: int) -> int:
        """Graded dim in degree n.  The memo keeps the longest prefix of
        dims read so far, and the engine is read only past it."""
        key = ("dims", self.bound, self.ceiling)
        known = self.memo.get(key, ())
        if len(known) <= n:
            T = self.engine()
            known += tuple(T.dim(k) for k in range(len(known), n + 1))
            self.memo[key] = known
        return known[n]

    def dims(self) -> tuple:
        """Graded dims in degrees 0..bound."""
        self.dim(self.bound)
        return self.memo[("dims", self.bound, self.ceiling)]

    def series(self):
        """`_exact_series` against all the dims; the ground series in it
        is memoized, the check against the dims is not."""
        if "ground_series" not in self.memo:
            self.memo["ground_series"] = _series_from_basis(self.P)
        return _exact_series(self.P, self.dims(), self.memo["ground_series"])

    def zero_flags(self) -> tuple:
        """Which generators are zero in the algebra, as far as the bound
        sees (those above it count as nonzero)."""
        def compute(P):
            T = self.engine()
            return tuple(d <= T.bound
                         and T.vanishes(mono_power(i, 1, P.gens, P.mode))
                         for i, d in enumerate(P.gens.degrees))
        return self.entry("zero_generators", compute)

    def vanishing_powers(self) -> tuple:
        """For each generator x, the least m >= 2 with x^m = 0 within the
        bound, else 0; 0 also for an exterior generator, whose square
        vanishes in every algebra."""
        def compute(P):
            T = self.engine()
            ext = exterior_mask(P.gens, P.p, P.mode)
            return tuple(
                0 if ext[i] else next(
                    (m for m in range(2, T.bound // d + 1)
                     if T.vanishes(mono_power(i, m, P.gens, P.mode))), 0)
                for i, d in enumerate(P.gens.degrees))
        return self.entry("vanishing_powers", compute)

    def fingerprint(self) -> Fingerprint:
        def compute(P):
            series = self.series()
            # the filtration reduces every degree of the engine anyway, so
            # reading the zero flags and the ladder's powers here adds only
            # lookups, and no later pair builds an engine for them
            self.zero_flags()
            if P.mode == COMMUTATIVE:
                self.vanishing_powers()
            return Fingerprint(
                p=P.p, mode=P.mode, bound=self.bound,
                dims=self.dims(),
                filtration_dims=tuple(self.engine().power_filtration_dims()),
                series=series)
        return self.entry("fingerprint", compute)


def fingerprint(P: Presentation, bound: int | None = None,
                T: TruncatedAlgebra | None = None,
                monomial_ceiling: int = DEFAULT_MONOMIAL_CEILING) -> Fingerprint:
    """Invariants of P at the bound (default: the presentation's own).

    Computed once per bound and monomial ceiling and kept in P's memo.  An
    engine `T` of P fixes both and is used when they are not memoized yet.
    """
    if T is not None:
        bound, monomial_ceiling = T.bound, T.monomial_ceiling
    elif bound is None:
        bound = default_bound(P)
    return _Side(P, bound, monomial_ceiling, P._memo, T).fingerprint()


_DIMS_DIFFER = "dimension sequence differs within the bound"


def compare_fingerprints(fa: Fingerprint, fb: Fingerprint):
    """(equal, reason): the first mismatching invariant field, if any.
    Fingerprints of different characteristics, modes or bounds do not
    compare: MismatchError."""
    if fa.p != fb.p:
        raise MismatchError(f"characteristics differ: {fa.p} vs {fb.p}")
    if fa.mode != fb.mode:
        raise MismatchError(f"modes differ: {fa.mode} vs {fb.mode}")
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

# Rows of a candidate block evaluated at once by the search and the prune
# ladder; bounds the temporaries of one evaluation and what the search
# evaluates past the tuple it finds.
_BLOCK_ROWS = 4096
# Most candidate images, summed over a pair's generators, that
# `graded_isomorphism` lists before it searches; an image is one row of an
# int64 block, so this also bounds the memory the blocks take.
CANDIDATE_LIST_BUDGET = 300_000


def prune_ladder(A: Presentation, TB: TruncatedAlgebra, cand_lists,
                 powers) -> SimpleNamespace:
    """Screen each generator's candidate images: where x^m = 0 in A (m the
    generator's entry in `powers`, 0 for none; see
    `_Side.vanishing_powers`), an image v must have v^m = 0 in B.

    Returns `survivors`, each generator's passing candidates in candidate
    order, and `stats`, one entry "stage1" of counters.  The screen stops
    at the first generator left with none, which `empty_generator` names
    (else None), so `survivors` then ends with that empty list.

    The test is a necessary condition, so a failing candidate can never
    take part in an isomorphism.  The screen runs no Groebner basis and
    reads and fills no memo.
    """
    import numpy as np
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
            power = {mono_power(i, powers[i], A.gens, A.mode): 1}
            fails = np.zeros(len(cands), dtype=bool)
            for start in range(0, len(cands), _BLOCK_ROWS):
                rows = slice(start, start + _BLOCK_ROWS)
                images[i] = (A.gens.degrees[i], cands[rows])
                fails[rows] = TB.evaluate(power, A, images)[1].any(axis=-1)
            keep = cands[~fails]
            stat["eliminated_relations"] += int(np.count_nonzero(fails))
        stat["subsets"] += 1
        stat["tested"] += len(cands)
        stat["surviving"] += len(keep)
        ladder.survivors.append(keep)
        if not len(keep):
            ladder.empty_generator = A.gens.names[i]
            return ladder
    return ladder


# ------------------------------------------------------------- the search

def _candidates(p: int, dims, zero_flags) -> list:
    """Each generator's candidate images as one int64 block, a row each:
    the zero row alone for a generator that is zero in A, else every
    nonzero vector of GF(p)^dim.  Row r - 1 holds the base-p digits of r,
    least significant first, which is lexicographic order of the reversed
    coordinates against the basis listed smallest-first, so the identity
    tuple is enumerated first when A and B share a presentation.  The
    digits of r < p^dim vanish past column dim, so a smaller dimension's
    block is a corner of a larger one's, and one table serves all."""
    import numpy as np
    top = max((d for d, zero in zip(dims, zero_flags) if not zero), default=0)
    table = (np.arange(1, p ** top, dtype=np.int64)[:, None]
             // p ** np.arange(top, dtype=np.int64))
    table %= p
    return [np.zeros((1, dim), dtype=np.int64) if zero
            else table[:p ** dim - 1, :dim]
            for dim, zero in zip(dims, zero_flags)]


def _relation_plans(A: Presentation):
    """A's relations keyed by their highest generator position + 1, the
    search depth at which every generator they mention has an image."""
    by_depth: dict[int, list] = {}
    for rel in A.relations:
        used = [i for mono in rel for i, _ in mono_factors(mono, A.mode)]
        by_depth.setdefault(max(used, default=0) + 1, []).append(rel)
    return by_depth


def _search(k: int, A: Presentation, TB: TruncatedAlgebra, cand_lists,
            plans_by_depth, images, spans, stats):
    """Depth-first over candidate images from generator k on; returns the
    first tuple whose relations vanish and whose images generate B.

    Each relation is checked as soon as every generator it mentions has
    an image, cutting whole subtrees instead of waiting for full tuples.
    Generator k's candidates are a block, taken `_BLOCK_ROWS` rows at a
    time, and each relation of depth k + 1 is evaluated once over the
    rows.  `spans` maps each generator degree n of B to the reduced span
    of B's decomposables in degree n and the images of degree n fixed
    above depth k; the images generate B exactly when every such span,
    with the last image added, is the whole degree.  At an interior depth
    one `residues` call says which passing rows add rank to their
    degree's span: such a row's subtree gets a copy with the row added,
    any other row's shares its parent's.  At the last depth a block is
    refuted whole when some degree falls short by more than its one row
    can fill, and otherwise the rows that pass are tested by one
    `residues` call against the one dimension missing, if any.  The rows
    are walked in candidate order, and the counters count up to the tuple
    found only, as a walk of one candidate at a time does.  A
    module-level function rather than a closure, so that a call leaves no
    reference cycle holding the engine.
    """
    import numpy as np
    deg = A.gens.degrees[k]
    cands = cand_lists[k]
    span = spans.get(deg)
    last = k + 1 == len(cand_lists)
    if last:
        short = {n: TB.dim(n) - s.dim for n, s in spans.items()}
        hopeless = any(s > (n == deg) for n, s in short.items())
        rank_test = not hopeless and short.get(deg, 0) == 1
    for start in range(0, len(cands), _BLOCK_ROWS):
        block = cands[start:start + _BLOCK_ROWS]
        images[k] = (deg, block)
        fails = None
        for rel in plans_by_depth.get(k + 1, ()):
            got = TB.evaluate(rel, A, images)
            if got is not None:
                cut = got[1].any(axis=-1)
                fails = cut if fails is None else fails | cut
        passing = (range(len(block)) if fails is None
                   else np.flatnonzero(~fails).tolist())
        rows = block if len(passing) == len(block) else block[passing]
        if not last and passing:
            adds = (np.zeros(len(passing), dtype=bool) if span is None
                    else span.residues(rows).any(axis=1))
            for i, j in enumerate(passing):
                images[k] = (deg, block[j])
                below = spans
                if adds[i]:
                    child = span.copy()
                    child.add(block[j])
                    below = {**spans, deg: child}
                found = _search(k + 1, A, TB, cand_lists, plans_by_depth,
                                images, below, stats)
                if found is not None:
                    # j - i rows before row j failed a relation
                    stats["relation_failures"] += j - i
                    return found
        elif passing:
            if hopeless:
                hits = ()
            elif rank_test:
                hits = np.flatnonzero(span.residues(rows).any(axis=1))
            else:
                hits = (0,)
            if len(hits):
                i = int(hits[0])
                j = passing[i]
                stats["enumerated"] += i + 1
                stats["generation_failures"] += i
                stats["relation_failures"] += j - i
                images[k] = (deg, block[j])
                return [img[1].copy() for img in images]
            stats["enumerated"] += len(passing)
            stats["generation_failures"] += len(passing)
        stats["relation_failures"] += len(block) - len(passing)
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
    # the brute-force oracle's sides start empty: it reads and fills no memo
    sides = [_Side(P, D, monomial_ceiling, P._memo if use_fingerprints
                   else {}, None) for P in (A, B)]
    try:
        verdict = _decide(sides, max_degree, prune, use_fingerprints, stats)
    except ResourceLimitError as exc:
        verdict = IsoVerdict("inconclusive", f"resource limit: {exc}")
    verdict.statistics = {**stats, "wall_time_ms": round(
        1000 * (time.monotonic() - t0), 3)}
    return verdict


def _decide(sides, max_degree, prune, use_fingerprints, stats) -> IsoVerdict:
    """The verdict on the pair behind `sides`, without its statistics,
    which it records in `stats` as it goes.  A resource limit raises."""
    a, b = sides
    A, B, D = a.P, b.P, a.bound
    # A's engine (unless its flags are memoized), then B's
    gen_is_zero = a.zero_flags()
    TB = b.engine()
    # a declared series is checked on every call, against all the dims
    for side in sides:
        if side.P.declared_series is not None:
            side.series()

    degrees = A.gens.degrees
    # below a generator or relation degree no map can be listed or
    # checked, and only an override can fall below: the default bound is
    # at least twice each truncation bound
    top = D if max_degree is None else max(
        side.entry("truncation_bound", truncation_bound) for side in sides)
    if D >= top:
        comp_dims = [TB.dim(d) for d in degrees]
        # a graded isomorphism is injective, so a generator that is nonzero
        # in A needs a nonzero image, while one that collapses to zero in A
        # (a non-minimal presentation) is forced to the zero image
        sizes = [1 if zero else count_nonzero_vectors(dim, A.p)
                 for dim, zero in zip(comp_dims, gen_is_zero)]
        stats["candidate_space"] = math.prod(sizes)
    if use_fingerprints:
        # dims first, degree by degree up to the first difference; the
        # series and the filtration are computed only when all the dims
        # agree
        for n in range(D + 1):
            if a.dim(n) != b.dim(n):
                stats["fingerprint"] = f"mismatch: {_DIMS_DIFFER}"
                stats["first_dims_difference"] = n
                return IsoVerdict("not-isomorphic", _DIMS_DIFFER)
        fa, fb = (fingerprint(side.P, D, side.T, side.ceiling)
                  for side in sides)
        sa, sb = fa.series, fb.series
        equal_fp, why = compare_fingerprints(fa, fb)
        screened = "equal" if equal_fp else f"mismatch: {why}"
    else:
        sa, sb = (side.series() for side in sides)
        equal_fp = sa is None or sb is None or hilbert.equal(sa, sb)
        screened, why = "skipped", "Hilbert series differ"
    exact_series = sa is not None and sb is not None
    stats["exact_series"] = exact_series
    stats["fingerprint"] = screened
    if not equal_fp:
        return IsoVerdict("not-isomorphic", why)
    if D < top:
        return IsoVerdict(
            "inconclusive", f"bound {D} is below the truncation bound {top}, "
            f"so no generator map can be checked")
    if 0 in sizes:
        return IsoVerdict(
            "not-isomorphic",
            f"no candidate images: the degree-{degrees[sizes.index(0)]} "
            f"component of the target is zero")
    # the lists are built whole, so their total length is bounded first
    if sum(sizes) > CANDIDATE_LIST_BUDGET:
        count, name = max(zip(sizes, A.gens.names))
        return IsoVerdict(
            "inconclusive",
            f"resource limit: generator {name} has {count} candidate "
            f"images, {sum(sizes)} in all, more than the candidate budget "
            f"of {CANDIDATE_LIST_BUDGET}")

    cand_lists = _candidates(A.p, comp_dims, gen_is_zero)
    if prune and A.mode == COMMUTATIVE:
        ladder = prune_ladder(A, TB, cand_lists, a.vanishing_powers())
        stats["pruned_by_stage"] = ladder.stats
        if ladder.empty_generator is not None:
            return IsoVerdict(
                "not-isomorphic",
                "subset admissibility empty for generators "
                f"({ladder.empty_generator})")
        cand_lists = ladder.survivors

    spans = {n: TB.decomposables(n) for n in set(B.gens.degrees)}
    found = _search(0, A, TB, cand_lists, _relation_plans(A),
                    [None] * len(degrees), spans, stats)
    if found is None:
        return IsoVerdict("not-isomorphic", "search exhausted")

    cert = {}
    for name, deg, vec in zip(A.gens.names, degrees, found):
        cert[name] = format_poly(TB.poly_of_vec(deg, vec), B.gens, B.mode, B.p)
    if not verify_certificate(A, B, cert, TB=TB):
        raise FinalgError("internal error: found tuple failed re-verification")
    if exact_series:
        return IsoVerdict("isomorphic", None, cert)
    return IsoVerdict(
        "inconclusive",
        f"surjective graded map certified, series equality only checked to "
        f"degree {D}", cert)


def verify_certificate(A: Presentation, B: Presentation, certificate: dict,
                       TB: TruncatedAlgebra | None = None) -> bool:
    """Re-check a certificate: relations vanish and the images generate.

    `certificate` maps each A generator name to a polynomial string over
    B's generators, whose monomials must all have the generator's degree;
    an image that is not a string or does not parse fails the check.
    Independent of the search that produced it.
    """
    import numpy as np
    if A.p != B.p or A.mode != B.mode:
        return False
    if set(certificate) != set(A.gens.names):
        return False
    if not all(isinstance(text, str) for text in certificate.values()):
        return False
    if TB is None:
        TB = TruncatedAlgebra(B, pair_bound(A, B))
    images = []
    for name, deg in zip(A.gens.names, A.gens.degrees):
        try:
            poly = B.parse_poly(certificate[name])
        except ParseError:
            return False
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
