import dataclasses
import gc
import itertools
import random
import time

import numpy as np
import pytest

import finalg
from finalg.classify import classify_corpus
from finalg.errors import FinalgError, MismatchError, ResourceLimitError
from finalg.groebner import GroebnerBasis
from finalg.hilbert import dims_from_series
from finalg.isotest import (_DIMS_DIFFER, candidate_space_size,
                            compare_fingerprints, fingerprint,
                            graded_isomorphism, pair_bound,
                            verify_certificate)
from finalg.present import parse
from finalg.truncated import DEFAULT_MONOMIAL_CEILING, TruncatedAlgebra
from tests.conftest import (CORPUS4, CORPUS8, PROBE10, WIDE, brute_rank,
                            disguise, memo_values, random_presentation)

FREE2 = "algebra free2\nchar 2\nmode commutative\ngen x 1\ngen y 1\n"


def test_candidate_space_size_worked_values():
    assert candidate_space_size(2, (3, 3, 3, 7, 7, 7)) == 7 ** 3 * 127 ** 3
    assert candidate_space_size(2, (3, 3, 3, 7, 7, 7)) > 7 * 10 ** 8
    big = candidate_space_size(3, (2, 2, 4, 4, 4, 4, 6, 6, 9))
    assert big == 8 ** 2 * 80 ** 4 * 728 ** 2 * 19682
    assert big > 10 ** 19
    assert candidate_space_size(5, (0,)) == 0


def test_pair_bound(corpus):
    c4 = corpus["c4"]
    q8 = corpus["q8"]
    assert pair_bound(c4, c4) == 10
    assert pair_bound(q8, q8) == 10
    assert pair_bound(c4, q8, override=6) == 6


def test_fingerprint_digest_and_fields(corpus):
    f_c4 = fingerprint(corpus["c4"], bound=10)
    f_c8 = fingerprint(corpus["c8"], bound=10)
    assert f_c4.digest() == f_c8.digest()
    f_c2 = fingerprint(corpus["c2"], bound=10)
    assert f_c2.digest() != f_c4.digest()
    ok, reason = compare_fingerprints(f_c2, f_c4)
    assert not ok and "filtration" in reason


def test_fingerprint_dims_mismatch(corpus):
    fa = fingerprint(corpus["c2"], bound=10)
    fb = fingerprint(corpus["c2c2"], bound=10)
    ok, reason = compare_fingerprints(fa, fb)
    assert not ok and "dimension" in reason


def test_fingerprints_of_different_rings_do_not_compare():
    # F2[y], F3[y] and the free F2<y>, |y| = 2, share their dims at bound
    # 10, which once made every pair of them compare equal
    rings = [parse(f"algebra a\nchar {p}\nmode {mode}\ngen y 2\n")
             for p, mode in ((2, "commutative"), (3, "commutative"),
                             (2, "associative"))]
    prints = [fingerprint(P, bound=10) for P in rings]
    for fa, fb in itertools.permutations(prints, 2):
        with pytest.raises(MismatchError):
            compare_fingerprints(fa, fb)
    for fa in prints:
        assert compare_fingerprints(fa, fa) == (True, None)


def test_identity_pairs_isomorphic(corpus):
    for name, pres in corpus.items():
        verdict = graded_isomorphism(pres, pres)
        assert verdict.outcome == "isomorphic", name
        assert verdict.certificate is not None
        assert verify_certificate(pres, pres, verdict.certificate)
        # identity tuple is enumerated first
        assert verdict.certificate == {n: n for n in pres.gens.names}


def test_c4_c8_merge(corpus):
    verdict = graded_isomorphism(corpus["c4"], corpus["c8"])
    assert verdict.outcome == "isomorphic"
    assert verdict.certificate == {"x": "x", "y": "y"}
    assert verify_certificate(corpus["c4"], corpus["c8"], verdict.certificate)


def test_equal_series_pair_refuted_fast(corpus):
    c2, c4 = corpus["c2"], corpus["c4"]
    sa = fingerprint(c2, bound=10).series
    sb = fingerprint(c4, bound=10).series
    assert finalg.hilbert.equal(sa, sb)
    assert dims_from_series(sa, 8) == [1] * 9
    start = time.monotonic()
    v1 = graded_isomorphism(c2, c4)
    v2 = graded_isomorphism(c4, c2)
    elapsed = time.monotonic() - start
    assert v1.outcome == v2.outcome == "not-isomorphic"
    assert elapsed < 1.0


def test_search_refutes_without_fingerprints(corpus):
    # screening disabled: the refutation must come from the enumeration
    for a, b in [("c2", "c4"), ("c4", "c2")]:
        verdict = graded_isomorphism(corpus[a], corpus[b],
                                     use_fingerprints=False, prune=False)
        assert verdict.outcome == "not-isomorphic"
        assert verdict.reason == "search exhausted"


def test_search_stats_for_c4_to_c2(corpus):
    verdict = graded_isomorphism(corpus["c4"], corpus["c2"],
                                 use_fingerprints=False, prune=False)
    stats = verdict.statistics
    # y must map to the only nonzero class of degree 2, and x^2 != 0 there
    assert stats["candidate_space"] == 1
    assert stats["relation_failures"] >= 1


def test_d8_c4c2_separated_both_ways(corpus):
    for prune in (True, False):
        v1 = graded_isomorphism(corpus["d8"], corpus["c4c2"], prune=prune)
        v2 = graded_isomorphism(corpus["c4c2"], corpus["d8"], prune=prune)
        assert v1.outcome == v2.outcome == "not-isomorphic"


def test_symmetry_on_corpus(corpus):
    names = sorted(corpus)
    for a, b in itertools.combinations(names, 2):
        fwd = graded_isomorphism(corpus[a], corpus[b])
        rev = graded_isomorphism(corpus[b], corpus[a])
        assert fwd.outcome == rev.outcome, (a, b)


def test_free_algebra_certificate_order():
    free = parse(FREE2)
    verdict = graded_isomorphism(free, free)
    assert verdict.certificate == {"x": "x", "y": "y"}


def test_verify_certificate_examples(corpus):
    free = parse(FREE2)
    assert verify_certificate(free, free, {"x": "x", "y": "y"})
    assert not verify_certificate(free, free, {"x": "x", "y": "x"})
    assert verify_certificate(free, free, {"x": "y", "y": "x + y"})
    assert not verify_certificate(free, free, {"x": "y"})
    # wrong degree is rejected before any algebra happens
    c4 = parse("algebra c\nchar 2\nmode commutative\ngen x 1\ngen y 2\nrel x^2\n")
    assert not verify_certificate(c4, c4, {"x": "y", "y": "y"})
    # so is an image that is not homogeneous, or lies above the bound
    assert not verify_certificate(c4, c4, {"x": "x + y", "y": "y"})
    assert not verify_certificate(c4, c4, {"x": "y^6", "y": "y"})
    # and an image that does not parse
    assert not verify_certificate(c4, c4, {"x": "q", "y": "y"})
    assert not verify_certificate(c4, c4, {"x": "x+", "y": "y"})
    # or is not a string at all
    for image in (1, None):
        assert not verify_certificate(corpus["c4"], corpus["c8"],
                                      {"x": image, "y": "y"})


def test_mode_and_characteristic_mismatch(corpus):
    odd = parse("algebra o\nchar 3\nmode commutative\ngen x 1\n")
    with pytest.raises(MismatchError):
        graded_isomorphism(corpus["c2"], odd)
    assoc = parse("algebra a\nchar 2\nmode associative\ngen x 1\n")
    with pytest.raises(MismatchError):
        graded_isomorphism(corpus["c2"], assoc)


def test_candidate_space_zero_refutes(corpus):
    # B has no nonzero component in degree 4 to receive q8's top generator
    verdict = graded_isomorphism(corpus["q8"], corpus["c2"],
                                 use_fingerprints=False, prune=False)
    assert verdict.outcome == "not-isomorphic"


def test_associative_success_is_inconclusive_without_series():
    a = parse("algebra a\nchar 2\nmode associative\ngen x 1\n")
    b = parse("algebra b\nchar 2\nmode associative\ngen x 1\n")
    verdict = graded_isomorphism(a, b)
    assert verdict.outcome == "inconclusive"
    assert verdict.certificate is not None
    a2 = parse("algebra a\nchar 2\nmode associative\ngen x 1\n"
               "series 1 / 1-t\n")
    b2 = parse("algebra b\nchar 2\nmode associative\ngen x 1\n"
               "series 1 / 1-t\n")
    verdict = graded_isomorphism(a2, b2)
    assert verdict.outcome == "isomorphic"


def test_associative_exhaustion_refutes():
    # declared series agree, but the relation x*y kills every candidate map
    # from the free word algebra
    free = parse("algebra fa\nchar 2\nmode associative\ngen x 1\n")
    quo = parse("algebra qa\nchar 2\nmode associative\ngen x 1\nrel x^2\n")
    verdict = graded_isomorphism(quo, free, use_fingerprints=False)
    assert verdict.outcome == "not-isomorphic"


def _comm(p, gens, *rels):
    """A commutative presentation from "name:degree" generators and rels."""
    lines = [f"algebra a\nchar {p}\nmode commutative"]
    lines += [f"gen {g.split(':')[0]} {g.split(':')[1]}" for g in gens.split()]
    lines += [f"rel {r}" for r in rels]
    return parse("\n".join(lines) + "\n")


# (A, B, expected, surviving count of the ladder's one stage).  The non-
# isomorphic pairs share every fingerprint invariant, so only the ladder
# or the search can refute them: x^2 = 0 in A, while B = k[x, y]/(x*y)
# has no nonzero square-zero element in the generators' degree, so the
# ladder leaves x no image; x*y+z^2 is irreducible at p = 2, x*y is not,
# and no generator power vanishes in either, so every image passes and
# the search refutes it.
LADDER_PAIRS = [
    (_comm(2, "x:1 y:1", "x^2"), _comm(2, "x:1 y:1", "x*y"),
     "not-isomorphic", {"stage1": 0}),
    (_comm(2, "x:1 y:1 z:1", "x*y+z^2"), _comm(2, "x:1 y:1 z:1", "x*y"),
     "not-isomorphic", {"stage1": 21}),
    (_comm(3, "x:2 y:2", "x^2"), _comm(3, "x:2 y:2", "x*y"),
     "not-isomorphic", {"stage1": 0}),
    # disguised by x -> x + y
    (_comm(2, "x:1 y:1", "x*y"), _comm(2, "x:1 y:1", "x*y+y^2"),
     "isomorphic", {"stage1": 6}),
]


LADDER_IDS = ["sq-vs-prod-2x1-p2", "quadric-3x1-p2", "sq-vs-prod-2x2-p3",
              "prod-2x1-p2-disguised"]


@pytest.mark.parametrize("A, B, expected, surviving", LADDER_PAIRS,
                         ids=LADDER_IDS)
def test_ladder_verdicts_and_survivors(A, B, expected, surviving):
    D = pair_bound(A, B)
    assert fingerprint(A, D).digest() == fingerprint(B, D).digest()
    pruned = graded_isomorphism(A, B)
    stages = pruned.statistics["pruned_by_stage"]
    assert {k: st["surviving"] for k, st in stages.items()} == surviving
    assert all(st["eliminated_annihilator"] == st["eliminated_series"] == 0
               for st in stages.values())
    brute = graded_isomorphism(A, B, prune=False, use_fingerprints=False)
    assert pruned.outcome == brute.outcome == expected
    if expected == "not-isomorphic":
        assert pruned.reason == (
            "search exhausted" if surviving["stage1"]
            else "subset admissibility empty for generators (x)")
        assert brute.reason == "search exhausted"


def test_ladder_runs_no_groebner_basis(monkeypatch):
    # x^3 = 0 in A, so the ladder tests every image of x: it takes A's
    # vanishing powers from its caller and evaluates their images in B's
    # engine, with no Groebner basis and nothing kept per image
    A = _comm(3, "x:2 y:2", "x^3")
    B = _comm(3, "x:2 y:2", "y^3")
    in_ladder, bases, memo_growth = [], [], []
    buchberger = finalg.groebner.buchberger
    ladder = finalg.isotest.prune_ladder

    def counted(*args, **kwargs):
        if in_ladder:
            bases.append(args[0].name)
        return buchberger(*args, **kwargs)

    def watched(A, TB, cand_lists, powers):
        before = set(B._memo)
        in_ladder.append(True)
        try:
            return ladder(A, TB, cand_lists, powers)
        finally:
            in_ladder.pop()
            memo_growth.append(set(B._memo) - before)
    monkeypatch.setattr(finalg.groebner, "buchberger", counted)
    monkeypatch.setattr(finalg.isotest, "prune_ladder", watched)
    verdict = graded_isomorphism(A, B)
    assert verdict.outcome == "isomorphic"
    assert verdict.certificate == {"x": "y", "y": "x"}
    stage = verdict.statistics["pruned_by_stage"]["stage1"]
    # x^3 = 0 in A, and 2 of the 8 images v of x have v^3 = 0 in B
    assert (stage["tested"], stage["eliminated_relations"],
            stage["surviving"]) == (16, 6, 10)
    assert bases == [] and memo_growth == [set()]
    assert not any(key[0] in ("quotient_series", "eliminated")
                   for P in (A, B) for key in P._memo
                   if isinstance(key, tuple))


def test_vanishing_powers_match_elimination():
    # the least m >= 2 with x^m = 0, read from the engine, against the
    # relations in x alone that block-order elimination finds
    rng = random.Random(17)
    presentations = [finalg.parse_file(path) for d in (CORPUS4, CORPUS8)
                     for path in sorted(d.glob("*.alg"))]
    presentations += [random_presentation(rng, name=f"r{i}")
                      for i in range(40)]
    checked = 0
    for P in presentations:
        if P.mode != finalg.COMMUTATIVE:
            continue
        D = pair_bound(P, P)
        powers = finalg.isotest._Side(
            P, D, DEFAULT_MONOMIAL_CEILING, {}, None).vanishing_powers()
        exterior = finalg.present.exterior_mask(P.gens, P.p, P.mode)
        for i, ext in enumerate(exterior):
            kept, _ = finalg.groebner.eliminate(P, (i,), degree_cap=D)
            exps = [mono[i] for g in kept for mono in g]
            expected = 0 if ext or not exps else max(2, min(exps))
            assert powers[i] == expected, (P, i)
            checked += expected > 0
    assert checked == 13   # generators with a vanishing power


def test_calls_leave_no_reference_cycles(corpus):
    # the engine of a call must be freed by reference counting alone
    assoc_a = parse("algebra a\nchar 2\nmode associative\ngen x 1\n"
                    "gen y 1\nrel x*y\n")
    assoc_b = parse("algebra b\nchar 2\nmode associative\ngen x 1\n"
                    "gen y 1\nrel y*x\n")
    gc.collect()
    gc.disable()
    try:
        verdict = graded_isomorphism(corpus["q8"], corpus["q8"])
        assert verdict.statistics["pruned_by_stage"] is not None
        assert graded_isomorphism(assoc_a, assoc_b).certificate is not None
        report = classify_corpus(sorted(CORPUS8.glob("*.alg")))
        assert report.totals["pairs_run"] > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _fresh(P):
    """A copy of P with an empty memo."""
    return dataclasses.replace(P)


def test_memo_holds_plain_values_only(corpus):
    q8, d8 = _fresh(corpus["q8"]), _fresh(corpus["d8"])
    assert graded_isomorphism(q8, q8).outcome == "isomorphic"
    assert graded_isomorphism(q8, d8).outcome == "not-isomorphic"
    A, B = (_fresh(P) for P in LADDER_PAIRS[1][:2])
    assert graded_isomorphism(A, B).statistics["pruned_by_stage"]
    for P in (q8, d8, A, B):
        values = memo_values(P)
        assert values
        assert not any(isinstance(v, (TruncatedAlgebra, GroebnerBasis,
                                      finalg.Presentation))
                       for v in values)


@pytest.mark.parametrize("pair", LADDER_PAIRS + [None],
                         ids=LADDER_IDS + ["q8-d8"])
def test_second_call_repeats_the_verdict(pair, corpus):
    A, B = (_fresh(P) for P in (pair[:2] if pair else
                                (corpus["q8"], corpus["d8"])))
    first = graded_isomorphism(A, B)
    assert A._memo and B._memo
    for again in (graded_isomorphism(A, B), graded_isomorphism(A, _fresh(B))):
        assert again.outcome == first.outcome
        assert again.reason == first.reason
        assert again.certificate == first.certificate
        assert (again.statistics["pruned_by_stage"]
                == first.statistics["pruned_by_stage"])


def test_memo_keeps_the_ceiling_apart(corpus):
    P = _fresh(corpus["c2c2c2"])
    assert graded_isomorphism(P, P).outcome == "isomorphic"
    verdict = graded_isomorphism(P, P, monomial_ceiling=5)
    assert verdict.outcome == "inconclusive"
    assert verdict.reason.startswith("resource limit")
    with pytest.raises(FinalgError, match="ceiling is 5"):
        fingerprint(P, monomial_ceiling=5)


def test_contradicting_series_raises_on_every_call():
    # x*y = 0 on two degree-1 generators has series (1+t)/(1-t)
    bad = parse("algebra a\nchar 2\nmode commutative\ngen x 1\ngen y 1\n"
                "rel x*y\nseries 1 / 1-2t\n")
    for _ in range(2):
        with pytest.raises(FinalgError, match="contradicts"):
            graded_isomorphism(bad, bad)
        with pytest.raises(FinalgError, match="contradicts"):
            fingerprint(bad)
    assert not any(isinstance(v, finalg.Fingerprint)
                   for v in memo_values(bad))


def test_replace_starts_with_an_empty_memo(corpus):
    P = _fresh(corpus["q8"])
    fp = fingerprint(P)
    assert fingerprint(P) is fp
    Q = dataclasses.replace(P)
    assert Q._memo == {}
    assert Q == P and repr(Q) == repr(P)
    assert fingerprint(Q) is not fp and fingerprint(Q) == fp


def test_relation_cell_budget_makes_the_verdict_inconclusive():
    wide = parse(WIDE)
    start = time.monotonic()
    verdict = graded_isomorphism(wide, wide)
    assert time.monotonic() - start < 10
    assert verdict.outcome == "inconclusive"
    assert verdict.reason == (
        "resource limit: degree 7 needs 6561 relation rows over 2187 "
        "monomials, more than the cell budget of 10000000; lower the bound")


def test_candidate_budget_makes_the_verdict_inconclusive():
    probe = parse(PROBE10)
    for kwargs in ({}, {"prune": False, "use_fingerprints": False}):
        start = time.monotonic()
        verdict = graded_isomorphism(probe, probe, **kwargs)
        assert time.monotonic() - start < 5
        assert verdict.outcome == "inconclusive"
        assert verdict.reason == (
            "resource limit: generator w has 4194303 candidate images, "
            "4194324 in all, more than the candidate budget of 300000")
        assert verdict.statistics["enumerated"] == 0


@pytest.mark.parametrize("owner,name", [
    (TruncatedAlgebra, "power_filtration_dims"),   # a screen
    (finalg.isotest, "_search"),
])
def test_a_limit_at_any_stage_makes_the_verdict_inconclusive(
        corpus, monkeypatch, owner, name):
    def over(*args, **kwargs):
        raise ResourceLimitError(f"{name} is over its budget")
    monkeypatch.setattr(owner, name, over)
    verdict = graded_isomorphism(_fresh(corpus["c4"]), _fresh(corpus["c8"]))
    assert verdict.outcome == "inconclusive"
    assert verdict.reason == f"resource limit: {name} is over its budget"
    assert verdict.certificate is None
    stats = verdict.statistics
    assert stats["bound"] == 10 and stats["wall_time_ms"] >= 0
    assert all(stats[key] == 0 for key in SEARCH_COUNTERS)


def test_zero_generator_maps_to_zero():
    # z = 0 in A, so A is B with a redundant generator; both paths force
    # z to the zero image and leave it out of the candidate space
    A = _comm(3, "x:2 y:2 z:2", "z", "y*x")
    B = _comm(3, "x:2 y:2", "x*y")
    for kwargs in ({}, {"prune": False, "use_fingerprints": False}):
        verdict = graded_isomorphism(A, B, **kwargs)
        assert verdict.outcome == "isomorphic"
        assert verdict.certificate == {"x": "x", "y": "y", "z": "0"}
        assert verdict.statistics["candidate_space"] == 8 * 8


def _counting(monkeypatch, owner, name):
    """Patch owner.name to record its calls in the list returned."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_dims_refute_before_the_rest_of_the_fingerprint(corpus, monkeypatch):
    filtrations = _counting(monkeypatch, TruncatedAlgebra,
                            "power_filtration_dims")
    bases = _counting(monkeypatch, finalg.groebner, "buchberger")
    builds = _counting(monkeypatch, TruncatedAlgebra, "__init__")
    A, B = _fresh(corpus["c2"]), _fresh(corpus["c2c2"])
    for _ in range(2):
        verdict = graded_isomorphism(A, B)
        assert verdict.outcome == "not-isomorphic"
        assert verdict.reason == "dimension sequence differs within the bound"
        assert verdict.statistics["fingerprint"] == (
            "mismatch: dimension sequence differs within the bound")
        # x may go to any of the 2^2 - 1 nonzero degree-1 elements
        assert verdict.statistics["candidate_space"] == 3
    assert filtrations == [] and bases == []
    assert len(builds) == 3   # the second call reads A's dims from its memo
    assert not any(isinstance(v, finalg.Fingerprint)
                   for v in memo_values(A) + memo_values(B))


def test_declared_series_is_checked_even_when_the_dims_differ(corpus):
    # x*y = 0 has series (1+t)/(1-t), not 1/(1-2t), and dims 1, 2, 2, ...
    # where c2 has 1, 1, 1, ...
    bad = parse("algebra a\nchar 2\nmode commutative\ngen x 1\ngen y 1\n"
                "rel x*y\nseries 1 / 1-2t\n")
    for A, B in ((bad, corpus["c2"]), (corpus["c2"], bad)):
        for _ in range(2):
            with pytest.raises(FinalgError, match="contradicts"):
                graded_isomorphism(A, B)


def test_exact_series_is_reported_when_the_series_are_compared(corpus):
    assoc = parse("algebra a\nchar 2\nmode associative\ngen x 1\n")
    cases = [
        ((corpus["c2"], corpus["c2c2"]), {}, None),     # dims differ
        ((corpus["d8"], corpus["c4c2"]), {}, True),
        ((assoc, assoc), {}, False),
        ((corpus["c2"], corpus["c2c2"]),
         {"prune": False, "use_fingerprints": False}, True),
    ]
    for (A, B), kwargs, expected in cases:
        stats = graded_isomorphism(A, B, **kwargs).statistics
        assert stats.get("exact_series") == expected, (A.name, B.name)


def test_brute_path_skips_the_filtration(corpus, monkeypatch):
    def fail(self):
        raise AssertionError("power filtration computed")
    monkeypatch.setattr(TruncatedAlgebra, "power_filtration_dims", fail)
    verdict = graded_isomorphism(corpus["q8"], corpus["q8"], prune=False,
                                 use_fingerprints=False)
    assert verdict.outcome == "isomorphic"


def test_brute_path_checks_declared_series():
    # x alone is free, dims 1, 1, 1, ...; the declared series says 1, 2, 4
    bad = parse("algebra a\nchar 2\nmode associative\ngen x 1\n"
                "series 1 / 1-2t\n")
    with pytest.raises(FinalgError, match="does not match"):
        graded_isomorphism(bad, bad, prune=False, use_fingerprints=False)


def test_disguised_presentations_found_isomorphic():
    rng = random.Random(101)
    found = 0
    for i in range(12):
        P = random_presentation(rng, name=f"p{i}")
        Q = disguise(P, rng, name=f"q{i}")
        verdict = graded_isomorphism(P, Q)
        assert verdict.outcome == "isomorphic", (P, Q)
        assert verify_certificate(P, Q, verdict.certificate)
        found += 1
    assert found == 12


def test_pruned_matches_brute_on_random_pairs():
    rng = random.Random(211)
    for i in range(25):
        A = random_presentation(rng, name=f"a{i}")
        B = random_presentation(rng, name=f"b{i}")
        if A.p != B.p:
            continue
        pruned = graded_isomorphism(A, B)
        brute = graded_isomorphism(A, B, prune=False, use_fingerprints=False)
        assert pruned.outcome == brute.outcome, (A, B)


def _random_p3(rng: random.Random, gens, degrees, name: str):
    """A commutative p = 3 presentation on `gens` with one sparse random
    relation in each of the `degrees`."""
    gens = finalg.GeneratorSet.from_pairs(gens)
    relations = []
    for deg in degrees:
        monos = finalg.present.monomials_of_degree(gens, deg,
                                                   finalg.COMMUTATIVE, 3)
        rel = {m: rng.randrange(1, 3) for m in monos if rng.random() < 0.5}
        if rel:
            relations.append(rel)
    return finalg.Presentation(name=name, p=3, mode=finalg.COMMUTATIVE,
                               gens=gens, relations=tuple(relations))


def test_pruned_matches_brute_where_the_ladder_runs():
    # two or three generators, two of one degree, so that distinct lists of
    # images span the same space in a degree; the pairs that pass every
    # fingerprint reach the ladder, and about a third of all pairs are
    # disguised copies
    shapes = [(("x", 2), ("y", 2)), (("x", 1), ("y", 1), ("z", 2)),
              (("x", 2), ("y", 2), ("z", 1))]
    rng = random.Random(3)
    outcomes = []
    for i in range(40):
        gens = rng.choice(shapes)
        degrees = sorted(rng.choice([3, 4, 4, 5, 6])
                         for _ in range(rng.randint(1, 2)))
        A = _random_p3(rng, gens, degrees, f"a{i}")
        B = (disguise(A, rng, name=f"d{i}") if rng.random() < 0.3
             else _random_p3(rng, gens, degrees, f"b{i}"))
        pruned = graded_isomorphism(A, B)
        if pruned.statistics["pruned_by_stage"] is None:
            continue
        brute = graded_isomorphism(A, B, prune=False, use_fingerprints=False)
        assert pruned.outcome == brute.outcome, (A, B)
        outcomes.append((pruned.outcome, pruned.reason))
    assert len(outcomes) >= 25
    assert outcomes.count(("isomorphic", None)) >= 15
    refuted = [r for o, r in outcomes if o == "not-isomorphic"]
    assert len(refuted) >= 5
    # no single image shows these refutations, so the search makes them
    assert all(r == "search exhausted" for r in refuted)


def test_pruned_matches_brute_where_the_ladder_refutes():
    # two degree-2 generators with relations in degrees 4 and 6, where a
    # generator is often left with no image that passes the ladder; every
    # pair that reaches the ladder is checked against the brute oracle
    rng = random.Random(5)
    reached, refuted = 0, []
    for i in range(120):
        A = _random_p3(rng, (("x", 2), ("y", 2)), (4, 6), f"a{i}")
        B = _random_p3(rng, (("x", 2), ("y", 2)), (4, 6), f"b{i}")
        pruned = graded_isomorphism(A, B)
        if pruned.statistics["pruned_by_stage"] is None:
            continue
        reached += 1
        brute = graded_isomorphism(A, B, prune=False, use_fingerprints=False)
        assert pruned.outcome == brute.outcome, (A, B)
        if (pruned.reason or "").startswith("subset admissibility"):
            refuted.append(pruned.reason[-3:])
    assert reached == 33
    # the ladder refutes these 5, each from a generator power that
    # vanishes in A while no image's power does in B; the search refutes
    # the other non-isomorphic pairs
    assert refuted == ["(x)", "(x)", "(x)", "(y)", "(x)"]


ASSOC_XY = ("algebra a\nchar 2\nmode associative\ngen x 1\ngen y 1\n"
            "rel x*y\n")


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("commutative", [True, False])
def test_brute_oracle_reads_and_fills_no_memo(commutative, prune,
                                              monkeypatch):
    # the oracle builds both engines and, in commutative mode, both ground
    # bases afresh, even over memos that a screened call has filled
    builds = _counting(monkeypatch, TruncatedAlgebra, "__init__")
    bases = _counting(monkeypatch, finalg.groebner, "buchberger")
    A, B = ((_fresh(P) for P in LADDER_PAIRS[1][:2]) if commutative
            else (parse(ASSOC_XY), parse(ASSOC_XY.replace("x*y", "y*x"))))
    brute = graded_isomorphism(A, B, prune=prune, use_fingerprints=False)
    assert A._memo == B._memo == {}
    assert (len(builds), len(bases)) == (2, 2 if commutative else 0)
    reached = brute.statistics["pruned_by_stage"] is not None
    assert reached == (prune and commutative)
    graded_isomorphism(A, B)
    memos = dict(A._memo), dict(B._memo)
    builds.clear()
    bases.clear()
    again = graded_isomorphism(A, B, prune=prune, use_fingerprints=False)
    assert (A._memo, B._memo) == memos
    assert (len(builds), len(bases)) == (2, 2 if commutative else 0)
    assert (again.outcome, again.certificate) == (brute.outcome,
                                                   brute.certificate)


def test_a_bound_below_the_truncation_bound(corpus):
    # q8 has a generator of degree 4, the others one of degree 2: no map
    # can be listed at these bounds, but a screen that refutes there still
    # does; the brute oracle screens by the series alone
    def below(bound, top):
        return ("inconclusive", f"bound {bound} is below the truncation "
                f"bound {top}, so no generator map can be checked")
    series_differ = ("not-isomorphic", "Hilbert series differ")
    cases = [("q8", "q8", 3, below(3, 4), below(3, 4)),
             ("d8", "d8", 1, below(1, 2), below(1, 2)),
             ("c2", "c4", 1, below(1, 2), below(1, 2)),
             ("q8", "d8", 3, ("not-isomorphic", _DIMS_DIFFER), series_differ),
             ("c2", "c2c2", 1, ("not-isomorphic", _DIMS_DIFFER),
              series_differ)]
    for a, b, bound, screened, brute in cases:
        for kwargs, expected in (({}, screened),
                                 ({"prune": False, "use_fingerprints": False},
                                  brute)):
            verdict = graded_isomorphism(corpus[a], corpus[b],
                                         max_degree=bound, **kwargs)
            assert verdict.statistics["bound"] == bound
            assert (verdict.outcome, verdict.reason) == expected, (a, b)


def test_max_degree_override(corpus):
    verdict = graded_isomorphism(corpus["c4"], corpus["c8"], max_degree=6)
    assert verdict.statistics["bound"] == 6
    assert verdict.outcome == "isomorphic"


def test_statistics_contract(corpus):
    verdict = graded_isomorphism(corpus["d8"], corpus["d8"])
    stats = verdict.statistics
    for field in ("candidate_space", "enumerated", "pruned_by_stage",
                  "wall_time_ms", "bound"):
        assert field in stats
    assert stats["candidate_space"] == 3 * 3 * 7


def test_dims_refutation_reduces_only_the_degrees_compared(corpus,
                                                           monkeypatch):
    # c2 and c2c2 differ in degree 1, so each engine reduces degrees 0
    # and 1 out of 0..10, each once, and the dims memos stop there too
    reduced = []
    reduce_degree = TruncatedAlgebra._reduce_degree

    def counted(self, n):
        reduced.append((self.presentation, n))
        return reduce_degree(self, n)
    monkeypatch.setattr(TruncatedAlgebra, "_reduce_degree", counted)
    A, B = _fresh(corpus["c2"]), _fresh(corpus["c2c2"])
    verdict = graded_isomorphism(A, B)
    assert verdict.statistics["bound"] == 10
    assert verdict.statistics["first_dims_difference"] == 1
    assert sorted(n for P, n in reduced if P is A) == [0, 1]
    assert sorted(n for P, n in reduced if P is B) == [0, 1]
    assert len(reduced) == 4   # degrees 0 and 1 of each side
    assert A._memo[("dims", 10, DEFAULT_MONOMIAL_CEILING)] == (1, 1)
    assert B._memo[("dims", 10, DEFAULT_MONOMIAL_CEILING)] == (1, 2)
    # a pair whose dims agree reads on past the memoized prefix
    same = graded_isomorphism(A, _fresh(corpus["c2"]))
    assert same.outcome == "isomorphic"
    assert "first_dims_difference" not in same.statistics
    assert A._memo[("dims", 10, DEFAULT_MONOMIAL_CEILING)] == (1,) * 11


def test_first_dims_difference_names_the_degree(corpus):
    # q8 and d8 agree in degrees 0 and 1 (1, 2) and differ in degree 2
    verdict = graded_isomorphism(corpus["q8"], corpus["d8"])
    assert verdict.reason == "dimension sequence differs within the bound"
    assert verdict.statistics["first_dims_difference"] == 2
    for A, B in (("d8", "d8"), ("d8", "c4c2"), ("c2", "c4")):
        stats = graded_isomorphism(corpus[A], corpus[B]).statistics
        assert "first_dims_difference" not in stats, (A, B)


def test_cell_budget_is_named_even_when_degree_1_differs():
    # WIDE has dims 1, 2, ... and exceeds the cell budget in degree 7;
    # the budget is checked before any degree is compared
    wide, line = parse(WIDE), parse("algebra l\nchar 2\nmode associative\n"
                                    "gen x 1\n")
    for A, B in ((wide, line), (line, wide)):
        verdict = graded_isomorphism(A, B)
        assert verdict.outcome == "inconclusive"
        assert "cell budget of 10000000" in verdict.reason
        assert "first_dims_difference" not in verdict.statistics


# ------------------------------------------- the search against its oracle

def _reference_search(k, A, TB, cand_lists, plans_by_depth, images, stats):
    """The search one candidate tuple at a time: at each depth every
    candidate gets its own `evaluate` per relation, and every leaf its own
    `generates`.  The oracle of the batched search, which must find the
    same tuple and count the same."""
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
            found = _reference_search(k + 1, A, TB, cand_lists,
                                      plans_by_depth, images, stats)
            if found is not None:
                return found
    images[k] = None
    return None


SEARCH_COUNTERS = ("enumerated", "relation_failures", "generation_failures")


def _checked_search(monkeypatch):
    """Make every search also run the reference walk on the same inputs;
    returns the list of (found, counters) pairs, batched then reference,
    one per search."""
    search = finalg.isotest._search
    runs = []

    def both(k, A, TB, cand_lists, plans, images, spans, stats):
        if k:
            return search(k, A, TB, cand_lists, plans, images, spans, stats)
        counts = dict.fromkeys(SEARCH_COUNTERS, 0)
        ref = _reference_search(0, A, TB, cand_lists, plans,
                                [None] * len(images), counts)
        before = {key: stats[key] for key in SEARCH_COUNTERS}
        got = search(0, A, TB, cand_lists, plans, images, spans, stats)
        runs.append(((got, {key: stats[key] - before[key]
                            for key in SEARCH_COUNTERS}), (ref, counts)))
        return got
    monkeypatch.setattr(finalg.isotest, "_search", both)
    return runs


def _same_tuple(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _assoc_pair(rng: random.Random, p: int, i: int):
    """A random associative presentation on x, y of degree 1 and z of
    degree 2, with relations in degrees 2 and 3, and either its image
    under x -> x + y (an isomorphic copy) or a second random one.  Words
    of degree 1 grow fast, so these pairs are decided at bound 5."""
    gens = finalg.GeneratorSet.from_pairs([("x", 1), ("y", 1), ("z", 2)])

    def random_side(name):
        relations = []
        for deg in (2, 3):
            words = finalg.present.monomials_of_degree(
                gens, deg, finalg.ASSOCIATIVE, p)
            rel = {w: rng.randrange(1, p) for w in words if rng.random() < 0.4}
            if rel:
                relations.append(rel)
        return finalg.Presentation(name=name, p=p, mode=finalg.ASSOCIATIVE,
                                   gens=gens, relations=tuple(relations))
    A = random_side(f"assoc_a{i}")
    if rng.random() < 0.5:
        return A, random_side(f"assoc_b{i}")
    images = [{(0,): 1, (1,): 1}, {(1,): 1}, {(2,): 1}]
    relations = tuple(finalg.present.substitute(
        rel, images, gens, gens, finalg.ASSOCIATIVE, p) for rel in A.relations)
    return A, dataclasses.replace(A, name=f"assoc_d{i}",
                                  relations=tuple(r for r in relations if r))


@pytest.mark.parametrize("block_rows", [None, 3])
def test_batched_search_matches_the_walk_one_tuple_at_a_time(block_rows,
                                                              monkeypatch):
    # seeded pairs in both modes at p = 2 and 3, pruned and by the brute
    # oracle; the batched search must find the reference walk's tuple and
    # count exactly what it counts up to that tuple, also when a block is
    # cut into many chunks
    if block_rows is not None:
        monkeypatch.setattr(finalg.isotest, "_BLOCK_ROWS", block_rows)
    runs = _checked_search(monkeypatch)
    rng = random.Random(1409)
    pairs = []
    for i in range(16):
        P = random_presentation(rng, name=f"c{i}")
        pairs.append((P, disguise(P, rng, name=f"cd{i}")
                      if i % 2 else random_presentation(rng, name=f"cr{i}")))
    pairs = [(A, B) for A, B in pairs if A.p == B.p]
    assoc = [_assoc_pair(rng, p, i) for i, p in enumerate((2, 3) * 6)]
    # z = 0 in A: its block is the single zero row; in the second pair z's
    # degree is zero in B, so that row has no coordinates, and x^3 lands
    # in a zero-dimensional component
    pairs += [(_comm(3, "x:2 y:2 z:2", "z", "y*x"),
               _comm(3, "x:2 y:2", "x*y")),
              (_comm(2, "x:1 z:3", "z", "x^3"), _comm(2, "x:1", "x^3"))]
    reached = []
    for A, B in pairs + assoc:
        bound = {"max_degree": 5} if A.mode == finalg.ASSOCIATIVE else {}
        for kwargs in ({}, {"prune": False, "use_fingerprints": False}):
            before = len(runs)
            verdict = graded_isomorphism(A, B, **kwargs, **bound)
            if len(runs) > before:
                reached.append(A)
                assert runs[-1][0][1]["enumerated"] == (
                    verdict.statistics["enumerated"])
    for (got, counts), (ref, ref_counts) in runs:
        assert _same_tuple(got, ref)
        assert counts == ref_counts
    assert {(A.mode, A.p) for A in reached} == {
        (finalg.COMMUTATIVE, 2), (finalg.COMMUTATIVE, 3),
        (finalg.ASSOCIATIVE, 2), (finalg.ASSOCIATIVE, 3)}
    assert all(P in reached for P, _ in pairs[-2:])
    found = [got for (got, _), _ in runs if got is not None]
    assert len(found) >= 10 and len(runs) - len(found) >= 5
    assert sum(c["relation_failures"] > 0 for (_, c), _ in runs) >= 10
    assert sum(c["generation_failures"] > 0 for (_, c), _ in runs) >= 5
    assert any(v.size == 0 for tup in found for v in tup)


def _quadrics(p, *rels):
    """An associative presentation on x, y, z of degree 2 with the given
    relations, as in the benchmark's search families."""
    return parse(f"algebra q\nchar {p}\nmode associative\ngen x 2\ngen y 2\n"
                 "gen z 2\n" + "".join(f"rel {r}\n" for r in rels))


def test_search_never_calls_generates(monkeypatch):
    # the search carries a reduced span per degree, so `generates` runs
    # only in `verify_certificate`, after the search returns
    inside, during, runs = [], [], []
    search, generates = finalg.isotest._search, TruncatedAlgebra.generates

    def tracked(k, A, TB, cand_lists, plans, images, spans, stats):
        inside.append(k)
        try:
            return search(k, A, TB, cand_lists, plans, images, spans, stats)
        finally:
            inside.pop()

    def spy(self, images):
        during.append(bool(inside))
        return generates(self, images)
    monkeypatch.setattr(finalg.isotest, "_search", tracked)
    monkeypatch.setattr(TruncatedAlgebra, "generates", spy)
    anti = _quadrics(3, "x*y-y*x")
    pairs = [(anti, _quadrics(3, "x*y+y*x")),
             (anti, dataclasses.replace(anti)),
             (_comm(2, "x:1 y:1 z:1", "x*y*z"),
              _comm(2, "x:1 y:1 z:1", "x*z*y")),
             (_comm(3, "x:2 y:2 z:2", "x*y"), _comm(3, "x:2 y:2 z:2", "z*y"))]
    for A, B in pairs:
        for kwargs in ({}, {"prune": False, "use_fingerprints": False}):
            runs.append(graded_isomorphism(A, B, **kwargs).statistics)
    assert sum(s["generation_failures"] > 0 for s in runs) >= 2
    assert all(s["enumerated"] > 0 for s in runs)
    assert during and not any(during)


def test_last_depth_skips_the_rank_test_when_two_images_are_dependent(
        monkeypatch):
    # B_2 is spanned by x, y and z with no decomposables: when the images
    # of x and y are dependent, z's one row cannot fill the two missing
    # dimensions, so the last depth counts its rows as generation failures
    # with no `residues` call; when they are independent it runs one.  On
    # x*y-y*x against x*y+y*x every pair of images that passes the
    # relation is dependent; against itself a map is found
    search, residues = finalg.isotest._search, finalg.gfp.RowSpace.residues
    calls, leaves = [], []

    def tracked(k, A, TB, cand_lists, plans, images, spans, stats):
        if k + 1 < len(cand_lists):
            return search(k, A, TB, cand_lists, plans, images, spans, stats)
        before = len(calls)
        got = search(k, A, TB, cand_lists, plans, images, spans, stats)
        rank = brute_rank([[int(c) for c in images[i][1]] for i in (0, 1)],
                          A.p)
        leaves.append((rank < 2, len(calls) - before))
        return got

    def spy(self, block):
        calls.append(len(block))
        return residues(self, block)
    monkeypatch.setattr(finalg.isotest, "_search", tracked)
    monkeypatch.setattr(finalg.gfp.RowSpace, "residues", spy)
    anti = _quadrics(3, "x*y-y*x")
    verdict = graded_isomorphism(anti, _quadrics(3, "x*y+y*x"))
    assert verdict.reason == "search exhausted"
    assert len(leaves) > 10
    assert all(short and not n for short, n in leaves)
    leaves.clear()
    verdict = graded_isomorphism(anti, dataclasses.replace(anti))
    assert verdict.outcome == "inconclusive" and verdict.certificate
    assert leaves[-1] == (False, 1)
    assert all(not n for short, n in leaves if short)
