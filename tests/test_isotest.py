import dataclasses
import gc
import itertools
import random
import time

import pytest

import finalg
from finalg.classify import classify_corpus
from finalg.errors import FinalgError, MismatchError
from finalg.groebner import GroebnerBasis
from finalg.hilbert import expand
from finalg.isotest import (candidate_space_size, compare_fingerprints,
                            fingerprint, graded_isomorphism, pair_bound,
                            verify_certificate)
from finalg.present import parse
from finalg.truncated import TruncatedAlgebra
from tests.conftest import (CORPUS8, WIDE, disguise, memo_values,
                            random_presentation)

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
    # generator degrees are recorded but never part of the comparison
    assert f_c4.gen_degrees == (1, 2)


def test_fingerprint_dims_mismatch(corpus):
    fa = fingerprint(corpus["c2"], bound=10)
    fb = fingerprint(corpus["c2c2"], bound=10)
    ok, reason = compare_fingerprints(fa, fb)
    assert not ok and "dimension" in reason


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
    assert expand(sa, 8) == [1] * 9
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


def test_verify_certificate_examples():
    free = parse(FREE2)
    assert verify_certificate(free, free, {"x": "x", "y": "y"})
    assert not verify_certificate(free, free, {"x": "x", "y": "x"})
    assert verify_certificate(free, free, {"x": "y", "y": "x + y"})
    assert not verify_certificate(free, free, {"x": "y"})
    # wrong degree is rejected before any algebra happens
    c4 = parse("algebra c\nchar 2\nmode commutative\ngen x 1\ngen y 2\nrel x^2\n")
    assert not verify_certificate(c4, c4, {"x": "y", "y": "y"})


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


# (A, B, expected, surviving count per ladder stage).  The counts are
# those the ladder gave with its annihilator test, which the series test
# makes redundant, so dropping it must not move them.  The non-isomorphic
# pairs share every fingerprint invariant, so only the ladder or the
# search can refute them: x^2 has a nonzero square-zero element in the
# generators' degree, x*y does not; x*y+z^2 is irreducible at p = 2, x*y
# is not.
LADDER_PAIRS = [
    (_comm(2, "x:1 y:1", "x^2"), _comm(2, "x:1 y:1", "x*y"),
     "not-isomorphic", {"stage1": 0}),
    (_comm(2, "x:1 y:1 z:1", "x*y+z^2"), _comm(2, "x:1 y:1 z:1", "x*y"),
     "not-isomorphic", {"stage1": 15, "stage2": 28, "stage3": 0}),
    (_comm(3, "x:2 y:2", "x^2"), _comm(3, "x:2 y:2", "x*y"),
     "not-isomorphic", {"stage1": 0}),
    # disguised by x -> x + y
    (_comm(2, "x:1 y:1", "x*y"), _comm(2, "x:1 y:1", "x*y+y^2"),
     "isomorphic", {"stage1": 4, "stage2": 2}),
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
    assert all(st["eliminated_annihilator"] == 0 for st in stages.values())
    brute = graded_isomorphism(A, B, prune=False, use_fingerprints=False)
    assert pruned.outcome == brute.outcome == expected
    if expected == "not-isomorphic":
        assert pruned.reason.startswith("subset admissibility empty")
        assert brute.reason == "search exhausted"


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


def test_zero_generator_maps_to_zero():
    # z = 0 in A, so A is B with a redundant generator; both paths force
    # z to the zero image and leave it out of the candidate space
    A = _comm(3, "x:2 y:2 z:2", "z", "y*x")
    B = _comm(3, "x:2 y:2", "x*y")
    assert fingerprint(A).zero_generators == (False, False, True)
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
