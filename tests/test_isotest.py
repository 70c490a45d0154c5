import gc
import itertools
import random
import time

import pytest

import finalg
from finalg.errors import FinalgError, MismatchError
from finalg.hilbert import expand
from finalg.isotest import (candidate_space_size, compare_fingerprints,
                            fingerprint, graded_isomorphism, pair_bound,
                            verify_certificate)
from finalg.present import parse
from finalg.truncated import TruncatedAlgebra
from tests.conftest import disguise, random_presentation

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


@pytest.mark.parametrize("A, B, expected, surviving", LADDER_PAIRS,
                         ids=["sq-vs-prod-2x1-p2", "quadric-3x1-p2",
                              "sq-vs-prod-2x2-p3", "prod-2x1-p2-disguised"])
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
        assert gc.collect() == 0
    finally:
        gc.enable()


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
