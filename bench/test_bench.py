"""Tests of the benchmark itself: seeded inputs, expected verdicts, tracing.

Run from the repository root: python3 -m pytest -q bench
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import finalg  # noqa: E402
from finalg.isotest import compare_fingerprints, fingerprint, pair_bound  # noqa: E402

import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

CORPUS = [BENCH.parent / "corpus" / "div4", BENCH.parent / "corpus" / "div8"]
CHEAP_HARD = {"sq-vs-prod-2x1-p2", "sq-vs-prod-2x2-p3", "sq-vs-prod-112-p2",
              "sqx-vs-e2-3x1-p2", "prod-2x1-p2", "prod-2x2-p3"}
SEARCH_HARD = ({label for label, _, _ in gen.HARD_SEARCH_NON_ISO}
               | {label for label, _ in gen.HARD_SEARCH_ISO})


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _write_batch(workload, seed, batch, out: Path):
    if workload == "screen-stream":
        comp = gen.screen_composition()[:20]
        pairs = gen.screen_stream(seed, batch, comp, [None] * len(comp))
        gen.write_pairs(pairs, out)
    elif workload == "hard-pairs":
        gen.write_pairs(gen.hard_pairs(seed, batch), out)
    else:
        gen.write_corpus(gen.classify_corpus(seed, batch, CORPUS), out)


@pytest.mark.parametrize("workload", ["screen-stream", "hard-pairs",
                                      "classify-corpus"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    _write_batch(workload, 7, 1, tmp_path / "one")
    _write_batch(workload, 7, 1, tmp_path / "two")
    _write_batch(workload, 8, 1, tmp_path / "other")
    one = _files(tmp_path / "one")
    assert one == _files(tmp_path / "two")
    assert one != _files(tmp_path / "other")
    assert one != {}


def test_oracle_file_matches_the_brute_force_oracle():
    comp = gen.screen_composition()
    oracle = gen.screen_oracle()
    assert len(oracle) == len(comp) == gen.SCREEN_PAIRS
    assert gen.brute_force_verdicts(comp[:40]) == oracle[:40]


def test_disguise_keeps_the_oracle_verdict():
    comp = gen.screen_composition()[:12]
    oracle = gen.screen_oracle()[:12]
    assert gen.ISO in oracle and gen.NOT_ISO in oracle
    for _, A, B, expected in gen.screen_stream(3, 0, comp, oracle):
        brute = finalg.graded_isomorphism(A, B, prune=False,
                                          use_fingerprints=False)
        assert brute.outcome == expected


def test_hard_pairs_share_fingerprints_and_get_expected_verdicts():
    pairs = [p for p in gen.hard_pairs(5, 0) if p[0] in CHEAP_HARD | SEARCH_HARD]
    assert {p[0] for p in pairs} == CHEAP_HARD | SEARCH_HARD
    for label, A, B, expected in pairs:
        D = pair_bound(A, B)
        assert compare_fingerprints(fingerprint(A, D), fingerprint(B, D))[0], label
        for kwargs in ({}, {"prune": False, "use_fingerprints": False}):
            v = finalg.graded_isomorphism(A, B, **kwargs)
            assert v.outcome == expected, (label, kwargs, v.reason)
            if v.outcome == gen.ISO:
                assert finalg.verify_certificate(A, B, v.certificate)


def test_search_pairs_make_the_search_enumerate():
    """The associative hard pairs walk past many tuples, and the same
    number whatever the seed."""
    walks = {}
    for seed in (1, 2):
        for label, A, B, expected in gen.hard_pairs(seed, 0):
            if label not in SEARCH_HARD:
                continue
            stats = finalg.graded_isomorphism(A, B).statistics
            assert stats["enumerated"] > 1 and stats["relation_failures"] > 0
            walks.setdefault(label, set()).add(
                (stats["enumerated"], stats["relation_failures"]))
    assert all(len(w) == 1 for w in walks.values()), walks


def test_classify_batch_has_the_corpus_classes():
    entries = gen.classify_corpus(2, 0, CORPUS)
    assert len(entries) == 11 * (1 + gen.CLASSIFY_DISGUISES)
    # div4 repeats three div8 rings and c4 equals c8: seven classes
    assert len({key for _, _, key in entries}) == 7


def test_tracer_counts_layers_and_restores_the_library():
    A = finalg.parse_file(CORPUS[1] / "c4.alg")
    B = finalg.parse_file(CORPUS[1] / "c8.alg")
    original = finalg.isotest.graded_isomorphism
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert finalg.graded_isomorphism is not original
        verdict = finalg.graded_isomorphism(A, B)
    finally:
        tracer.uninstall()
    assert finalg.graded_isomorphism is original
    assert finalg.isotest.groebner_basis is finalg.groebner.groebner_basis
    assert verdict.outcome == gen.ISO
    layers = tracer.layer_times()
    for name in ("isotest.search", "truncated.build", "isotest.fingerprint",
                 "gfp.rref", "groebner.basis", "isotest.verify"):
        assert layers[name][0] > 0, name
    for calls, incl, own in layers.values():
        assert 0 <= own <= incl + 1e-9
    assert tracer.counts["isotest.decided_by.search"] == 1
    assert tracer.counts["gfp.rowspace_add.calls"] > 0


def test_decided_by_reads_verdict_reasons():
    V = finalg.IsoVerdict
    assert tracing.decided_by(V("isomorphic")) == "search"
    assert tracing.decided_by(V("not-isomorphic", "search exhausted")) == "search"
    assert tracing.decided_by(V("not-isomorphic", "subset admissibility "
                                "empty for generators (x)")) == "prune"
    assert tracing.decided_by(V("not-isomorphic", "Hilbert series differ")) \
        == "fingerprint"
    assert tracing.decided_by(V("inconclusive", "resource limit")) is None


def test_speed_scale_reads_the_samples_near_an_interval():
    sampler = speed.Sampler()
    sampler.at = [float(t) for t in range(30)]
    sampler.took = [0.002] * 15 + [0.004] * 15
    assert sampler.scale(2.0, 12.0) == pytest.approx(0.5)
    assert sampler.scale(20.0, 29.0) == pytest.approx(0.25)
    # a short interval takes its nine nearest samples: 13 to 21, of which
    # two are fast and seven slow
    assert sampler.scale(16.2, 16.3) == pytest.approx((2 * 0.5 + 7 * 0.25) / 9)


def test_speed_sampler_takes_its_time_out_of_the_timed_call():
    sampler = speed.Sampler()
    sampler.start()
    try:
        deadline = speed.perf_counter() + 0.3
        while speed.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.took) >= 3
    assert 0 < sampler.spent <= 0.3
    assert sampler.spent >= sum(sampler.took)
