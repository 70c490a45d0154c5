import json
import random

import finalg.isotest
from finalg.classify import classify_corpus
from finalg.groebner import GroebnerBasis
from finalg.isotest import verify_certificate
from finalg.truncated import TruncatedAlgebra
from tests.conftest import CORPUS4, CORPUS8, memo_values


def corpus_paths(root):
    return sorted(str(p) for p in root.iterdir() if p.suffix == ".alg")


def test_div4_three_classes():
    report = classify_corpus(corpus_paths(CORPUS4))
    assert report.totals["classes"] == 3
    assert report.classes == [["c2_ring"], ["c2xc2_ring"], ["c4_ring"]]
    assert report.unresolved == []


def test_div8_seven_classes_with_cyclic_merge():
    report = classify_corpus(corpus_paths(CORPUS8))
    assert report.totals["classes"] == 7
    merged = [cls for cls in report.classes if len(cls) > 1]
    assert merged == [["c4_ring", "c8_ring"]]
    assert report.unresolved == []


def test_pairs_reuse_the_entries_invariants(monkeypatch):
    # each entry's engine is built once, for its fingerprint; a pair run
    # builds only its target's engine
    original = TruncatedAlgebra.__init__
    builds = []

    def counting(self, *args, **kwargs):
        builds.append(args[0].name)
        original(self, *args, **kwargs)
    monkeypatch.setattr(TruncatedAlgebra, "__init__", counting)
    report = classify_corpus(corpus_paths(CORPUS8))
    assert report.totals["pairs_run"] > 0
    assert len(builds) <= report.totals["entries"] + report.totals["pairs_run"]
    for entry in report.entries:
        assert not any(isinstance(v, (TruncatedAlgebra, GroebnerBasis))
                       for v in memo_values(entry.presentation))


def test_a_given_bound_reads_each_truncation_bound_once(monkeypatch,
                                                        tmp_path):
    # every pair checks a given max_degree against both truncation bounds,
    # which each presentation's memo keeps; three copies of one algebra
    # run two pairs that share a presentation
    text = (CORPUS8 / "c4.alg").read_text()
    for name in "abc":
        (tmp_path / f"{name}.alg").write_text(text)
    original = finalg.isotest.truncation_bound
    reads = []

    def counting(P):
        reads.append(id(P))
        return original(P)
    monkeypatch.setattr(finalg.isotest, "truncation_bound", counting)
    report = classify_corpus(corpus_paths(tmp_path), max_degree=10)
    assert report.totals["pairs_run"] == 2
    assert len(reads) == len(set(reads)) == 3


def test_monomial_ceiling_reaches_every_entry():
    # at ceiling 5 the two-generator rings fail in degree 5 and 10, where
    # they have 6 monomials; the one-generator ring has one per degree
    report = classify_corpus(corpus_paths(CORPUS4), monomial_ceiling=5)
    errors = {e.label: e.error for e in report.entries}
    assert errors["c2_ring"] is None
    for label in ("c2xc2_ring", "c4_ring"):
        assert "ceiling is 5" in errors[label]
    assert report.classes == [["c2_ring"]]
    assert report.totals["pairs_run"] == 0


def test_partition_covers_parsed_entries():
    report = classify_corpus(corpus_paths(CORPUS8))
    labels = sorted(l for cls in report.classes for l in cls)
    parsed = sorted(e.label for e in report.entries if e.error is None)
    assert labels == parsed
    # no label appears twice
    assert len(labels) == len(set(labels))


def test_order_independence():
    paths = corpus_paths(CORPUS8)
    rng = random.Random(17)
    base = classify_corpus(paths).classes
    for _ in range(4):
        shuffled = paths[:]
        rng.shuffle(shuffled)
        assert classify_corpus(shuffled).classes == base


def test_merge_evidence_reverifies():
    report = classify_corpus(corpus_paths(CORPUS8))
    by_label = {e.label: e.presentation for e in report.entries
                if e.presentation is not None}
    merged = [ev for ev in report.evidence
              if ev["outcome"] == "isomorphic" and ev["method"] == "search"]
    assert merged
    for ev in merged:
        assert verify_certificate(by_label[ev["left"]], by_label[ev["right"]],
                                  ev["certificate"])


def test_cross_bucket_pairs_recorded():
    report = classify_corpus(corpus_paths(CORPUS4))
    fp = [ev for ev in report.evidence if ev["method"] == "fingerprint"]
    # pairs split across digest buckets are refuted without a search
    assert all(ev["outcome"] == "not-isomorphic" for ev in fp)
    seen = {(ev["left"], ev["right"]) for ev in report.evidence}
    labels = sorted(e.label for e in report.entries)
    want = {(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]}
    assert seen == want


def test_a_declared_series_does_not_split_a_bucket(tmp_path):
    # one algebra, with and without a declared series: they share a
    # bucket, and the search finds a map but, with A's series unknown,
    # cannot certify it
    text = ("algebra {}\nchar 3\nmode associative\n"
            "gen x 2\ngen y 2\ngen z 2\nrel x*y-y*x\n")
    (tmp_path / "a.alg").write_text(text.format("a"))
    (tmp_path / "b.alg").write_text(text.format("b")
                                    + "series 1 / 1-3t^2+t^4\n")
    report = classify_corpus(sorted(str(p) for p in tmp_path.iterdir()))
    assert report.entries[0].digest == report.entries[1].digest
    assert report.entries[0].series is None
    assert report.entries[1].series is not None
    [ev] = report.evidence
    assert (ev["method"], ev["outcome"]) == ("search", "inconclusive")
    assert report.totals["pairs_run"] == 1
    assert report.totals["inconclusive_pairs"] == 1
    assert [(u["left"], u["right"]) for u in report.unresolved] == [("a", "b")]


def test_bad_file_recorded_and_rest_classified(tmp_path):
    for name in ("c2", "c4"):
        (tmp_path / f"{name}.alg").write_text(
            (CORPUS4 / f"{name}.alg").read_text())
    (tmp_path / "broken.alg").write_text(
        "algebra broken\nchar 2\nmode commutative\ngen x 1\nrel x + x^2\n")
    report = classify_corpus(sorted(str(p) for p in tmp_path.iterdir()))
    assert report.totals["entries"] == 3
    assert report.totals["parsed"] == 2
    errors = [e for e in report.entries if e.error is not None]
    assert len(errors) == 1 and "line 5" in errors[0].error
    assert report.totals["classes"] == 2


def test_empty_corpus():
    report = classify_corpus([])
    assert report.totals == {"entries": 0, "parsed": 0, "classes": 0,
                             "pairs_run": 0, "inconclusive_pairs": 0}
    assert report.classes == []
    assert report.unresolved == []


def test_report_json_roundtrip():
    report = classify_corpus(corpus_paths(CORPUS4))
    payload = report.to_json()
    again = json.loads(json.dumps(payload))
    assert again == payload
    assert again["totals"]["classes"] == 3


def test_duplicate_algebra_names(tmp_path):
    text = (CORPUS4 / "c2.alg").read_text()
    (tmp_path / "one.alg").write_text(text)
    (tmp_path / "two.alg").write_text(text)
    report = classify_corpus(sorted(str(p) for p in tmp_path.iterdir()))
    assert report.totals["parsed"] == 2
    labels = sorted(e.label for e in report.entries)
    assert len(set(labels)) == 2
    # the two copies land in one class
    assert report.totals["classes"] == 1


def test_unresolved_names_classes_an_inconclusive_verdict_joins(tmp_path):
    # isomorphic by x <-> y, but with no series known the search finds the
    # map and cannot certify it
    for name, rel in (("a", "x*y"), ("b", "y*x")):
        (tmp_path / f"{name}.alg").write_text(
            f"algebra {name}\nchar 2\nmode associative\ngen x 1\ngen y 1\n"
            f"rel {rel}\n")
    report = classify_corpus(sorted(str(p) for p in tmp_path.iterdir()))
    assert report.classes == [["a"], ["b"]]
    [ev] = report.evidence
    assert ev["outcome"] == "inconclusive"
    assert report.unresolved == [
        {"left": "a", "right": "b", "reason": ev["reason"]}]
    assert report.to_json()["unresolved"] == report.unresolved


def test_a_bound_below_the_truncation_bound_completes():
    # at bound 1 the degree-2 generators and relations are out of reach:
    # dims and filtration still split buckets and series still refute, and
    # a pair that no invariant separates is inconclusive, which leaves its
    # classes unresolved
    report = classify_corpus(corpus_paths(CORPUS8), max_degree=1)
    labels = sorted(e.label for e in report.entries)
    assert all(e.error is None for e in report.entries)
    seen = {(ev["left"], ev["right"]) for ev in report.evidence}
    assert seen == {(a, b) for i, a in enumerate(labels)
                    for b in labels[i + 1:]}
    searched = {(ev["left"], ev["right"]): (ev["outcome"], ev["reason"])
                for ev in report.evidence if ev["method"] == "search"}
    assert searched[("d8_ring", "q8_ring")] == ("not-isomorphic",
                                               "Hilbert series differ")
    assert searched[("c4_ring", "c8_ring")] == (
        "inconclusive", "bound 1 is below the truncation bound 2, so no "
        "generator map can be checked")
    assert report.totals["classes"] == 8
    assert [(u["left"], u["right"], u["reason"])
            for u in report.unresolved] == [
        (a, b, reason) for (a, b), (outcome, reason) in sorted(searched.items())
        if outcome == "inconclusive"]
