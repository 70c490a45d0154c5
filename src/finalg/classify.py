"""Partition a corpus of presentations into graded isomorphism classes.

Entries are first bucketed by a digest of cheap invariants (the graded
and filtration dims) computed at a shared working bound; only entries in
the same bucket are compared pairwise.  Pairs are processed in sorted
label order and merged with a union-find, so the resulting partition
does not depend on input order.  Cross-bucket pairs are reported as
refuted by the invariant digest without running the search.  The pair
runs reuse the invariants that bucketing memoized on each presentation.
Classes are joined by "isomorphic" verdicts only, so the report lists
as `unresolved` each pair of classes that an "inconclusive" verdict
joins, whose separation is not proved: the two classes' smallest labels
and the verdict's reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import FinalgError, ParseError
from .isotest import fingerprint, graded_isomorphism
from .present import Presentation, parse_file
from .truncated import DEFAULT_MONOMIAL_CEILING, default_bound

__all__ = ["CorpusEntry", "CorpusReport", "classify_corpus"]


@dataclass
class CorpusEntry:
    label: str
    path: str
    presentation: Presentation | None = None
    digest: str | None = None
    dims: tuple | None = None
    series: str | None = None
    error: str | None = None

    def to_json(self) -> dict:
        return {"label": self.label, "path": self.path, "digest": self.digest,
                "dims": list(self.dims) if self.dims is not None else None,
                "series": self.series, "error": self.error}


@dataclass
class CorpusReport:
    bound: int
    entries: list = field(default_factory=list)
    classes: list = field(default_factory=list)   # lists of labels
    evidence: list = field(default_factory=list)  # per-pair records
    unresolved: list = field(default_factory=list)  # see the module doc
    totals: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"bound": self.bound,
                "entries": [e.to_json() for e in self.entries],
                "classes": self.classes,
                "evidence": self.evidence,
                "unresolved": self.unresolved,
                "totals": self.totals}


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # smaller label becomes the root: deterministic representatives
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _load_entries(paths) -> list:
    entries = []
    seen: dict = {}
    for path in sorted(str(p) for p in paths):
        try:
            pres = parse_file(path)
        except (ParseError, OSError) as exc:
            entries.append(CorpusEntry(label=Path(path).stem, path=path,
                                       error=str(exc)))
            continue
        label = pres.name
        if label in seen:
            label = f"{pres.name}@{Path(path).stem}"
        while label in seen:
            label += "+"
        seen[label] = True
        entries.append(CorpusEntry(label=label, path=path, presentation=pres))
    return entries


def classify_corpus(paths, *, max_degree: int | None = None,
                    monomial_ceiling: int = DEFAULT_MONOMIAL_CEILING
                    ) -> CorpusReport:
    """Classify the presentations behind `paths` up to graded isomorphism."""
    entries = _load_entries(paths)
    usable = [e for e in entries if e.presentation is not None]
    bound = max_degree
    if bound is None:
        bound = max((default_bound(e.presentation) for e in usable),
                    default=0)

    buckets: dict = {}
    for entry in usable:
        try:
            fp = fingerprint(entry.presentation, bound=bound,
                             monomial_ceiling=monomial_ceiling)
        except FinalgError as exc:
            entry.error = str(exc)
            continue
        entry.digest = fp.digest()
        entry.dims = fp.dims
        entry.series = str(fp.series.canonical()) if fp.series is not None else None
        buckets.setdefault(entry.digest, []).append(entry.label)
    usable = [e for e in usable if e.error is None]
    by_label = {e.label: e for e in usable}

    uf = _UnionFind([e.label for e in usable])
    evidence = []
    pairs_run = 0
    inconclusive = []
    for digest in sorted(buckets):
        labels = sorted(buckets[digest])
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                a, b = labels[i], labels[j]
                if uf.find(a) == uf.find(b):
                    evidence.append({"left": a, "right": b,
                                     "outcome": "isomorphic",
                                     "method": "transitivity",
                                     "reason": None, "certificate": None})
                    continue
                verdict = graded_isomorphism(
                    by_label[a].presentation, by_label[b].presentation,
                    max_degree=bound,
                    monomial_ceiling=monomial_ceiling)
                pairs_run += 1
                evidence.append({
                    "left": a, "right": b, "outcome": verdict.outcome,
                    "method": "search", "reason": verdict.reason,
                    "certificate": verdict.certificate,
                    "wall_time_ms": verdict.statistics.get("wall_time_ms"),
                })
                if verdict.outcome == "isomorphic":
                    uf.union(a, b)
                elif verdict.outcome == "inconclusive":
                    inconclusive.append((a, b, verdict.reason))
    digests = sorted(buckets)
    for i in range(len(digests)):
        for j in range(i + 1, len(digests)):
            for a in sorted(buckets[digests[i]]):
                for b in sorted(buckets[digests[j]]):
                    left, right = min(a, b), max(a, b)
                    evidence.append({"left": left, "right": right,
                                     "outcome": "not-isomorphic",
                                     "method": "fingerprint",
                                     "reason": "invariant digest differs",
                                     "certificate": None})

    groups: dict = {}
    for entry in usable:
        groups.setdefault(uf.find(entry.label), []).append(entry.label)
    classes = sorted((sorted(v) for v in groups.values()),
                     key=lambda c: c[0])
    # the union-find roots are the classes' smallest labels; the first
    # reason found for a pair of classes is kept
    unresolved: dict = {}
    for a, b, reason in inconclusive:
        ra, rb = sorted((uf.find(a), uf.find(b)))
        if ra != rb:
            unresolved.setdefault((ra, rb), reason)
    report = CorpusReport(
        bound=bound, entries=entries, classes=classes, evidence=evidence,
        unresolved=[{"left": a, "right": b, "reason": reason}
                    for (a, b), reason in sorted(unresolved.items())])
    report.totals = {"entries": len(entries), "parsed": len(usable),
                     "classes": len(classes), "pairs_run": pairs_run,
                     "inconclusive_pairs": len(inconclusive)}
    return report
