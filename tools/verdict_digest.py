"""Digest of finalg's verdicts on a fixed set of pairs, to compare two trees.

Usage: python3 tools/verdict_digest.py ROOT [KEY ...]

Imports the package from ROOT/src and the benchmark's generators from
ROOT/bench/gen.py, writes nothing under ROOT, and decides:

- batch 0 of the screen-stream, hard-pairs and classify-corpus workloads
  for seeds 1, 2 and 3, each side written out and parsed back as the
  benchmark does;
- the acceptance-5 stream (seed 52525, 200 ordered pairs, every fifth
  pair disguised), pruned and by the brute-force oracle;
- the probe family at p = 2 for d = 3..7, pruned and by the brute-force
  oracle: A has x, y, z of degree 1, w of degree d and the relation x*y,
  and B is A disguised by x -> x+z and w -> w + x^d + y^(d-1)*z, so w
  has 2^(2d+2) - 1 candidate images and the search walks 2^(2d+1)
  leaves (32,768 at d = 7);
- the `limits` group, pruned and by the brute-force oracle: a ring over
  the relation cell budget against itself and against the associative
  ring on one degree-1 generator, in both orders; a ring over the
  candidate budget against itself; c4 against c8 at bound 1, below their
  truncation bound; associative x (degree 1), y (degree 2) against x
  with x*x = 0, whose degree-2 component is zero; and the one-generator
  associative ring against itself, a map certified without exact series;
- every ordered pair of corpus/div4 and corpus/div8 files of equal
  characteristic and mode, over presentations parsed once, so later pairs
  read what earlier ones memoized;
- for each commutative corpus/div4 and corpus/div8 file P, freshly
  parsed, the `groebner` group records the degrevlex basis
  `groebner_basis(P)`, each polynomial through `P.format_poly`, and for
  each generator x of P the annihilator dims of x up to
  `default_bound(P)` and the kept polynomials of eliminating every other
  generator with that degree cap; for 40 presentations from
  `gen.random_presentation` (seed 7919, p = 2 and 3) it records the
  formatted degrevlex basis and the annihilator dims, up to
  `default_bound(P)`, of each generator and of the first two generators
  together;
- the `engines` group records the dims, the power filtration, the rows
  of `decomposables(n)` for each generator degree n, a sha256 of each
  degree's normal-form matrix (shape, entries and basis, read through
  `_monomials(n)`, `reduce_poly` and `basis(n)`) and of each
  `table(a, b)` with 1 <= a <= b and a + b <= bound that a
  `TruncatedAlgebra` at the default bound gives for every corpus/div4 and
  corpus/div8 file, 100 presentations from `gen.random_presentation`
  (seed 6007) and four rings whose relations mix factor counts, so a
  change to the engine's invariants shows even where no verdict moves.

A record is the outcome, reason, certificate and statistics of a verdict
(for a classify run, each evidence record, each entry and each
`graded_isomorphism` call the run makes; `groebner` and `engines` records
have no outcome and keep as statistics the file, generator, dims and
polynomials, the file or presentation and its basis, the presentation,
ideal and dims, or the presentation and what its engine gives).
Statistics leave out `wall_time_ms` and every KEY named on the command
line.  One line per group and one total give
the record count and a sha256 over the records; equal lines on two trees
mean equal verdicts.  A second line per group
and total, tagged `verdicts`, digests the (outcome, certificate) of each
record alone, so a change that should move only reasons and statistics
can show that its verdicts held.  A third line per group and total,
tagged `work`, gives how many `TruncatedAlgebra` engines were built and
how many `groebner.buchberger` runs were made while deciding the group,
counted by wrapping both here, so a change meant to keep the work a
decision does can show that it held.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np


def _digest(records) -> str:
    blob = json.dumps(records, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    dropped = {"wall_time_ms", *argv[1:]}
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import finalg
    import gen
    classify = importlib.import_module("finalg.classify")
    if Path(finalg.__file__).resolve().parent != root / "src" / "finalg":
        print(f"error: imported finalg from {finalg.__file__}", file=sys.stderr)
        return 2

    def record(outcome, reason, certificate, stats):
        return {"outcome": outcome, "reason": reason,
                "certificate": certificate,
                "statistics": {k: v for k, v in stats.items()
                               if k not in dropped}}

    def verdict(A, B, **kwargs):
        v = finalg.graded_isomorphism(A, B, **kwargs)
        return record(v.outcome, v.reason, v.certificate, v.statistics)

    def reparsed(P):
        return finalg.parse(finalg.serialize(P))

    # TruncatedAlgebra builds and Buchberger runs so far; `extend` charges
    # what a group's records cost to that group
    tally = [0, 0]
    build, buchberger = finalg.TruncatedAlgebra.__init__, finalg.groebner.buchberger

    def counted_build(*args, **kwargs):
        tally[0] += 1
        return build(*args, **kwargs)

    def counted_buchberger(*args, **kwargs):
        tally[1] += 1
        return buchberger(*args, **kwargs)
    finalg.TruncatedAlgebra.__init__ = counted_build
    finalg.groebner.buchberger = counted_buchberger
    groups: dict = {}
    work: dict = {}

    def extend(name, compute):
        before = list(tally)
        groups.setdefault(name, []).extend(compute())
        spent = work.setdefault(name, [0, 0])
        for k in range(2):
            spent[k] += tally[k] - before[k]

    decide = classify.graded_isomorphism
    calls: list = []

    def recorded(A, B, **kwargs):
        v = decide(A, B, **kwargs)
        calls.append(record(v.outcome, v.reason, v.certificate, v.statistics))
        return v

    corpus = [root / "corpus" / "div4", root / "corpus" / "div8"]
    composition, oracle = gen.screen_composition(), gen.screen_oracle()

    def classified(seed):
        calls.clear()
        classify.graded_isomorphism = recorded
        try:
            with tempfile.TemporaryDirectory() as tmp:
                files = gen.write_corpus(
                    gen.classify_corpus(seed, 0, corpus), Path(tmp))
                report = finalg.classify_corpus(
                    [Path(tmp) / f["file"] for f in files])
        finally:
            classify.graded_isomorphism = decide
        return ([record(ev["outcome"], ev["reason"], ev["certificate"],
                        {k: v for k, v in ev.items()
                         if k not in ("outcome", "reason", "certificate")})
                 for ev in report.evidence]
                + [record(None, e.error, None, {**e.to_json(), "path": None})
                   for e in report.entries]
                + calls)

    for seed in (1, 2, 3):
        for name, pairs in (
                ("screen-stream", gen.screen_stream(seed, 0, composition, oracle)),
                ("hard-pairs", gen.hard_pairs(seed, 0))):
            extend(name, lambda: [verdict(reparsed(A), reparsed(B))
                                  for _, A, B, _ in pairs])
        extend("classify-corpus", lambda: classified(seed))

    rng = random.Random(52525)
    for k in range(200):
        if k % 5 == 2:
            A = gen.random_presentation(rng, f"iso_a{k}")
            B = gen.disguise(A, rng, f"iso_b{k}")
        else:
            A = gen.random_presentation(rng, f"rnd_a{k}")
            B = gen.random_presentation(rng, f"rnd_b{k}")
            while B.p != A.p:
                B = gen.random_presentation(rng, f"rnd_b{k}")
        extend("acceptance-5", lambda: [
            verdict(A, B), verdict(A, B, prune=False, use_fingerprints=False)])

    for d in range(3, 8):
        gens = ("char 2\nmode commutative\ngen x 1\ngen y 1\ngen z 1\n"
                f"gen w {d}\n")
        A = finalg.parse(f"algebra probe_a{d}\n{gens}rel x*y\n")
        # w is in no relation, so its part of the disguise leaves B's
        # presentation alone
        B = finalg.parse(f"algebra probe_b{d}\n{gens}rel x*y + y*z\n")
        extend("probe", lambda: [
            verdict(A, B), verdict(A, B, prune=False, use_fingerprints=False)])

    # pairs that end at a limit or at an exit the groups above miss: the
    # relation cell budget, the candidate budget, a bound below the
    # truncation bound, a generator with no candidate image (which only
    # the oracle reaches) and a certified map without exact series
    def inline(text):
        return finalg.parse(f"algebra limit\n{text}")
    line = "char 2\nmode associative\ngen x 1\n"
    wide = inline(f"{line}gen y 1\ngen z 1\nrel z\nrel x*y\n")
    probe10 = inline("char 2\nmode commutative\ngen x 1\ngen y 1\n"
                     "gen z 1\ngen w 10\nrel x*y\n")
    c4, c8 = (finalg.parse_file(root / "corpus" / "div8" / f"{name}.alg")
              for name in ("c4", "c8"))
    for A, B, kwargs in (
            (wide, wide, {}), (wide, inline(line), {}),
            (inline(line), wide, {}), (probe10, probe10, {}),
            (c4, c8, {"max_degree": 1}),
            (inline(f"{line}gen y 2\n"), inline(f"{line}rel x*x\n"), {}),
            (inline(line), inline(line), {})):
        extend("limits", lambda: [
            verdict(A, B, **kwargs),
            verdict(A, B, prune=False, use_fingerprints=False, **kwargs)])

    files = [finalg.parse_file(path) for d in corpus
             for path in sorted(d.glob("*.alg"))]
    extend("corpus-pairs", lambda: [verdict(A, B) for A in files for B in files
                                    if (A.p, A.mode) == (B.p, B.mode)])

    def ideal_toolkit(path):
        P = finalg.parse_file(path)
        if P.mode != "commutative":
            return []
        bound = finalg.default_bound(P)
        G = finalg.groebner_basis(P)
        out = [record(None, None, None, {
            "file": f"{path.parent.name}/{path.name}",
            "basis": [P.format_poly(g) for g in G.polys]})]
        for i, name in enumerate(P.gens.names):
            ann = finalg.annihilator(G, [P.parse_poly(name)], bound)
            kept, _ = finalg.eliminate(P, (i,), degree_cap=bound)
            out.append(record(None, None, None, {
                "file": f"{path.parent.name}/{path.name}", "generator": name,
                "annihilator": list(ann),
                "eliminate": [P.format_poly(g) for g in kept]}))
        return out

    def random_annihilators(k, P):
        bound = finalg.default_bound(P)
        G = finalg.groebner_basis(P)
        names = list(P.gens.names)
        ideals = [[n] for n in names] + [names[:2]] * (len(names) > 1)
        basis = record(None, None, None, {
            "presentation": f"random/{k}",
            "basis": [P.format_poly(g) for g in G.polys]})
        return [basis] + [record(None, None, None, {
            "presentation": f"random/{k}", "ideal": ideal,
            "annihilator": list(finalg.annihilator(
                G, [P.parse_poly(n) for n in ideal], bound))})
            for ideal in ideals]
    rng = random.Random(7919)
    extend("groebner", lambda: [
        *(r for d in corpus for path in sorted(d.glob("*.alg"))
          for r in ideal_toolkit(path)),
        *(r for k in range(40)
          for r in random_annihilators(
              k, gen.random_presentation(rng, f"g{k}")))])

    def forms_digest(T, n):
        monos = T._monomials(n)
        forms = np.zeros((len(monos), T.dim(n)), dtype="<i8")
        for j, m in enumerate(monos):
            forms[j] = T.reduce_poly({m: 1})[n]
        return hashlib.sha256(json.dumps(
            [forms.shape, repr(T.basis(n))]).encode()
            + forms.tobytes()).hexdigest()

    def engine(name, P):
        T = finalg.TruncatedAlgebra(P)
        return record(None, None, None, {
            "presentation": name, "dims": T.dims(),
            "filtration": T.power_filtration_dims(),
            "decomposables": {n: T.decomposables(n).rows.tolist()
                              for n in sorted(set(P.gens.degrees))},
            "forms": {n: forms_digest(T, n)
                      for n in range(T.bound + 1)},
            "tables": {f"{a} {b}": hashlib.sha256(
                T.table(a, b).tobytes()).hexdigest()
                for a in range(1, T.bound // 2 + 1)
                for b in range(a, T.bound - a + 1)}})
    rng = random.Random(6007)
    mixed = [
        "char 3\nmode associative\ngen x 1\ngen u 2\ngen v 2\n"
        "rel x*x+u+2*v\nrel u*v-v*u\n",
        "char 2\nmode commutative\ngen x 1\ngen y 1\ngen z 2\nrel x^3+y*z\n",
        "char 2\nmode commutative\ngen x 1\ngen w 2\nrel x^2+w\n",
        "char 2\nmode commutative\ngen x 1\ngen y 2\ngen z 2\n"
        "rel x^2*y+y^2+x^2*z\nrel x^3+x*y\n"]
    extend("engines", lambda: [
        *(engine(f"{d.name}/{path.name}", finalg.parse_file(path))
          for d in corpus for path in sorted(d.glob("*.alg"))),
        *(engine(f"random/{k}", gen.random_presentation(rng, f"r{k}"))
          for k in range(100)),
        *(engine(f"mixed/{k}", finalg.parse(f"algebra mixed{k}\n{text}"))
          for k, text in enumerate(mixed))])

    groups["total"] = [r for records in groups.values() for r in records]
    work["total"] = [sum(w[k] for w in work.values()) for k in range(2)]
    for name, records in groups.items():
        print(f"{name} {len(records)} {_digest(records)}")
    for name, records in groups.items():
        verdicts = [(r["outcome"], r["certificate"]) for r in records]
        print(f"{name} verdicts {len(records)} {_digest(verdicts)}")
    for name, (builds, bases) in work.items():
        print(f"{name} work {builds} builds {bases} buchberger")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
