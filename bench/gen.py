"""Seeded benchmark inputs, written as `.alg` files.

Batch b of a workload is a pure function of (seed, b): the same seed gives
byte-identical files.  Each pair carries the verdict it must get, by
construction wherever possible: a graded automorphism of the free algebra
(`disguise`, `rescale`) never changes the isomorphism class, and each
non-isomorphic hard family names the invariant separating its sides.  The
screen-stream skeletons get theirs from the brute-force oracle, run once
and kept in `screen_oracle.json`.

The random-presentation and disguise helpers are the benchmark's own copy
of the family the acceptance tests draw from, so the benchmark does not
depend on the test tree.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import finalg
from finalg.present import (ASSOCIATIVE, COMMUTATIVE, GeneratorSet,
                            Presentation, monomials_of_degree, parse,
                            serialize, substitute)

ISO = "isomorphic"
NOT_ISO = "not-isomorphic"

SCREEN_COMPOSITION_SEED = 52525
SCREEN_PAIRS = 300
SCREEN_ORACLE = Path(__file__).resolve().parent / "screen_oracle.json"
CLASSIFY_DISGUISES = 2


def _rank_mod_p(rows, p: int) -> int:
    """Rank of a small integer matrix over GF(p), by plain elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_presentation(rng: random.Random, name: str) -> Presentation:
    """Small commutative presentation: p in {2,3}, <=3 gens of degree <=2,
    <=2 homogeneous relations of degree <=4."""
    p = rng.choice([2, 3])
    ngens = rng.randint(1, 3)
    names = ["x", "y", "z"][:ngens]
    degrees = tuple(rng.randint(1, 2) for _ in range(ngens))
    gens = GeneratorSet.from_pairs(list(zip(names, degrees)))
    relations = []
    for _ in range(rng.randint(0, 2)):
        deg = rng.randint(max(1, min(gens.degrees)), 4)
        monos = monomials_of_degree(gens, deg, COMMUTATIVE, p)
        if not monos:
            continue
        poly = {}
        for mono in monos:
            c = rng.randrange(p)
            if c:
                poly[mono] = c
        if poly:
            relations.append(poly)
    return Presentation(name=name, p=p, mode=COMMUTATIVE, gens=gens,
                        relations=tuple(relations))


def _gen_mono(P: Presentation, j: int) -> tuple:
    """The monomial of generator j alone."""
    if P.mode == ASSOCIATIVE:
        return (j,)
    return tuple(1 if k == j else 0 for k in range(len(P.gens)))


def _only_in(P: Presentation, mono, allowed) -> bool:
    """Does the monomial use only generators from `allowed`?"""
    if P.mode == ASSOCIATIVE:
        return all(i in allowed for i in mono)
    return all(e == 0 for j, e in enumerate(mono) if j not in allowed)


def _substituted(P: Presentation, images, name: str) -> Presentation:
    rels = [r for r in (substitute(rel, images, P.gens, P.gens, P.mode, P.p)
                        for rel in P.relations) if r]
    return dataclasses.replace(P, name=name, relations=tuple(rels))


def disguise(P: Presentation, rng: random.Random, name: str) -> Presentation:
    """Rewrite P through a random graded automorphism of the free algebra.

    Per degree the generator block gets an invertible linear change plus,
    in degrees >= 2, a random tail in the lower-degree generators; such a
    substitution is invertible, so the result is isomorphic to P.
    """
    gens = P.gens
    n = len(gens)
    by_degree: dict = {}
    for i, d in enumerate(gens.degrees):
        by_degree.setdefault(d, []).append(i)
    images = [None] * n
    for d, idxs in by_degree.items():
        k = len(idxs)
        while True:
            mat = [[rng.randrange(P.p) for _ in range(k)] for _ in range(k)]
            if _rank_mod_p(mat, P.p) == k:
                break
        lower = [j for j in range(n) if gens.degrees[j] < d]
        tails = [m for m in monomials_of_degree(gens, d, P.mode, P.p)
                 if _only_in(P, m, lower)]
        for row, i in zip(mat, idxs):
            poly = {_gen_mono(P, j): c for c, j in zip(row, idxs) if c}
            for mono in tails:
                c = rng.randrange(P.p)
                if c:
                    poly[mono] = (poly.get(mono, 0) + c) % P.p
            images[i] = {m: c for m, c in poly.items() if c}
    return _substituted(P, images, name)


def rescale(P: Presentation, rng: random.Random, name: str) -> Presentation:
    """A disguise by a monomial automorphism: generators permuted within
    each degree and scaled by random units, so every relation keeps its
    number of terms."""
    images = [None] * len(P.gens)
    by_degree: dict = {}
    for i, d in enumerate(P.gens.degrees):
        by_degree.setdefault(d, []).append(i)
    for idxs in by_degree.values():
        for i, j in zip(idxs, rng.sample(idxs, len(idxs))):
            images[i] = {_gen_mono(P, j): rng.randrange(1, P.p)}
    return _substituted(P, images, name)


def _alg(p: int, gens: str, *rels: str, mode: str = COMMUTATIVE,
         series: str | None = None) -> Presentation:
    lines = ["algebra base", f"char {p}", f"mode {mode}"]
    lines += [f"gen {g.split(':')[0]} {g.split(':')[1]}" for g in gens.split()]
    lines += [f"rel {r}" for r in rels]
    if series is not None:
        lines.append(f"series {series}")
    return parse("\n".join(lines) + "\n")


def _assoc(p: int, *rels: str, series: str | None = None) -> Presentation:
    """The free associative algebra on x, y, z of degree 2, modulo rels."""
    return _alg(p, "x:2 y:2 z:2", *rels, mode=ASSOCIATIVE, series=series)


# Non-isomorphic families whose sides share every fingerprint invariant.
# x^2 vs x*y (or x*y+x*z+y*z): the left side has a nonzero square-zero
# element, the squared generator, in the generators' degree; on the right
# the square of a*x+b*y+... keeps a^2 x^2 + b^2 y^2 (+ c^2 z^2), outside
# the relation span unless every coefficient is 0.  x*y+z^2 vs x*y (p = 2): the right
# relation is a product of linear forms, the left one is irreducible.
HARD_NON_ISO = [
    ("sq-vs-prod-2x1-p2", _alg(2, "x:1 y:1", "x^2"), _alg(2, "x:1 y:1", "x*y")),
    *((f"sq{v}-vs-e2-3x1-p2", _alg(2, "x:1 y:1 z:1", f"{v}^2"),
       _alg(2, "x:1 y:1 z:1", "x*y+x*z+y*z")) for v in "xyz"),
    ("sq-vs-prod-2x2-p3", _alg(3, "x:2 y:2", "x^2"), _alg(3, "x:2 y:2", "x*y")),
    ("sq-vs-prod-112-p2", _alg(2, "x:1 y:1 z:2", "x^2"),
     _alg(2, "x:1 y:1 z:2", "x*y")),
    ("quadric-3x1-p2", _alg(2, "x:1 y:1 z:1", "x*y+z^2"),
     _alg(2, "x:1 y:1 z:1", "x*y")),
]

# Isomorphic families, from 9 to 26^3 = 17576 candidate tuples.
HARD_ISO = [
    ("c2c2c2", _alg(2, "x:1 y:1 z:1")),
    ("cube-plus-yz-112", _alg(2, "x:1 y:1 z:2", "x^3+y*z")),
    ("xyz-3x1-p2", _alg(2, "x:1 y:1 z:1", "x*y*z")),
    ("prod-2x1-p2", _alg(2, "x:1 y:1", "x*y")),
    ("prod-2x2-p3", _alg(3, "x:2 y:2", "x*y")),
    ("prod-3x2-p3", _alg(3, "x:2 y:2 z:2", "x*y")),
]

# With at most three generators the prune ladder's last stage tests whole
# image tuples, so on the commutative families above it admits only
# isomorphisms and the search certifies at its first leaf, whatever the
# disguise.  The ladder does not run in associative mode, so the families
# below make the search enumerate: each non-isomorphic pair ends in
# "search exhausted" after walking its whole candidate space, and each
# isomorphic pair walks past tuples that break a relation or do not
# generate before it reaches the map.
#
# All are quadratic in three degree-2 generators, so a graded isomorphism
# is a linear change g of the generators whose g (x) g carries one relation
# space onto the other.  g (x) g keeps a relation tensor symmetric or
# antisymmetric and keeps its rank as a 3x3 matrix: x*y-y*x is
# antisymmetric of rank 2, x*y+y*x at p = 3 symmetric of rank 2, x*y of
# rank 1.  The sides of each pair still share dimensions and filtration.
HARD_SEARCH_NON_ISO = [
    ("comm-vs-anti-3x2-p3", _assoc(3, "x*y-y*x"), _assoc(3, "x*y+y*x")),
    ("comm-vs-mono-3x2-p3", _assoc(3, "x*y-y*x"), _assoc(3, "x*y")),
    ("comm-vs-mono-3x2-p2", _assoc(2, "x*y+y*x"), _assoc(2, "x*y")),
    ("comm2-vs-anti2-3x2-p3", _assoc(3, "x*y-y*x", "x*z-z*x"),
     _assoc(3, "x*y+y*x", "x*z+z*x")),
]
# Isomorphic: each algebra against one fixed linear disguise, so the map
# lies past the first tuples and every seed asks for the same walk.  An
# associative verdict is "isomorphic" only with an exact series, so the
# files declare it; the library checks it against the dimensions.
HARD_SEARCH_ISO = [
    ("comm-3x2-p3", _assoc(3, "x*y-y*x", series="1 / 1-3t^2+t^4")),
    ("comm-3x2-p2", _assoc(2, "x*y+y*x", series="1 / 1-3t^2+t^4")),
    ("comm2-3x2-p3", _assoc(3, "x*y-y*x", "x*z-z*x",
                            series="1 / 1-3t^2+2t^4")),
]


def _batch_rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch}")


def screen_composition() -> list:
    """The fixed (A, B) skeletons of screen-stream: independent random pairs
    of equal characteristic from the acceptance-5 family, no disguised
    pairs.  Fixed, so every seed asks for the same isomorphism classes and
    about the same work."""
    rng = random.Random(SCREEN_COMPOSITION_SEED)
    pairs = []
    for k in range(SCREEN_PAIRS):
        A = random_presentation(rng, f"s{k}a")
        B = random_presentation(rng, f"s{k}b")
        while B.p != A.p:
            B = random_presentation(rng, f"s{k}b")
        pairs.append((A, B))
    return pairs


def brute_force_verdicts(composition) -> list:
    return [finalg.graded_isomorphism(A, B, prune=False,
                                      use_fingerprints=False).outcome
            for A, B in composition]


def screen_oracle() -> list:
    """The skeletons' expected verdicts, as the brute-force oracle gave
    them when SCREEN_ORACLE was written; kept in a file so that a change
    which breaks both decision paths alike still shows as wrong verdicts."""
    verdicts = json.loads(SCREEN_ORACLE.read_text(encoding="utf-8"))
    if len(verdicts) != SCREEN_PAIRS:
        raise ValueError(f"{SCREEN_ORACLE} has {len(verdicts)} verdicts, "
                         f"expected {SCREEN_PAIRS}")
    return verdicts


def screen_stream(seed: int, batch: int, composition, oracle) -> list:
    """Each skeleton pair with its right side through a seeded disguise.
    The left side stays fixed, so the cost of a pair depends on the seed
    only through coordinates; the expected verdict is the oracle verdict
    of the skeleton, which a disguise keeps."""
    rng = _batch_rng("screen-stream", seed, batch)
    return [(f"s{k}", A, disguise(B, rng, B.name), expected)
            for k, ((A, B), expected) in enumerate(zip(composition, oracle))]


def hard_pairs(seed: int, batch: int) -> list:
    """Fingerprint-equal pairs: each family's left base against a seeded
    `rescale` of its right base (of itself, for the commutative isomorphic
    families), and each associative isomorphic family against its fixed
    disguise.

    A seeded full `disguise` would make the cost of a pair swing up to
    threefold from seed to seed: with the term count of its rewritten
    relations, and where the search walks, with how far along the map
    lies.  A monomial automorphism of the right side keeps the term count
    and the number of tuples that the prune ladder admits or that the
    search has to walk, so every seed asks for the same work.
    """
    rng = _batch_rng("hard-pairs", seed, batch)
    families = ([(lab, A, B, NOT_ISO) for lab, A, B in HARD_NON_ISO]
                + [(lab, A, A, ISO) for lab, A in HARD_ISO]
                + [(lab, A, B, NOT_ISO) for lab, A, B in HARD_SEARCH_NON_ISO])
    pairs = []
    for label, A, B, expected in families:
        name = label.replace("-", "_")
        pairs.append((label, dataclasses.replace(A, name=name + "_a"),
                      rescale(B, rng, name + "_b"), expected))
    for label, A in HARD_SEARCH_ISO:
        name = label.replace("-", "_")
        pairs.append((label, dataclasses.replace(A, name=name + "_a"),
                      disguise(A, random.Random(f"hard-pairs:{label}"),
                               name + "_b"), ISO))
    # space the associative pairs, which lie around the median latency,
    # evenly among the commutative ones: their latencies are then taken
    # across the whole batch, so a slow spell of the host does not move
    # them all together.  The order is fixed, so peak memory is too.
    n_comm = len(HARD_NON_ISO) + len(HARD_ISO)
    groups = (pairs[:n_comm], pairs[n_comm:])
    spaced = [((k + 0.5) / len(group), pair)
              for group in groups for k, pair in enumerate(group)]
    return [pair for _, pair in sorted(spaced, key=lambda kp: kp[0])]


def class_key(P: Presentation) -> str:
    """Characteristic, generators and relations as text: equal keys are
    the same algebra, so they share a class by construction."""
    bare = Presentation(name="key", p=P.p, mode=P.mode, gens=P.gens,
                        relations=P.relations)
    return serialize(bare).split("\n", 1)[1]


def classify_corpus(seed: int, batch: int, corpus_dirs) -> list:
    """(file stem, presentation, class key): the corpus files plus seeded
    `rescale`s of each, which inherit the key of their source.  As in
    hard_pairs, a monomial automorphism keeps the work of a batch the same
    from seed to seed."""
    rng = _batch_rng("classify-corpus", seed, batch)
    entries = []
    for d in corpus_dirs:
        for path in sorted(Path(d).glob("*.alg")):
            P = parse(path.read_text(encoding="utf-8"))
            key = class_key(P)
            stem = f"{Path(d).name}_{path.stem}"
            entries.append((stem, P, key))
            for k in range(CLASSIFY_DISGUISES):
                entries.append((f"{stem}_d{k}",
                                rescale(P, rng, f"{P.name}_{Path(d).name}_d{k}"),
                                key))
    return entries


def write_pairs(pairs, out: Path) -> list:
    """Write each side as an .alg file; return one record per pair."""
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for tag, A, B, expected in pairs:
        fa, fb = f"{tag}-a.alg", f"{tag}-b.alg"
        (out / fa).write_text(serialize(A), encoding="utf-8")
        (out / fb).write_text(serialize(B), encoding="utf-8")
        records.append({"id": tag, "a": fa, "b": fb, "expected": expected})
    return records


def write_corpus(entries, out: Path) -> list:
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for stem, P, key in entries:
        (out / f"{stem}.alg").write_text(serialize(P), encoding="utf-8")
        records.append({"file": f"{stem}.alg", "class": key})
    return records


if __name__ == "__main__":
    # rewrite the oracle file: PYTHONPATH=src python3 bench/gen.py
    SCREEN_ORACLE.write_text(
        json.dumps(brute_force_verdicts(screen_composition()), indent=0) + "\n",
        encoding="utf-8")
