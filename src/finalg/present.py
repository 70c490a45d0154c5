"""Finitely presented graded unital algebras over GF(p).

A presentation fixes a characteristic, a mode, ordered generators with
positive degrees, and homogeneous relations.  Two modes:

* ``commutative``: graded-commutative, y*x = (-1)^{|x||y|} x*y.  At odd p
  every odd-degree generator squares to zero implicitly; monomials are
  exponent vectors over the generators in canonical order.
* ``associative``: free associative with no implied identities; monomials
  are words of generator indices.

Generators are kept in a canonical order, sorted by (degree, input
position), and all monomial listings follow one fixed order: total degree
first, then reverse-lexicographic against the generator order (earlier
generators are larger).  Everything downstream leans on that determinism.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import mul

from .errors import ParseError
from .gfp import check_prime
from .hilbert import (DEGREE_CAP, RationalSeries, format_int_poly,
                      parse_digits, parse_series)

COMMUTATIVE = "commutative"
ASSOCIATIVE = "associative"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered generators with degrees, already in canonical order."""

    names: tuple
    degrees: tuple

    def __post_init__(self):
        index = {}
        for i, (name, deg) in enumerate(zip(self.names, self.degrees)):
            if not _IDENT_RE.match(name):
                raise ValueError(f"bad generator name {name!r}")
            if not isinstance(deg, int) or deg < 1:
                raise ValueError(f"generator {name} needs a positive degree")
            if name in index:
                raise ValueError(f"duplicate generator {name}")
            index[name] = i
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_pairs(cls, pairs):
        """Build from (name, degree) pairs, sorting by (degree, position)."""
        ordered = sorted(enumerate(pairs), key=lambda t: (t[1][1], t[0]))
        return cls(tuple(p[1][0] for p in ordered), tuple(p[1][1] for p in ordered))

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None


def exterior_mask(gens: GeneratorSet, p: int, mode: str):
    """Which generators carry an implicit square-zero (odd degree, odd p)."""
    if mode != COMMUTATIVE or p == 2:
        return (False,) * len(gens.degrees)
    return tuple(d % 2 == 1 for d in gens.degrees)


# -------------------------------------------------------------- monomials
#
# Commutative monomial: exponent tuple, one slot per generator.
# Associative monomial: tuple of generator indices (a word).

def mono_one(gens: GeneratorSet, mode: str):
    return (0,) * len(gens) if mode == COMMUTATIVE else ()


def mono_degree(m, gens: GeneratorSet, mode: str) -> int:
    if mode == COMMUTATIVE:
        return sum(map(mul, m, gens.degrees))
    return sum(map(gens.degrees.__getitem__, m))


def mono_key(m, gens: GeneratorSet, mode: str):
    """Sort key, ascending in the canonical term order.

    Degree first; ties by reverse-lexicographic comparison that makes
    earlier generators larger (so x^2 > xy > y^2 in GF(p)[x, y]).
    """
    if mode == COMMUTATIVE:
        return (mono_degree(m, gens, mode), tuple(-e for e in reversed(m)))
    return (mono_degree(m, gens, mode), tuple(-i for i in m))


def elimination_key(front, gens: GeneratorSet):
    """Block order key: variables in `front` dominate the rest.

    Within each block the comparison refines block degree and falls back to
    the same reverse-lexicographic tie-break.  Commutative mode only.
    """
    front = frozenset(front)
    degrees = gens.degrees

    def key(m):
        fdeg = sum(e * d for i, (e, d) in enumerate(zip(m, degrees)) if i in front)
        bdeg = sum(e * d for i, (e, d) in enumerate(zip(m, degrees)) if i not in front)
        ftie = tuple(-e for i, e in reversed(list(enumerate(m))) if i in front)
        btie = tuple(-e for i, e in reversed(list(enumerate(m))) if i not in front)
        return (fdeg, ftie, bdeg, btie)

    return key


def mono_mul(u, v, gens: GeneratorSet, mode: str, p: int, ext=None):
    """Product of two monomials: (sign, monomial) or (0, None) if it dies.

    The sign counts transpositions of odd-degree factors; exterior squares
    annihilate at odd p.  A loop passes in `ext`, the `exterior_mask`.
    """
    if mode == ASSOCIATIVE:
        return 1, u + v
    if p != 2:
        ext = exterior_mask(gens, p, mode) if ext is None else ext
        for i, e in enumerate(ext):
            if e and u[i] + v[i] >= 2:
                return 0, None
        swaps = 0
        for j in range(len(u)):
            if u[j] and ext[j]:
                for i in range(j):
                    if v[i] and ext[i]:
                        swaps += u[j] * v[i]
        sign = -1 if swaps % 2 else 1
    else:
        sign = 1
    return sign, tuple(a + b for a, b in zip(u, v))


def mono_divides(u, w) -> bool:
    """Componentwise divisibility of commutative monomials."""
    return all(a <= b for a, b in zip(u, w))


def mono_power(i: int, e: int, gens: GeneratorSet, mode: str):
    """The monomial x_i^e."""
    if mode == COMMUTATIVE:
        return tuple(e if k == i else 0 for k in range(len(gens)))
    return (i,) * e


def mono_factors(m, mode: str) -> list:
    """The (generator, exponent) factors of the monomial m: one per
    nonzero exponent of a vector, one per letter of a word."""
    if mode == COMMUTATIVE:
        return [(i, e) for i, e in enumerate(m) if e]
    return [(i, 1) for i in m]


# ---------------------------------------------------------------- listing

def _from_below(lists: list, n: int, degrees, cut, steps, unit) -> list:
    """The one lister of the term order, of words, keys (`_unpacked`) and
    factor counts: lists[n], filling first every lists[m] with m <= n that
    is None, those above the highest one filled.  Degree 0 is [unit], and
    degree m is steps[i] + x for each generator i of degree d <= m in turn
    and each x among the first cut[i][m - d] of degree m - d
    (`_extended`).  That is decreasing order: words of degree m are each
    generator in front of those of degree m - d, and the exponent vectors
    whose last factor is x_i follow those in earlier generators alone, and
    are x_i times those of degree m - d in generators 0..i (0..i-1 for an
    exterior x_i)."""
    low = n
    while low >= 0 and lists[low] is None:
        low -= 1
    for m in range(low + 1, n + 1):
        out = [] if m else [unit]
        for i, (d, step) in enumerate(zip(degrees, steps)):
            if d <= m:
                out += [step + x for x in lists[m - d][:cut[i][m - d]]]
        lists[m] = out
    return lists[n]


def _extended(prefix: list, ext, mode: str) -> list:
    """For `_from_below`, from the `prefix_counts` and `exterior_mask`:
    how many monomials of each degree each generator extends."""
    if mode != COMMUTATIVE:
        return [prefix[-1]] * len(ext)
    return [prefix[i if e else i + 1] for i, e in enumerate(ext)]


def _unpacked(keys, shifts: range) -> list:
    """The exponent vectors of the keys whose fields start at `shifts`."""
    field = (1 << shifts.step) - 1
    return [tuple([(key >> s) & field for s in shifts]) for key in keys]


def monomials_of_degree(gens: GeneratorSet, n: int, mode: str, p: int):
    """All monomials of total degree n, listed in decreasing order."""
    return monomials_up_to(gens, n, mode, p)[n] if n >= 0 else []


def monomials_up_to(gens: GeneratorSet, top: int, mode: str, p: int) -> list:
    """`monomials_of_degree` of every degree 0..top."""
    k, lists = len(gens), [None] * (top + 1)
    cut = _extended(prefix_counts(gens, top, mode, p),
                    exterior_mask(gens, p, mode), mode)
    if mode != COMMUTATIVE:
        _from_below(lists, top, gens.degrees, cut,
                    [(i,) for i in range(k)], ())
        return lists
    width = max(1, top.bit_length())
    shifts = range(0, width * k, width)
    _from_below(lists, top, gens.degrees, cut, [1 << s for s in shifts], 0)
    return [_unpacked(keys, shifts) for keys in lists]


def prefix_counts(gens: GeneratorSet, bound: int, mode: str, p: int) -> list:
    """Monomial counts over each prefix of the generators: row i holds
    the number of monomials in generators 0..i-1 of each degree 0..bound,
    so row 0 counts the unit alone and the last row counts them all.
    Counted without listing.  Commutative: generators are added one at a
    time, an exterior one with exponent 0 or 1 and any other with any
    exponent.  Associative: a word of degree n ends in some generator of
    degree d, so c[n] = sum of c[n - d] over the prefix's degrees."""
    rows = [[1] + [0] * bound]
    ext = exterior_mask(gens, p, mode)
    for i, d in enumerate(gens.degrees):
        counts = list(rows[-1])
        if mode != COMMUTATIVE:
            for n in range(1, bound + 1):
                counts[n] = sum(counts[n - e] for e in gens.degrees[:i + 1]
                                if e <= n)
        else:
            # descending reuses the previous generators' counts (exponent
            # 0 or 1); ascending reuses this generator's own (any exponent)
            order = range(bound, d - 1, -1) if ext[i] else range(d, bound + 1)
            for n in order:
                counts[n] += counts[n - d]
        rows.append(counts)
    return rows


# ------------------------------------------------------------ polynomials
#
# Polynomial: dict monomial -> coefficient in 1..p-1, kept in decreasing
# term order (insertion order is meaningful for display, not for equality).
# Arithmetic inside a loop (`add_multiple`, Groebner reduction) works in
# place on one dict and leaves term order alone; `poly_canon` applies the
# order once, when the result is returned.

def poly_canon(poly: dict, gens: GeneratorSet, mode: str, p: int) -> dict:
    items = [(m, c % p) for m, c in poly.items() if c % p]
    items.sort(key=lambda t: mono_key(t[0], gens, mode), reverse=True)
    return dict(items)


def poly_add(f: dict, g: dict, gens, mode, p) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = (out.get(m, 0) + c) % p
    return poly_canon(out, gens, mode, p)


def add_multiple(out: dict, coeff: int, mono, f: dict, gens, mode, p,
                 ext=None) -> dict:
    """out += coeff * mono * f, in place, and return out.  Terms that
    cancel are dropped, and a coefficient that is 0 mod p adds nothing.
    The new terms are not put in term order.  A loop passes in `ext`, the
    `exterior_mask`."""
    coeff %= p
    if not coeff:
        return out
    for m, c in f.items():
        sign, mm = mono_mul(mono, m, gens, mode, p, ext)
        if sign:
            total = (out.get(mm, 0) + coeff * sign * c) % p
            if total:
                out[mm] = total
            else:
                out.pop(mm, None)
    return out


def poly_mul(f: dict, g: dict, gens, mode, p) -> dict:
    ext = exterior_mask(gens, p, mode)
    out: dict = {}
    for m, c in f.items():
        add_multiple(out, c, m, g, gens, mode, p, ext)
    return poly_canon(out, gens, mode, p)


def poly_degree(f: dict, gens, mode):
    """Degree of a homogeneous polynomial, None for the zero polynomial."""
    degs = {mono_degree(m, gens, mode) for m in f}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("polynomial is not homogeneous")
    return degs.pop()


def substitute(f: dict, images: list, gens_in: GeneratorSet, gens_out: GeneratorSet,
               mode: str, p: int) -> dict:
    """Evaluate f at polynomial images of the generators (free composition)."""
    one = {mono_one(gens_out, mode): 1}
    out: dict = {}
    for m, c in f.items():
        val = dict(one)
        for i, e in mono_factors(m, mode):
            for _ in range(e):
                val = poly_mul(val, images[i], gens_out, mode, p)
        for mm, cc in val.items():
            out[mm] = (out.get(mm, 0) + c * cc) % p
    return poly_canon(out, gens_out, mode, p)


def format_mono(m, gens: GeneratorSet, mode: str) -> str:
    parts = []
    if mode == COMMUTATIVE:
        for name, e in zip(gens.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
    else:
        run_idx, run_len = None, 0
        for i in list(m) + [None]:
            if i == run_idx:
                run_len += 1
                continue
            if run_idx is not None:
                name = gens.names[run_idx]
                parts.append(name if run_len == 1 else f"{name}^{run_len}")
            run_idx, run_len = i, 1
    return "*".join(parts)


def format_poly(f: dict, gens: GeneratorSet, mode: str, p: int) -> str:
    f = poly_canon(f, gens, mode, p)
    if not f:
        return "0"
    parts = []
    for m, c in f.items():
        body = format_mono(m, gens, mode)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}")
    return "+".join(parts)


_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?\Z")
_SIGN_RUN_RE = re.compile(r"((?:\s*[+-]\s*)+)")


def parse_poly(text: str, gens: GeneratorSet, mode: str, p: int,
               line: int | None = None) -> dict:
    """Parse a sum of terms: [coeff '*'] factor ('*' factor)*.

    Commutative factors multiply through the sign rule, so "y*x" at odd p
    contributes -x*y.  As a liberal extension, a term may be joined or led
    by '-' signs after an optional '+' ("x+-y", "-x"); they fold into the
    coefficient.  A sign with no term after it is an error.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", line)
    # pieces alternate term, sign run, term, ...; a leading sign leaves an
    # empty first term
    pieces = _SIGN_RUN_RE.split(s)
    terms = [(1, pieces[0])] if pieces[0] else []
    for run, term in zip(pieces[1::2], pieces[2::2]):
        run = "".join(run.split())
        if not term or "+" in run[1:]:
            raise ParseError(f"bad polynomial {s!r}: sign without a term "
                             "after it", line)
        terms.append((-1 if run.count("-") % 2 else 1, term))

    out: dict = {}
    one, ext = mono_one(gens, mode), exterior_mask(gens, p, mode)
    for tsign, term in terms:
        coeff = tsign % p
        mono = one
        msign, degree = 1, 0
        saw_factor = False
        for raw in term.split("*"):
            tok = raw.strip()
            if not tok:
                raise ParseError(f"bad term {term!r}", line)
            if tok.isdigit():
                coeff = (coeff * parse_digits(tok, line)) % p
                continue
            fm = _FACTOR_RE.match(tok)
            if not fm:
                raise ParseError(f"bad factor {tok!r}", line)
            name, power = fm.group(1), parse_digits(fm.group(2) or "1", line)
            try:
                idx = gens.index(name)
            except KeyError:
                raise ParseError(f"unknown generator {name!r}", line) from None
            saw_factor = True
            degree += gens.degrees[idx] * power
            if degree > DEGREE_CAP:
                raise ParseError(f"term {term!r} has a degree above "
                                 f"{DEGREE_CAP}", line)
            sg, mono = mono_mul(mono, mono_power(idx, power, gens, mode),
                                gens, mode, p, ext)
            msign *= sg
            if sg == 0:
                break
        if not saw_factor:
            # a literal zero term is allowed so zero elements round-trip;
            # nonzero constants stay errors (every element is graded)
            if coeff % p == 0:
                continue
            raise ParseError(f"term {term!r} has no generator factor", line)
        if msign == 0 or coeff == 0:
            continue
        out[mono] = (out.get(mono, 0) + coeff * msign) % p
    return poly_canon(out, gens, mode, p)


# ----------------------------------------------------------- presentation

@dataclass(frozen=True)
class Presentation:
    """Immutable finitely presented graded algebra.

    Each instance carries `_memo`, a private dict in which `isotest`
    keeps the invariants it derives from this object, so they are
    computed once per object.  It is not a field: equality, `repr` and
    `dataclasses.replace` ignore it, and a replaced copy starts empty.
    It holds plain values only, never an engine or a Groebner basis, so
    it keeps nothing large alive and makes no reference cycle.
    """

    name: str
    p: int
    mode: str
    gens: GeneratorSet
    relations: tuple = ()
    nilradical: tuple = ()
    declared_series: RationalSeries | None = None
    meta: tuple = ()

    def __post_init__(self):
        check_prime(self.p)
        if self.mode not in (COMMUTATIVE, ASSOCIATIVE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.gens) == 0:
            raise ValueError("a presentation needs at least one generator")
        object.__setattr__(self, "_memo", {})

    # small conveniences so call sites stay short
    def mono_degree(self, m):
        return mono_degree(m, self.gens, self.mode)

    def poly_degree(self, f):
        return poly_degree(f, self.gens, self.mode)

    def format_poly(self, f):
        return format_poly(f, self.gens, self.mode, self.p)

    def parse_poly(self, text):
        return parse_poly(text, self.gens, self.mode, self.p)

    def monomials_of_degree(self, n):
        return monomials_of_degree(self.gens, n, self.mode, self.p)

    def max_generator_degree(self) -> int:
        return max(self.gens.degrees)


_KEYWORDS = ("algebra", "char", "mode", "gen", "rel", "nilradical", "series", "meta")


def parse(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    Two passes: the first collects the header and generators, the second
    parses polynomial lines against the full canonical generator set.
    Errors carry 1-based line numbers.
    """
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split(None, 1)
        word, rest = parts[0], (parts[1].strip() if len(parts) > 1 else "")
        if word not in _KEYWORDS:
            raise ParseError(f"unknown directive {word!r}", no)
        lines.append((no, word, rest))

    name = None
    p = None
    mode = None
    gen_pairs = []
    seen_names = set()
    for no, word, rest in lines:
        if word == "algebra":
            if name is not None:
                raise ParseError("duplicate algebra line", no)
            if not _IDENT_RE.match(rest):
                raise ParseError(f"bad algebra identifier {rest!r}", no)
            name = rest
        elif word == "char":
            if p is not None:
                raise ParseError("duplicate char line", no)
            p = parse_digits(rest, no) if rest.isdigit() else 0
            if not 2 <= p <= 2 ** 16:
                raise ParseError(f"char needs a prime in [2, 65536], got {rest!r}", no)
            try:
                check_prime(p)
            except ValueError:
                raise ParseError(f"{p} is not prime", no) from None
        elif word == "mode":
            if mode is not None:
                raise ParseError("duplicate mode line", no)
            if rest not in (COMMUTATIVE, ASSOCIATIVE):
                raise ParseError(f"mode must be commutative or associative, got {rest!r}", no)
            mode = rest
        elif word == "gen":
            bits = rest.split()
            if len(bits) != 2:
                raise ParseError("gen needs a name and a degree", no)
            gname, gdeg = bits
            if not _IDENT_RE.match(gname):
                raise ParseError(f"bad generator name {gname!r}", no)
            degree = parse_digits(gdeg, no) if gdeg.isdigit() else 0
            if not 1 <= degree <= DEGREE_CAP:
                raise ParseError("generator degree must be a positive integer"
                                 f" up to {DEGREE_CAP}, got {gdeg!r}", no)
            if gname in seen_names:
                raise ParseError(f"duplicate generator {gname!r}", no)
            seen_names.add(gname)
            gen_pairs.append((gname, degree))

    if name is None:
        raise ParseError("missing algebra line")
    if p is None:
        raise ParseError("missing char line")
    if mode is None:
        raise ParseError("missing mode line")
    if not gen_pairs:
        raise ParseError("at least one gen line is required")
    gens = GeneratorSet.from_pairs(gen_pairs)

    relations = []
    nilradical = []
    declared = None
    meta = []
    for no, word, rest in lines:
        if word in ("rel", "nilradical"):
            poly = parse_poly(rest, gens, mode, p, line=no)
            try:
                degree = poly_degree(poly, gens, mode)
            except ValueError:
                raise ParseError(f"inhomogeneous polynomial {rest!r}",
                                 no) from None
            if degree is None:
                continue  # normalized away (exterior square, coeff multiple of p)
            if degree == 0:
                raise ParseError("constant relations are not allowed", no)
            (relations if word == "rel" else nilradical).append(poly)
        elif word == "series":
            if declared is not None:
                raise ParseError("duplicate series line", no)
            declared = parse_series(rest, line=no)
        elif word == "meta":
            bits = rest.split(None, 1)
            if not bits:
                raise ParseError("meta needs a key", no)
            meta.append((bits[0], bits[1] if len(bits) > 1 else ""))

    return Presentation(name=name, p=p, mode=mode, gens=gens,
                        relations=tuple(relations), nilradical=tuple(nilradical),
                        declared_series=declared, meta=tuple(meta))


def parse_file(path) -> Presentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def serialize(P: Presentation) -> str:
    out = [f"algebra {P.name}", f"char {P.p}", f"mode {P.mode}"]
    for nm, dg in zip(P.gens.names, P.gens.degrees):
        out.append(f"gen {nm} {dg}")
    for r in P.relations:
        out.append(f"rel {P.format_poly(r)}")
    for r in P.nilradical:
        out.append(f"nilradical {P.format_poly(r)}")
    if P.declared_series is not None:
        s = P.declared_series
        out.append(f"series {format_int_poly(s.num)} / {format_int_poly(s.den)}")
    for k, v in P.meta:
        out.append(f"meta {k} {v}".rstrip())
    return "\n".join(out) + "\n"
