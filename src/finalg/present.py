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

from .errors import ParseError
from .gfp import check_prime
from .hilbert import RationalSeries, parse_series, format_int_poly

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
        return tuple(False for _ in gens.degrees)
    return tuple(d % 2 == 1 for d in gens.degrees)


# -------------------------------------------------------------- monomials
#
# Commutative monomial: exponent tuple, one slot per generator.
# Associative monomial: tuple of generator indices (a word).

def mono_one(gens: GeneratorSet, mode: str):
    return (0,) * len(gens) if mode == COMMUTATIVE else ()


def mono_degree(m, gens: GeneratorSet, mode: str) -> int:
    if mode == COMMUTATIVE:
        return sum(e * d for e, d in zip(m, gens.degrees))
    return sum(gens.degrees[i] for i in m)


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


def mono_mul(u, v, gens: GeneratorSet, mode: str, p: int):
    """Product of two monomials: (sign, monomial) or (0, None) if it dies.

    The sign counts transpositions of odd-degree factors; exterior squares
    annihilate at odd p.
    """
    if mode == ASSOCIATIVE:
        return 1, u + v
    ext = exterior_mask(gens, p, mode)
    if p != 2:
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


def _exponent_walk(i, left, acc, degrees, ext, out):
    if i == len(degrees):
        if left == 0:
            out.append(tuple(acc))
        return
    top = left // degrees[i]
    if ext[i]:
        top = min(top, 1)
    for e in range(top + 1):
        acc.append(e)
        _exponent_walk(i + 1, left - e * degrees[i], acc, degrees, ext, out)
        acc.pop()


def _word_walk(left, acc, degrees, out):
    if left == 0:
        out.append(tuple(acc))
        return
    for i, d in enumerate(degrees):
        if d <= left:
            acc.append(i)
            _word_walk(left - d, acc, degrees, out)
            acc.pop()


def monomials_of_degree(gens: GeneratorSet, n: int, mode: str, p: int):
    """All monomials of total degree n, listed in decreasing order."""
    if n < 0:
        return []
    if n == 0:
        return [mono_one(gens, mode)]
    # the walks are module-level, not recursive closures, so a call leaves
    # no reference cycle behind
    out = []
    if mode == COMMUTATIVE:
        _exponent_walk(0, n, [], gens.degrees, exterior_mask(gens, p, mode),
                       out)
    else:
        _word_walk(n, [], gens.degrees, out)
    out.sort(key=lambda mm: mono_key(mm, gens, mode), reverse=True)
    return out


# ------------------------------------------------------------ polynomials
#
# Polynomial: dict monomial -> coefficient in 1..p-1, kept in decreasing
# term order (insertion order is meaningful for display, not for equality).

def poly_canon(poly: dict, gens: GeneratorSet, mode: str, p: int) -> dict:
    items = [(m, c % p) for m, c in poly.items() if c % p]
    items.sort(key=lambda t: mono_key(t[0], gens, mode), reverse=True)
    return dict(items)


def poly_add(f: dict, g: dict, gens, mode, p) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = (out.get(m, 0) + c) % p
    return poly_canon(out, gens, mode, p)


def poly_scale(f: dict, c: int, gens, mode, p) -> dict:
    c %= p
    if c == 0:
        return {}
    return poly_canon({m: (co * c) % p for m, co in f.items()}, gens, mode, p)


def term_mul_poly(coeff: int, mono, f: dict, gens, mode, p) -> dict:
    out: dict = {}
    for m, c in f.items():
        sign, mm = mono_mul(mono, m, gens, mode, p)
        if sign == 0:
            continue
        out[mm] = (out.get(mm, 0) + coeff * sign * c) % p
    return poly_canon(out, gens, mode, p)


def poly_mul(f: dict, g: dict, gens, mode, p) -> dict:
    out: dict = {}
    for mf, cf in f.items():
        for mg, cg in g.items():
            sign, mm = mono_mul(mf, mg, gens, mode, p)
            if sign == 0:
                continue
            out[mm] = (out.get(mm, 0) + cf * cg * sign) % p
    return poly_canon(out, gens, mode, p)


def poly_degree(f: dict, gens, mode):
    """Degree of a homogeneous polynomial, None for the zero polynomial."""
    degs = {mono_degree(m, gens, mode) for m in f}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("polynomial is not homogeneous")
    return degs.pop()


def is_homogeneous(f: dict, gens, mode) -> bool:
    return len({mono_degree(m, gens, mode) for m in f}) <= 1


def substitute(f: dict, images: list, gens_in: GeneratorSet, gens_out: GeneratorSet,
               mode: str, p: int) -> dict:
    """Evaluate f at polynomial images of the generators (free composition)."""
    one = {mono_one(gens_out, mode): 1}
    out: dict = {}
    for m, c in f.items():
        val = dict(one)
        if mode == COMMUTATIVE:
            factors = [(i, e) for i, e in enumerate(m) if e]
        else:
            factors = [(i, 1) for i in m]
        for i, e in factors:
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


def parse_poly(text: str, gens: GeneratorSet, mode: str, p: int,
               line: int | None = None) -> dict:
    """Parse a sum of terms: [coeff '*'] factor ('*' factor)*.

    Commutative factors multiply through the sign rule, so "y*x" at odd p
    contributes -x*y.  A '-' joining terms is accepted as a liberal
    extension and folds into the coefficient.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", line)
    # split into signed terms at top level
    terms = []
    sign, buf = 1, []
    for ch in s:
        if ch in "+-":
            if buf:
                terms.append((sign, "".join(buf).strip()))
                buf = []
                sign = 1
            if ch == "-":
                sign = -sign
        else:
            buf.append(ch)
    if buf:
        terms.append((sign, "".join(buf).strip()))
    if not terms or any(not t for _, t in terms):
        raise ParseError(f"bad polynomial {text.strip()!r}", line)

    out: dict = {}
    one = mono_one(gens, mode)
    for tsign, term in terms:
        coeff = tsign % p
        mono = one
        msign = 1
        saw_factor = False
        for raw in term.split("*"):
            tok = raw.strip()
            if not tok:
                raise ParseError(f"bad term {term!r}", line)
            if tok.isdigit():
                coeff = (coeff * int(tok)) % p
                continue
            fm = _FACTOR_RE.match(tok)
            if not fm:
                raise ParseError(f"bad factor {tok!r}", line)
            name, power = fm.group(1), int(fm.group(2) or 1)
            try:
                idx = gens.index(name)
            except KeyError:
                raise ParseError(f"unknown generator {name!r}", line) from None
            saw_factor = True
            for _ in range(power):
                if mode == COMMUTATIVE:
                    step = tuple(1 if k == idx else 0 for k in range(len(gens)))
                else:
                    step = (idx,)
                sg, mono2 = mono_mul(mono, step, gens, mode, p)
                if sg == 0:
                    msign = 0
                    break
                msign *= sg
                mono = mono2
            if msign == 0:
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
            if not rest.isdigit() or not 2 <= int(rest) <= 2 ** 16:
                raise ParseError(f"char needs a prime in [2, 65536], got {rest!r}", no)
            p = int(rest)
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
            if not gdeg.isdigit() or int(gdeg) < 1:
                raise ParseError(f"generator degree must be a positive integer, got {gdeg!r}", no)
            if gname in seen_names:
                raise ParseError(f"duplicate generator {gname!r}", no)
            seen_names.add(gname)
            gen_pairs.append((gname, int(gdeg)))

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
            if not is_homogeneous(poly, gens, mode):
                raise ParseError(f"inhomogeneous polynomial {rest!r}", no)
            if not poly:
                continue  # normalized away (exterior square, coeff multiple of p)
            if poly_degree(poly, gens, mode) == 0:
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
