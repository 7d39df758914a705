"""Dense univariate polynomials with exact coefficients.

A polynomial is a tuple of coefficients in ascending order of degree with no
trailing zeros; the zero polynomial is the empty tuple.  The library computes
with integer coefficients; Fraction coefficients are accepted only where
input enters, in `to_int_poly` and `eval_at`.  Points may be rational;
signs at an algebraic point are taken in `bases` (`AlgBase.sign_of`).
Everything here is exact; floats never enter.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Sequence

from . import zfactor
from .errors import DomainError

Poly = tuple  # alias for readability in signatures


def trim(coeffs: Iterable) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Poly) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def neg(p: Poly) -> Poly:
    return tuple(-a for a in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def shift(p: Poly, k: int) -> Poly:
    """Multiply by x**k."""
    if not p:
        return ()
    return (0,) * k + tuple(p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def eval_at(p: Poly, x):
    """Horner evaluation; exact for int/Fraction x."""
    acc = 0
    for a in reversed(p):
        acc = acc * x + a
    return acc


def _hvalue(rev, m: int, d: int) -> int:
    """d^deg poly(m / d) for d > 0, by homogenised Horner in integers on the
    coefficients rev of poly from the leading one down: an integer with the
    sign of poly(m / d), found with no division and no gcd."""
    acc, dk = 0, 1
    for c in rev:
        acc = acc * m + c * dk
        dk *= d
    return acc


def sign_at_rational(p: Poly, x) -> int:
    """Sign of p at the rational x, by homogenised Horner (`_hvalue`)."""
    return _sign(_hvalue(reversed(p), x.numerator, x.denominator))


def derivative(p: Poly) -> Poly:
    return trim(i * a for i, a in enumerate(p) if i > 0)


def content(p: Poly) -> Fraction:
    """Positive rational c with p / c primitive integral; content(0) = 0."""
    if not p:
        return Fraction(0)
    num = 0
    den = 1
    for a in p:
        f = Fraction(a)
        num = _int_gcd(num, f.numerator)
        den = den * f.denominator // _int_gcd(den, f.denominator)
    return Fraction(num, den)


def _primitive(p: Poly) -> Poly:
    """An integer polynomial divided by the (positive) gcd of its coefficients."""
    g = _int_gcd(*p) if p else 0
    return tuple(a // g for a in p) if g > 1 else tuple(p)


def to_int_poly(p: Poly) -> Poly:
    """Primitive integer polynomial proportional to p (positive multiplier)."""
    if not p:
        return ()
    if all(type(a) is int for a in p):
        return _primitive(p)
    c = content(p)
    return tuple(int(Fraction(a) / c) for a in p)


def pseudo_divmod(a: Poly, b: Poly) -> tuple:
    """(k, quo, rem) with k a positive integer, k a = quo b + rem and
    deg rem < deg b, for integer polynomials a and b with b nonzero.

    Before the top term t of the running remainder is eliminated, the
    remainder and the quotient so far are scaled by |lc(b)| / gcd(t, lc(b)),
    and k by the same factor.  The factor is positive, so rem has the sign
    of the rational remainder and the same primitive part; k = 1 and
    rem = 0 exactly when b divides a in Z[x]."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    alead = abs(lead)
    terms = tuple((j, c) for j, c in enumerate(b[:-1]) if c)
    quo = [0] * max(0, len(r) - db)
    k = 1
    for i in range(len(r) - 1, db - 1, -1):
        top = r.pop()
        if not top:
            continue
        if alead != 1:
            g = _int_gcd(top, alead)
            f = alead // g
            if f != 1:
                r = [x * f for x in r]
                quo = [x * f for x in quo]
                k *= f
            top //= g
        m = top if lead > 0 else -top
        base = i - db
        quo[base] = m
        for j, c in terms:
            r[base + j] -= m * c
    return k, trim(quo), trim(r)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive integer gcd with positive leading coefficient, by the
    primitive pseudo-remainder sequence (Collins; Brown and Traub)."""
    a, b = to_int_poly(trim(p)), to_int_poly(trim(q))
    while b:
        a, b = b, _primitive(pseudo_divmod(a, b)[2])
    if not a:
        return ()
    return a if a[-1] > 0 else neg(a)


def _exact_div(a: Poly, b: Poly) -> Poly:
    """a / b for integer polynomials with b dividing a in Z[x]."""
    k, quo, rem = pseudo_divmod(a, b)
    if k != 1 or rem:
        raise DomainError("the divisor does not divide the polynomial")
    return quo


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors collapsed; primitive integral, sign of p kept.
    A p that is squarefree modulo a small prime is squarefree and skips the
    gcd."""
    p = to_int_poly(trim(p))
    if degree(p) <= 0 or zfactor.squarefree_mod_p(p):
        return p
    g = poly_gcd(p, derivative(p))
    if degree(g) == 0:
        return p
    # p primitive and g primitive with lc(g) > 0: by Gauss's lemma the
    # quotient is primitive integral with the sign of p
    return _exact_div(p, g)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(p: Poly) -> list:
    """Sturm chain of a squarefree p, entries primitive integral.

    Each entry after the derivative is the primitive part of minus a
    positive multiple of the previous remainder, so it is the same tuple a
    rational Euclid would give."""
    p0 = to_int_poly(p)
    chain = [p0]
    d = derivative(p0)
    if d:
        chain.append(_primitive(d))
    while len(chain[-1]) > 1:
        r = pseudo_divmod(chain[-2], chain[-1])[2]
        if not r:
            break
        chain.append(_primitive(neg(r)))
    return chain


def sign_variations(chain: Sequence[Poly], x) -> int:
    signs = [s for s in (sign_at_rational(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _chain_count(chain: list, a, b) -> int:
    """Roots in (a, b] of the squarefree polynomial whose Sturm chain this is."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def _squarefree_chain(p: Poly, a, b) -> list:
    """Sturm chain of the squarefree part of p, for a count on (a, b]."""
    if not (a < b):
        raise DomainError("need a < b")
    sf = squarefree_part(p)
    if not sf:
        raise DomainError("zero polynomial")
    return sturm_chain(sf)


def count_roots_halfopen(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in (a, b], endpoints rational.

    For a squarefree chain V(a) - V(b) counts the roots in (a, b] even when a
    or b is a root: at a root r the leading sign drops out, so V(r) equals V
    just right of r."""
    return _chain_count(_squarefree_chain(p, a, b), a, b)


def isolate_roots(p: Poly, lo, hi) -> list:
    """Disjoint rational intervals (l, h], each holding one distinct root of p,
    covering all roots in (lo, hi].  Ordered left to right."""
    lo, hi = Fraction(lo), Fraction(hi)
    ch = _squarefree_chain(p, lo, hi)
    out = []

    def split(l, h, vl, vh):
        n = vl - vh
        if n == 0:
            return
        if n == 1:
            out.append((l, h))
            return
        m = (l + h) / 2
        vm = sign_variations(ch, m)
        split(l, m, vl, vm)
        split(m, h, vm, vh)

    split(lo, hi, sign_variations(ch, lo), sign_variations(ch, hi))
    return out


def _squarefree_parts(f: Poly) -> list:
    """[(a_i, i)] with f = prod a_i^i, each a_i squarefree, primitive and
    nonconstant with positive leading coefficient, for a primitive f of
    positive degree and leading coefficient (Yun).

    Every divisor is a primitive gcd, so by Gauss's lemma every quotient is
    integral and the divisions are exact in Z[x]."""
    if zfactor.squarefree_mod_p(f):
        return [(f, 1)]
    out = []
    d = derivative(f)
    a = poly_gcd(f, d)
    b, c = _exact_div(f, a), _exact_div(d, a)
    # b is the product of the factors of multiplicity i and above
    for i in range(1, degree(f) + 1):
        d = sub(c, derivative(b))
        a = poly_gcd(b, d)
        if degree(a) > 0:
            out.append((a, i))
        b, c = _exact_div(b, a), _exact_div(d, a)
        if degree(b) == 0:
            break
    return out


def factor_int(p: Poly) -> list:
    """Irreducible factors of a nonzero integer polynomial.

    Returns [(factor, multiplicity)] with each factor a primitive integer
    tuple (ascending) with positive leading coefficient, in `_factor_order`.
    Content and overall sign are dropped.  The power of x is split off, Yun's
    algorithm gives the squarefree parts, and `zfactor` factors each part.
    """
    p = trim(int(c) for c in p)
    k = 0
    while k < len(p) and not p[k]:
        k += 1
    f = _primitive(p[k:])
    if f and f[-1] < 0:
        f = neg(f)
    out = [((0, 1), k)] if k else []
    if degree(f) > 0:
        for part, m in _squarefree_parts(f):
            out.extend((g, m) for g in zfactor.factor_squarefree(part))
    out.sort(key=_factor_order)
    return out


def _factor_order(fm) -> tuple:
    return len(fm[0]), fm[0]


def root_factors(p: Poly, lo, hi) -> list:
    """[(factor, n)] for the irreducible factors of the nonzero integer
    polynomial p that have n >= 1 distinct roots in (lo, hi], in
    `factor_int` order, with lo < hi rational.

    Only the part of p that holds those roots is factored.  The squarefree
    part sf is split as g = gcd(sf, reversed sf), which collects the
    reciprocal factors (cyclotomic, Salem) and each pair f, reversed f, and
    h = sf / g.  As sf is squarefree, g and h are coprime, so each root of
    sf is a root of exactly one of them; a part is factored only when its
    Sturm count on (lo, hi] is positive.  When g is 1 or sf, sf is factored
    whole."""
    if not (lo < hi):
        raise DomainError("need a < b")
    sf = squarefree_part(p)
    if degree(sf) < 1:
        return []
    g = poly_gcd(sf, tuple(reversed(sf)))
    if 0 < degree(g) < degree(sf):
        h = _exact_div(sf, g)
        parts = []
        for part in (g, h):
            n = _chain_count(sturm_chain(part), lo, hi)
            if n:
                parts.append((part, n))
    else:
        parts = [(sf, None)]
    out = []
    for part, n in parts:
        factors = factor_int(part)
        if len(factors) == 1 and n is not None:
            # an irreducible part: its count is its factor's
            out.append((factors[0][0], n))
            continue
        for f, _ in factors:
            m = _chain_count(sturm_chain(f), lo, hi)
            if m:
                out.append((f, m))
    out.sort(key=_factor_order)
    return out


def poly_text(p: Poly) -> str:
    """Human-readable rendering, highest degree first."""
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        a = p[i]
        if a == 0:
            continue
        mag = abs(a)
        if i == 0:
            term = f"{mag}"
        elif i == 1:
            term = "q" if mag == 1 else f"{mag}*q"
        else:
            term = f"q^{i}" if mag == 1 else f"{mag}*q^{i}"
        if not parts:
            parts.append(term if a > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if a > 0 else f"- {term}")
    return " ".join(parts)
