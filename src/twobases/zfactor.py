"""Factoring squarefree integer polynomials: degree analysis modulo small
primes, then Zassenhaus.

`factor_squarefree` takes a primitive squarefree integer polynomial with
positive leading coefficient and no root at zero.  When f is monic with
f(0) = +-1, its only possible rational roots are +-1; if neither is a root,
f has no factor of degree 1 or n - 1.  For each small prime p that divides
neither the leading coefficient nor the discriminant (p is *usable*), the
distinct-degree factorisation of f mod p, one gcd per Frobenius step, gives
the degrees of its irreducible factors mod p.  An integer factor of f has a
degree that is a sum of some of those degrees, for every usable p (Musser,
"On the efficiency of a polynomial irreducibility test", J. ACM 1978).
When no proper degree is left allowed, f is irreducible and no further work
is done.

Otherwise the usable prime with the fewest factors is taken: its factors are
split by equal degree (Cantor and Zassenhaus), lifted to p^(2^k) by
quadratic Hensel steps along a factor tree, and recombined by Zassenhaus's
subset search, trying only subsets whose degree sum survived every prime
(von zur Gathen and Gerhard, Modern Computer Algebra, algorithms 14.8, 14.20,
15.10, 15.17 and 15.19).

Here a polynomial over Z/m is a list of residues in [0, m), ascending by
degree, with no trailing zeros; [] is zero.  Integer polynomials come in and
go out as tuples, as in `polys`.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import combinations
from math import gcd, isqrt

# The primes tried by the degree analysis, and how many usable ones it tries
# before it falls back on Zassenhaus.  2 is left out: equal-degree splitting
# below needs an odd p.
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97)
PRIME_BUDGET = 8

# Random trials of an equal-degree split before giving up; each trial
# splits a product of two or more factors with probability at least 1/2.
_EDF_TRIES = 200

_ORDER = sys.byteorder
# the narrowest unsigned array type with at least w bytes, for w = 1..8
_TYPECODES = [None] + [min((c for c in "BHILQ" if array(c).itemsize >= w),
                           key=lambda c: array(c).itemsize) for w in range(1, 9)]


# ---------------------------------------------------------------------------
# arithmetic over Z/m


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _kmul(a: list, b: list, m: int) -> list:
    """Unreduced product of a and b, entries in [0, m), by Kronecker
    substitution: each list is packed into one integer with slots wide
    enough for any coefficient of the product, the two integers are
    multiplied, and the product is unpacked."""
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    w = ((min(len(a), len(b)) * (m - 1) ** 2).bit_length() + 7) // 8
    if w <= 8:
        code = _TYPECODES[w]
        x = (int.from_bytes(array(code, a).tobytes(), _ORDER)
             * int.from_bytes(array(code, b).tobytes(), _ORDER))
        out = array(code)
        out.frombytes(x.to_bytes(out.itemsize * n, _ORDER))
        return out.tolist()
    x = (int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
         * int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b), "little"))
    raw = x.to_bytes(w * n, "little")
    return [int.from_bytes(raw[i:i + w], "little") for i in range(0, w * n, w)]


def _mul(a: list, b: list, m: int) -> list:
    return _trim([c % m for c in _kmul(a, b, m)])


def _add(a: list, b: list, m: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + y) % m for x, y in zip(a, b)] + a[len(b):])


def _sub(a: list, b: list, m: int) -> list:
    return _add(a, [-c % m for c in b], m)


def _divmod(a: list, b: list, m: int) -> tuple:
    """Quotient and remainder of a by b, whose leading coefficient is a
    unit mod m."""
    db = len(b) - 1
    if len(a) <= db:
        return [], a[:]
    inv = pow(b[-1], -1, m)
    low = b[:-1]
    r = a[:]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i] * inv % m
        if c:
            q[i - db] = c
            r[i - db:i] = [u - c * v for u, v in zip(r[i - db:i], low)]
    return _trim(q), _trim([u % m for u in r[:db]])


def _monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: list, b: list, p: int) -> list:
    """Monic gcd over the field Z/p; gcd(0, 0) = 0."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else []


def _xgcd(a: list, b: list, p: int) -> tuple:
    """(s, t) with s a + t b = 1 over Z/p, deg s < deg b and deg t < deg a,
    for coprime a and b of positive degree."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _minus_x(h: list, p: int) -> list:
    h = h + [0] * (2 - len(h))
    h[1] = (h[1] - 1) % p
    return _trim(h)


class _Modulus:
    """Products modulo a fixed monic f of degree n >= 1 over Z/p.  A
    product of degree below 2n is reduced by two more Kronecker products
    with the precomputed inverse of reversed f (Barrett's method for
    polynomials)."""

    def __init__(self, f: list, p: int):
        self.f, self.p, self.n = f, p, len(f) - 1
        self.low = f[:-1]
        # inverse of reversed f modulo x^n by Newton iteration; its constant
        # term is 1 as f is monic
        rev = f[::-1]
        inv, k = [1], 1
        while k < self.n:
            k = min(2 * k, self.n)
            e = [c % p for c in _kmul(rev[:k], inv, p)[:k]]
            e[0] = (e[0] - 1) % p
            d = _kmul(inv, _trim(e), p)[:k]
            d += [0] * (k - len(d))
            inv = [(u - v) % p for u, v in zip(inv + [0] * (k - len(inv)), d)]
        self.inv = inv

    def reduce(self, c: list) -> list:
        """c mod f, for c of degree below 2n with entries in [0, p)."""
        n, p = self.n, self.p
        k = len(c) - n
        if k <= 0:
            return c
        q = [x % p for x in _kmul(c[:n - 1:-1], self.inv[:k], p)[:k]]
        q.reverse()
        return _trim([(x - y) % p for x, y in zip(c[:n], _kmul(q, self.low, p))])

    def mulmod(self, a: list, b: list) -> list:
        p = self.p
        return self.reduce(_trim([c % p for c in _kmul(a, b, p)]))

    def powmod(self, a: list, e: int) -> list:
        """a^e mod f for e >= 1 and a reduced mod f."""
        out = a
        for bit in bin(e)[3:]:
            out = self.mulmod(out, out)
            if bit == "1":
                out = self.mulmod(out, a)
        return out


def _rem(a: list, f: list, p: int) -> list:
    return _divmod(a, f, p)[1]


def _div(a: list, b: list, p: int) -> list:
    return _divmod(a, b, p)[0]


# ---------------------------------------------------------------------------
# factoring over Z/p


def ddf(f: list, p: int) -> list:
    """Distinct-degree factorisation of a monic squarefree f over Z/p:
    [(d, g_d)] in increasing d, where g_d != 1 is the product of the
    irreducible factors of f of degree d.

    h_i = x^(p^i) mod rest, where rest is f with the factors of degree
    below i divided out, and x^(p^i) - x is the product of the monic
    irreducibles of degree dividing i; so g_i = gcd(rest, h_i - x), one gcd
    per Frobenius step.  Once 2i exceeds the degree of rest, it is
    irreducible."""
    out = []
    mod = _Modulus(f, p)
    h = mod.reduce([0, 1])
    i = 0
    while 2 * (i + 1) <= mod.n:
        i += 1
        h = mod.powmod(h, p)
        g = _gcd(mod.f, _minus_x(h, p), p)
        if len(g) > 1:
            out.append((i, g))
            rest = _div(mod.f, g, p)
            if len(rest) == 1:
                return out
            mod = _Modulus(rest, p)
            h = _rem(h, rest, p)
    out.append((mod.n, mod.f))
    return out


def edf(g: list, d: int, p: int, rng: random.Random) -> list:
    """The monic irreducible factors, all of degree d, of a monic squarefree
    g over Z/p with p odd (Cantor and Zassenhaus): for a random a, the gcd
    of g and a^((p^d - 1)/2) - 1 splits g with probability about 1/2."""
    n = len(g) - 1
    if n == d:
        return [g]
    mod = _Modulus(g, p)
    e = (p ** d - 1) // 2
    for _ in range(_EDF_TRIES):
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = list(mod.powmod(a, e)) or [0]
        b[0] = (b[0] - 1) % p
        c = _gcd(g, _trim(b), p)
        if 1 < len(c) < len(g):
            return edf(c, d, p, rng) + edf(_div(g, c, p), d, p, rng)
    raise ArithmeticError("no equal-degree split found")


def _usable(f: tuple, p: int):
    """f mod p made monic, or None when p divides the leading coefficient
    or f mod p is not squarefree."""
    if f[-1] % p == 0:
        return None
    fp = _monic([c % p for c in f], p)
    deriv = _trim([i * c % p for i, c in enumerate(fp) if i])
    return fp if len(_gcd(fp, deriv, p)) == 1 else None


def squarefree_mod_p(f: tuple) -> bool:
    """True when f mod p is squarefree for one of the first PRIME_BUDGET
    primes not dividing lc(f); f is then squarefree over Q, as a repeated
    factor over Z stays repeated mod p.  False proves nothing."""
    tried = 0
    for p in PRIMES:
        if f[-1] % p == 0:
            continue
        if _usable(f, p) is not None:
            return True
        tried += 1
        if tried == PRIME_BUDGET:
            break
    return False


def _primes():
    """PRIMES, then the odd primes beyond them, by trial division."""
    yield from PRIMES
    p = PRIMES[-1]
    while True:
        p += 2
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p


def degree_analysis(f: tuple) -> tuple:
    """(allowed, best) for a squarefree f of degree n >= 2.

    Bit d of allowed is set when d is a subset sum of the factor degrees of
    f mod p for every usable prime p tried, so the degree of every factor
    of f over Z is in it.  The first PRIME_BUDGET usable primes of PRIMES
    are tried, stopping once only 0 and n are left (f is then irreducible);
    past PRIMES, primes are tried only until one is usable.  best is
    (p, ddf) for the usable prime with the fewest factors, or None when no
    prime was needed.

    When lc(f) = 1 and |f(0)| = 1, a linear factor of f over Z is x - 1 or
    x + 1 (the rational-root theorem), so f(1) != 0 and f(-1) != 0 rule out
    degrees 1 and n - 1 before any prime is tried.  That alone proves f
    irreducible at n <= 3; f is squarefree then too, since a repeated factor
    of degree n <= 3 is linear.

    An unusable prime divides the resultant of f and f', whose size is at
    most n^n ||f||_2^(2n), so more unusable primes than its bit length
    show that f is not squarefree; ValueError is raised then."""
    n = len(f) - 1
    full = 1 | 1 << n
    allowed = (1 << (n + 1)) - 1
    # f(1) = sum(f) and f(-1) = sum(f[::2]) - sum(f[1::2])
    if f[-1] == 1 and abs(f[0]) == 1 and sum(f) and sum(f[::2]) != sum(f[1::2]):
        allowed &= ~(1 << 1 | 1 << (n - 1))
    unusable = (n ** n * sum(c * c for c in f) ** n).bit_length()
    best, fewest, used = None, n + 1, 0
    for p in _primes():
        if (allowed == full or used == PRIME_BUDGET
                or (best is not None and p > PRIMES[-1])):
            break
        fp = _usable(f, p)
        if fp is None:
            unusable -= 1
            if unusable < 0:
                raise ValueError("the polynomial is not squarefree")
            continue
        used += 1
        parts = ddf(fp, p)
        sums, count = 1, 0
        for d, g in parts:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
                count += 1
        allowed &= sums
        if count < fewest:
            best, fewest = (p, parts), count
    return allowed, best


# ---------------------------------------------------------------------------
# Hensel lifting and recombination


def _hensel_step(m: int, f: list, g: list, h: list, s: list, t: list) -> tuple:
    """From f = g h and s g + t h = 1 mod m, with h monic, deg s < deg h and
    deg t < deg g, the same relations mod m^2 (algorithm 15.10)."""
    mm = m * m
    e = _sub([c % mm for c in f], _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    s = _sub(s, d, mm)
    t = _sub(t, _add(_mul(t, b, mm), _mul(c, g, mm), mm), mm)
    return g, h, s, t


def _lift(f: list, facs: list, p: int, big: int) -> list:
    """Monic u_i mod big = p^(2^k) with f = lc(f) prod u_i mod big and
    u_i = facs[i] mod p, for f = lc(f) prod facs mod p with the facs monic
    and pairwise coprime mod p (algorithm 15.17, on a balanced tree)."""
    if len(facs) == 1:
        inv = pow(f[-1], -1, big)
        return [[c * inv % big for c in f]]
    k = len(facs) // 2
    g = [f[-1] % p]
    for u in facs[:k]:
        g = _mul(g, u, p)
    h = [1]
    for u in facs[k:]:
        h = _mul(h, u, p)
    s, t = _xgcd(g, h, p)
    m = p
    while m < big:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return _lift(g, facs[:k], p, big) + _lift(h, facs[k:], p, big)


def _quotient(f: tuple, g: tuple, bound: int):
    """f / g when the integer polynomial g divides f in Z[x], else None;
    None as well once a quotient coefficient exceeds bound in size."""
    dg, lc = len(g) - 1, g[-1]
    low = g[:-1]
    r = list(f)
    q = [0] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c, rem = divmod(r[i], lc)
        if rem or abs(c) > bound:
            return None
        if c:
            q[i - dg] = c
            r[i - dg:i] = [u - c * v for u, v in zip(r[i - dg:i], low)]
    return None if any(r[:dg]) else tuple(q)


def _recombine(f: tuple, us: list, big: int, bound: int, allowed: int) -> list:
    """The irreducible factors of f over Z from the monic lifted factors us
    of f mod big (Zassenhaus; algorithm 15.19, steps 7 to 10).

    Subsets S of the factors are tried by increasing size.  With b the
    leading coefficient of what is left of f, the candidate is the
    primitive part of g = b prod_S u in symmetric residues; it is kept when
    it divides f in Z[x].  A factor of f, times b, has coefficients of size
    at most bound < big / 2, so every factor shows up as the candidate of
    its own subset, and a kept candidate is irreducible because its proper
    subsets were tried first.  A subset is tried only when its degree sum
    is allowed and the constant term of g divides b f(0); g is dropped when
    a coefficient exceeds bound, and so is a division whose quotient does."""
    half = big // 2
    rest, found, s = list(range(len(us))), [], 1
    while 2 * s <= len(rest):
        b = f[-1]
        for sub in combinations(rest, s):
            if not allowed >> sum(len(us[i]) - 1 for i in sub) & 1:
                continue
            c0 = b
            for i in sub:
                c0 = c0 * us[i][0] % big
            c0 = c0 - big if c0 > half else c0
            if not c0 or (b * f[0]) % c0:
                continue
            g = [b]
            for i in sub:
                g = _mul(g, us[i], big)
            g = [c - big if c > half else c for c in g]
            if max(map(abs, g)) > bound:
                continue
            c = gcd(*g)
            g = tuple(x // c for x in g)
            q = _quotient(f, g, bound)
            if q is not None:
                found.append(g)
                f = q
                rest = [i for i in rest if i not in sub]
                break
        else:
            s += 1
    found.append(f)
    return found


def factor_squarefree(f: tuple) -> list:
    """The irreducible factors over Z, primitive with positive leading
    coefficients, of a primitive squarefree integer polynomial f with
    positive leading coefficient and f(0) != 0."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    allowed, best = degree_analysis(f)
    if allowed == 1 | 1 << n:
        return [f]
    p, parts = best
    rng = random.Random(p)
    facs = [u for d, g in parts for u in edf(g, d, p, rng)]
    # any factor g of f, times b = lc(f), has coefficients below
    # b 2^n ||f||_2 (Mignotte); lift past twice that
    bound = (f[-1] << n) * (isqrt(sum(c * c for c in f)) + 1)
    big = p
    while big <= 2 * bound:
        big *= big
    return _recombine(f, _lift(list(f), facs, p, big), big, bound, allowed)
