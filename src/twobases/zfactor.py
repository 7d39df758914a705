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

Modulo a prime p, in `_usable`, `ddf` and `edf`, a polynomial is packed
into one non-negative int by `_Zp`: coefficient i, in [0, p), sits in a
slot of w bits at bit i w, so sums and products act on all coefficients
at once (Kronecker substitution), and the slots are taken mod p together
by a Barrett step.  Modulo p^(2^k), in the rarely taken Hensel lifting and
recombination, a polynomial is a list of residues ascending by degree with
no trailing zeros ([] is zero); `_kmul`, `_mul`, `_add`, `_sub`, `_divmod`
and `_xgcd` serve that path only.  Integer polynomials come in and go out
as tuples, as in `polys`.
"""

from __future__ import annotations

import random
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


def _pack(a: list, w: int) -> int:
    """The int with a[i] in the w-bit slot i, for entries in [0, 2^w)."""
    x = 0
    for c in reversed(a):
        x = x << w | c
    return x


def _unpack(x: int, w: int) -> list:
    """The slots of x, lowest first, up to the highest nonzero one."""
    mask = (1 << w) - 1
    return [x >> i & mask for i in range(0, x.bit_length(), w)]


# ---------------------------------------------------------------------------
# arithmetic over Z/p on packed polynomials


def _width(p: int, n: int) -> tuple:
    """(b, w): every slot value that `_Zp` forms for polynomials of degree
    at most n over Z/p lies below 2^b, and its slots are w = 2b bits wide.

    No slot of a sum or product ever carries into the next, since each
    value formed stays below (n + 1) p^2 < 2^b <= 2^w:
    - a product of two reduced polynomials (slots below p) with at most
      n + 1 coefficients has slot sums of at most (n + 1)(p - 1)^2;
    - the Barrett correction of `_Zp.mulmod` adds q f' to a reduced c, where
      q has at most n - 1 and f' (slots p - f_i, i < n) n coefficients, so
      it adds at most (n - 1)(p - 1) p and a slot stays below n p^2;
    - each elimination of `_Zp.divmod` adds t (p - b_i) <= (p - 1) p to a
      slot, and a division makes at most n + 1 eliminations, as its
      dividend has degree at most n or it is x^K div f (n - 1 of them), so
      a slot that starts below p stays below p + (n + 1)(p - 1) p.
    Slot reduction (`_Zp.reduce`) takes slot values v < 2^b: with
    m = floor(2^b / p), v m < 2^(2b) fits in its slot since w >= 2b, and the
    next slot's product starts w - b >= b bits above the slot's shifted
    quotient floor(v m / 2^b) < 2^b, which the mask therefore isolates; then
    v - q p lies in [0, 2p), as q > v / p - 2, and one masked subtraction of
    p leaves [0, p).  One bit less fails whenever m is odd: the low bit of
    the next slot's v m then reaches the mask.  b is computed from p at run
    time, so the bound holds for every prime `_primes` yields, inside
    PRIMES or past it."""
    b = ((n + 1) * p * p).bit_length()
    return b, 2 * b


class _Zp:
    """Packed arithmetic over Z/p for polynomials of degree at most n and
    their products: a polynomial is one int with coefficient i in slot i
    (bits i w to i w + w - 1, w from `_width`), reduced when every slot is
    in [0, p).  0 is the zero polynomial; a value has at most 2n + 1 slots."""

    def __init__(self, p: int, n: int):
        b, w = _width(p, n)
        self.p, self.b, self.w = p, b, w
        self.m = (1 << b) // p
        self.flag = p.bit_length()
        self.slot = (1 << w) - 1
        self.slots = 2 * n + 1
        ones = ((1 << self.slots * w) - 1) // self.slot
        self.ones, self.low = ones, ones * ((1 << b) - 1)
        # r + pad has bit `flag` of a slot set exactly when that slot of r,
        # below 2p, is at least p
        self.pad, self.fill = ones * ((1 << self.flag) - p), ones * p

    def deg(self, x: int) -> int:
        return (x.bit_length() - 1) // self.w

    def reduce(self, x: int) -> int:
        """x with every slot taken mod p, for slots below 2^b: a Barrett
        quotient per slot, then one masked conditional subtraction."""
        r = x - ((x * self.m >> self.b) & self.low) * self.p
        return r - ((r + self.pad) >> self.flag & self.ones) * self.p

    def _bar(self, f: int, k: int) -> int:
        """The slots p - f_i of the k lowest slots of f."""
        return (self.fill >> (self.slots - k) * self.w) - f

    def divmod(self, a: int, b: int) -> tuple:
        """Quotient and remainder of reduced a by reduced b != 0.  Each step
        cancels the top slot t' of the remainder mod p by adding t (p - b_i)
        at the right shift, t = t' / lc(b) mod p; the cancelled slots are
        multiples of p, which the final reduction clears."""
        w, p, slot = self.w, self.p, self.slot
        da, db = (a.bit_length() - 1) // w, (b.bit_length() - 1) // w
        if da < db:
            return 0, a
        inv = pow(b >> db * w, -1, p)
        bar = self._bar(b, db + 1)
        q = 0
        for at in range(da * w, db * w - 1, -w):
            t = (a >> at & slot) * inv % p
            q = q << w | t
            if t:
                a += t * bar << (at - db * w)
        return q, self.reduce(a)

    def monic(self, a: int) -> int:
        return self.reduce(a * pow(a >> self.deg(a) * self.w, -1, self.p))

    def gcd(self, a: int, b: int) -> int:
        """The monic gcd of reduced a != 0 and b; 1 when they are coprime.
        Each remainder lowers the degree of b, so deg b steps leave b
        constant."""
        for _ in range(self.deg(b)):
            if b <= self.slot:
                break
            a, b = b, self.divmod(a, b)[1]
        return 1 if b else self.monic(a)

    def modulus(self, f: int) -> tuple:
        """Barrett data for products modulo a monic f of degree n >= 1:
        mu = x^K div f with K = max(2n - 2, n), and the slots p - f_i."""
        w = self.w
        n = self.deg(f)
        k = max(2 * n - 2, n)
        return (n * w, (k - n) * w, self.divmod(1 << k * w, f)[0],
                self._bar(f - (1 << n * w), n), (1 << n * w) - 1)

    def mulmod(self, a: int, b: int, mod: tuple) -> int:
        """a b mod f, for a and b reduced of degree below n = deg f.  The
        product c has degree at most K, so its quotient by f is exactly
        ((c div x^n) mu) div x^(K - n), and c - q f has degree below n."""
        nw, kw, mu, bar, mask = mod
        c = self.reduce(a * b)
        q = self.reduce((c >> nw) * mu >> kw)
        return self.reduce(c + q * bar & mask)

    def powmod(self, a: int, e: int, mod: tuple) -> int:
        """a^e mod f for e >= 1 and a reduced of degree below deg f."""
        out = a
        for bit in bin(e)[3:]:
            out = self.mulmod(out, out, mod)
            if bit == "1":
                out = self.mulmod(out, a, mod)
        return out


# ---------------------------------------------------------------------------
# arithmetic over Z/m on lists, for Hensel lifting


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _kmul(a: list, b: list, m: int) -> list:
    """Unreduced product of a and b, entries in [0, m), by Kronecker
    substitution, with slots wide enough for any coefficient of it."""
    if not a or not b:
        return []
    w = (min(len(a), len(b)) * (m - 1) ** 2).bit_length()
    return _unpack(_pack(a, w) * _pack(b, w), w)


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
    n = len(f) - 1
    zp = _Zp(p, n)
    w = zp.w
    rest = _pack(f, w)
    mod = zp.modulus(rest)
    h, out = 1 << w, []
    for i in range(1, n // 2 + 1):
        if 2 * i > n:
            break
        h = zp.powmod(h, p, mod)
        # h - x, taking 1 from slot 1 mod p
        g = zp.gcd(rest, h - (1 << w) if h >> w & zp.slot else h + ((p - 1) << w))
        if g != 1:
            out.append((i, _unpack(g, w)))
            rest = zp.divmod(rest, g)[0]
            n = zp.deg(rest)
            if not n:
                return out
            mod = zp.modulus(rest)
            h = zp.divmod(h, rest)[1]
    out.append((n, _unpack(rest, w)))
    return out


def edf(g: list, d: int, p: int, rng: random.Random) -> list:
    """The monic irreducible factors, all of degree d, of a monic squarefree
    g over Z/p with p odd (Cantor and Zassenhaus): for a random a, the gcd
    of g and a^((p^d - 1)/2) - 1 splits g with probability about 1/2."""
    n = len(g) - 1
    if n == d:
        return [g]
    zp = _Zp(p, n)
    w = zp.w
    gp = _pack(g, w)
    mod = zp.modulus(gp)
    e = (p ** d - 1) // 2
    for _ in range(_EDF_TRIES):
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = zp.powmod(_pack(a, w), e, mod)
        # b - 1, taking 1 from slot 0 mod p
        c = zp.gcd(gp, b - 1 if b & zp.slot else b + p - 1)
        if 0 < zp.deg(c) < n:
            return (edf(_unpack(c, w), d, p, rng)
                    + edf(_unpack(zp.divmod(gp, c)[0], w), d, p, rng))
    raise ArithmeticError("no equal-degree split found")


def _usable(f: tuple, p: int):
    """f mod p made monic, or None when p divides the leading coefficient
    or f mod p is not squarefree."""
    if f[-1] % p == 0:
        return None
    inv = pow(f[-1], -1, p)
    fp = [c * inv % p for c in f]
    zp = _Zp(p, len(fp) - 1)
    deriv = [i * c % p for i, c in enumerate(fp) if i]
    return fp if zp.gcd(_pack(fp, zp.w), _pack(deriv, zp.w)) == 1 else None


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
