"""Certified discs about the conjugates of a base, and the escape test that
lets a remainder walk refuse with a proof.

A remainder r of a walk r -> q r - d, d in {0, 1}, has the image s = r(z)
under each embedding q -> z of Q(q), z a root of the minimal polynomial m.
Where |z| > 1 and |s| > 1 / (|z| - 1), |z s - d| >= |z| |s| - 1 > |s|, so
the image grows at every later step and no path from r meets a remainder
twice (the argument of Boyd, "Salem numbers of degree four have periodic
expansions", 1989).  The discs come from Durand-Kerner guesses in
fixed-point Gaussian integers and are certified exactly in integers, every
square root rounded outward; no float is used.  The walks import this
module only once they reach 64 states, so a process whose walks close
sooner never compiles it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import ceil, floor, isqrt

from .bases import _dec_str

# Bits of the fixed-point centres of the discs, which decide only how tight
# a disc is; and the highest degree of m given discs: above it the n^2 work
# of a Durand-Kerner sweep outgrows the 4,096-step walk an escape would cut
# short (at x^32 - x^2 - 1, 26 ms of sweeps against a 14 ms walk; degree 16
# gains).
DISC_BITS, DISC_MAX_DEGREE = 96, 16


# A disc: centre (x + y i) / 2^DISC_BITS, radius r / 2^DISC_BITS, modulus
# bound rho > 1, T = 1 / (rho - 1) and t >= 2^(DISC_BITS (n - 1)) T for m of
# degree n.
Disc = namedtuple("Disc", "x y r rho T t")


def _ghorner(p, x: int, y: int) -> tuple:
    """(re, im) of 2^(K deg p) p(c), c = (x + y i) / 2^K, K = DISC_BITS:
    Gaussian integers, exact."""
    hr, hi, s = p[-1], 0, 0
    for c in reversed(p[:-1]):
        s += DISC_BITS
        hr, hi = hr * x - hi * y + (c << s), hr * y + hi * x
    return hr, hi


def _root_guesses(m: tuple) -> list:
    """Guesses (x, y) at the roots (x + y i) / 2^K, K = DISC_BITS, of m: at
    most 64 Durand-Kerner sweeps in K-bit fixed point from (0.4 + 0.9 i)^k,
    updating in place, until no update exceeds 2^(-K/2).  `_disc`
    certifies what is kept."""
    K, lead = DISC_BITS, m[-1] << DISC_BITS
    z = [(1 << K, 0)]
    for _ in range(len(m) - 2):
        x, y = z[-1]
        z.append(((4 * x - 9 * y) // 10, (9 * x + 4 * y) // 10))
    for _ in range(64):
        top = 0
        for i, (x, y) in enumerate(z):
            vr, vi, dr, di = lead, 0, lead, 0
            for c in reversed(m[:-1]):
                vr, vi = (vr * x - vi * y >> K) + (c << K), vr * y + vi * x >> K
            for j, (u, v) in enumerate(z):
                if j != i:
                    u, v = x - u, y - v
                    dr, di = dr * u - di * v >> K, dr * v + di * u >> K
            # the update m(z_i) / (lead(m) prod_(j != i) (z_i - z_j))
            dd = dr * dr + di * di
            if dd:
                ur, ui = (vr * dr + vi * di << K) // dd, (vi * dr - vr * di << K) // dd
                z[i] = x - ur, y - ui
                top = max(top, ur * ur + ui * ui)
        if top < 1 << K:
            break
    return z


def _disc(m: tuple, x: int, y: int):
    """The Disc about the guess c = (x + y i) / 2^K, K = DISC_BITS, that
    holds a root of the integer polynomial m of degree n, or None unless
    its modulus bound rho = |c|_lo - R exceeds 1.  R >= n |m(c) / m'(c)|:
    m'/m = sum 1 / (z - zeta) over the roots zeta, so some |c - zeta| is
    at most that."""
    K, n = DISC_BITS, len(m) - 1
    mr, mi = _ghorner(m, x, y)
    dr, di = _ghorner([k * a for k, a in enumerate(m)][1:], x, y)
    dd = dr * dr + di * di
    if not dd:
        return None
    # R 2^K = n |2^(nK) m(c)| / |2^((n-1)K) m'(c)|
    r = isqrt(-(-n * n * (mr * mr + mi * mi) // dd)) + 1
    gap = isqrt(x * x + y * y) - r - (1 << K)  # 2^K (rho - 1)
    if gap <= 0:
        return None
    return Disc(x, y, r, 1 + Fraction(gap, 1 << K), Fraction(1 << K, gap),
                -(-(1 << K * n) // gap))


def discs(m: tuple) -> list:
    """The discs about the roots of m, every one a conjugate of q when m is
    its minimal polynomial, of modulus above 1: one per root guess
    (`_root_guesses`) that `_disc` certifies, none above DISC_MAX_DEGREE."""
    if len(m) - 1 > DISC_MAX_DEGREE:
        return []
    return [d for d in (_disc(m, *c) for c in _root_guesses(m)) if d]


def escape(certified: list, num: tuple, den: int):
    """Why r = num(q) / den escapes, in words, or None: some disc of certified
    (`discs`) whose root z takes r past its T.  The test is
    |num(c)| - (|num|(|c|_up + R) - |num|(|c|_up)) > den T, for the disc's
    centre c and radius R and |num| the polynomial of the |a_k|, which
    bounds |num(z) - num(c)|; all scaled by 2^(K (len(num) - 1)) to
    integers (`_ghorner`), compared squared."""
    mag = [abs(a) for a in num]
    for d in certified:
        u = isqrt(d.x * d.x + d.y * d.y) + 1
        gr, gi = _ghorner(num, d.x, d.y)
        b = _ghorner(mag, u + d.r, 0)[0] - _ghorner(mag, u, 0)[0] + d.t * den
        if gr * gr + gi * gi > b * b:
            return (f"a conjugate has modulus rho >= {_dec_str(d.rho, 4, floor)}, and its "
                    f"image exceeds 1 / (rho - 1), at most {_dec_str(d.T, 4, ceil)}")
    return None


def escapes(w, i: int):
    """Why no path from state i of the walk w (`bases._Walk`) meets a state
    twice, or None: the `escape` of its vector from the discs of w's field,
    made on the field's first test and kept there."""
    fld = w.fld
    if fld.discs is None:
        fld.discs = discs(fld.minpoly)
    return escape(fld.discs, *w.exact(i))
