"""Factoring over Z without sympy: `polys.factor_int` and the mod-p degree
certificate of `zfactor`, against sympy's factor_list as the oracle."""

import random

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twobases import polys, zfactor

X = sympy.Symbol("x")

CYCLOTOMIC = ((-1, 1), (1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 1), (1, 0, 0, 0, 1),
              (1, 1, 1, 1, 1), (1, -1, 0, 1, 0, -1, 1))
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
# Swinnerton-Dyer S_3, the minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5:
# irreducible, yet of factors of degree at most 2 modulo every prime, so
# only the recombination can tell
SD3 = (576, 0, -960, 0, 352, 0, -40, 0, 1)
NON_RECIPROCAL = ((-1, -1, 1), (-1, 1, -2, 1), (-2, 0, 1), (-3, 2), (-1, -1, -2, 0, 1),
                  (5, 0, 0, 0, 0, 0, 0, 1), (-7, 3, 0, 2))
SMALL = st.lists(st.integers(-9, 9), min_size=2, max_size=7).map(polys.trim).filter(
    lambda f: polys.degree(f) >= 1)
LEADING = st.lists(st.integers(-20, 20), min_size=1, max_size=6).flatmap(
    lambda c: st.sampled_from((2, 3, -5, 6, 35)).map(lambda lc: polys.trim(c + [lc])))
FACTOR = st.one_of(st.sampled_from(CYCLOTOMIC + NON_RECIPROCAL + (LEHMER, SD3, (0, 1))),
                   SMALL, LEADING)
ORACLE = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def sympy_factors(p):
    """Oracle: sympy's factor_list in factor_int's form."""
    _, fl = sympy.Poly(list(reversed(p)), X).factor_list()
    out = []
    for f, m in fl:
        c = [int(a) for a in reversed(f.all_coeffs())]
        out.append((tuple(c) if c[-1] > 0 else tuple(-a for a in c), m))
    return sorted(out, key=polys._factor_order)


@st.composite
def planted(draw):
    """A product of planted factors, some repeated, some with their
    reversal, times a content of either sign."""
    p = (draw(st.sampled_from((1, -1, 3, -2, 12))),)
    for f, e in draw(st.lists(st.tuples(FACTOR, st.integers(1, 3)), min_size=1, max_size=4)):
        for _ in range(e):
            p = polys.mul(p, f)
        if draw(st.booleans()):
            p = polys.mul(p, polys.trim(reversed(f)))
    return p


@ORACLE
@given(planted())
@example(SD3)
@example(polys.mul(SD3, (-2, 0, 1)))
@example(polys.mul(polys.mul(LEHMER, LEHMER), (0, 0, 1)))
@example(polys.neg(polys.mul((-1, -1, 1), (1, -1, -1))))
@example((-1,) + (0,) * 59 + (1,))
def test_factor_int_matches_sympy(p):
    assert polys.factor_int(p) == sympy_factors(p)


def test_factor_int_of_constants_and_powers_of_x():
    assert polys.factor_int((7,)) == sympy_factors((7,)) == []
    assert polys.factor_int((0, 0, -3)) == [((0, 1), 2)]


def test_factor_int_when_every_listed_prime_divides_the_leading_coefficient():
    lc = 1
    for p in zfactor.PRIMES:
        lc *= p
    f = polys.mul((-1, lc), (-2, 0, 1))
    assert polys.factor_int(f) == sympy_factors(f)


Q_S_POLY = (-1, -1, -2, 0, 1)
Q_F_POLY = (-1, 1, -2, 1)


@ORACLE
@given(st.lists(FACTOR, min_size=2, max_size=4))
@example([(-1, 1), Q_F_POLY])
@example([(1, 1), Q_F_POLY])
@example([(-1, 1), Q_S_POLY])
@example([(1, 1), Q_S_POLY])
def test_degree_certificate_never_accepts_a_product(fs):
    """Every degree of a factor over Z survives the mod-p analysis, so a
    product of two or more factors is never declared irreducible.  The
    examples are (x -+ 1) g with unit ends, whose linear factor only the
    test of f(1) and f(-1) keeps allowed."""
    f = (1,)
    for g in fs:
        f = polys.mul(f, g)
    f = polys.squarefree_part(f)
    while not f[0]:
        f = f[1:]
    f = f if f[-1] > 0 else polys.neg(f)
    factors = sympy_factors(f)
    if polys.degree(f) < 2:
        return
    allowed, _ = zfactor.degree_analysis(f)
    for g, _ in factors:
        assert allowed >> polys.degree(g) & 1
    if allowed == 1 | 1 << polys.degree(f):
        assert len(factors) == 1


def test_degree_analysis_refuses_a_repeated_factor():
    with pytest.raises(ValueError):
        zfactor.degree_analysis(polys.mul((-1, -1, 1), (-1, -1, 1)))


@st.composite
def squarefree_mod_p(draw):
    """(f, p): a random monic f over Z/p, p in PRIMES[:6], squarefree mod p."""
    p = draw(st.sampled_from(zfactor.PRIMES[:6]))
    n = draw(st.integers(1, 24))
    f = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
    fp = zfactor._usable(tuple(f), p)
    assume(fp is not None)
    return fp, p


@ORACLE
@given(squarefree_mod_p())
def test_ddf_degrees_match_sympy(fp):
    f, p = fp
    parts = zfactor.ddf(f, p)
    assert [d for d, _ in parts] == sorted({d for d, _ in parts})
    got = sorted(d for d, g in parts for _ in range((len(g) - 1) // d))
    _, fl = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    assert got == sorted(g.degree() for g, m in fl for _ in range(m))
    prod = [1]
    for _, g in parts:
        prod = zfactor._mul(prod, g, p)
    assert prod == f


def _primes_to_certify(monkeypatch, f):
    """How many primes the degree analysis takes to prove f irreducible."""
    calls, real = [], zfactor.ddf

    def counted(fp, p):
        calls.append(p)
        return real(fp, p)
    monkeypatch.setattr(zfactor, "ddf", counted)
    allowed, _ = zfactor.degree_analysis(f)
    assert allowed == 1 | 1 << polys.degree(f)
    return len(calls)


def test_ladder_minimal_polynomials_need_few_primes(monkeypatch):
    """q_5 and q_6 have unit ends and no root at +-1, so no linear factor
    is possible; without that test q_6 takes 7 primes instead of 3."""
    from twobases.enum_b2 import GEN0, qn_ladder

    ladder = qn_ladder(GEN0, 6)
    q5, q6 = ladder[4].base.minpoly(), ladder[5].base.minpoly()
    assert polys.degree(q6) == 33
    assert _primes_to_certify(monkeypatch, q6) <= 3
    assert _primes_to_certify(monkeypatch, q5) <= 2
    # q_f's cubic needs no prime at all
    assert _primes_to_certify(monkeypatch, Q_F_POLY) == 0


# ---------------------------------------------------------------------------
# the packed arithmetic mod p against schoolbook lists over Z/p, the slow
# oracle: residues ascending by degree, no trailing zeros, [] is zero

KERNEL_PRIMES = zfactor.PRIMES + (101, 1009, 65521, 2 ** 31 - 1)
KERNEL = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _strip(a):
    while a and not a[-1]:
        a.pop()
    return a


def school_mul(a, b, p):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _strip(out)


def school_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _strip([(x - y) % p for x, y in zip(a, b)])


def school_divmod(a, b, p):
    """Long division by b != 0, one coefficient at a time."""
    r, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = q[i - db] = r[i] * inv % p
        for j in range(db + 1):
            r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return _strip(q), _strip(r[:db])


def school_gcd(a, b, p):
    while b:
        a, b = b, school_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p) if a else 0
    return [c * inv % p for c in a]


def school_powmod(a, e, f, p):
    out = [1]
    for bit in bin(e)[2:]:
        out = school_divmod(school_mul(out, out, p), f, p)[1]
        if bit == "1":
            out = school_divmod(school_mul(out, a, p), f, p)[1]
    return out


def school_ddf(f, p):
    """`zfactor.ddf`'s algorithm on lists."""
    out, rest, h, i = [], f, [0, 1], 0
    while 2 * (i + 1) <= len(rest) - 1:
        i += 1
        h = school_powmod(h, p, rest, p)
        g = school_gcd(rest, school_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((i, g))
            rest = school_divmod(rest, g, p)[0]
            if len(rest) == 1:
                return out
            h = school_divmod(h, rest, p)[1]
    out.append((len(rest) - 1, rest))
    return out


def school_edf(g, d, p, rng):
    """`zfactor.edf`'s algorithm on lists, drawing the same random a."""
    n = len(g) - 1
    if n == d:
        return [g]
    for _ in range(zfactor._EDF_TRIES):
        a = _strip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = school_sub(school_powmod(a, (p ** d - 1) // 2, g, p), [1], p)
        c = school_gcd(g, b, p)
        if 1 < len(c) < len(g):
            return (school_edf(c, d, p, rng)
                    + school_edf(school_divmod(g, c, p)[0], d, p, rng))
    raise ArithmeticError("no equal-degree split found")


@st.composite
def kernel_cases(draw):
    """(p, a, b, f, e): a and b of degree at most n <= 80 and f monic of
    degree max(n, 1) over Z/p."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    n = draw(st.integers(0, 80))
    coeffs = st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1)
    a, b = _strip(draw(coeffs)), _strip(draw(coeffs))
    f = draw(st.lists(st.integers(0, p - 1), min_size=max(n, 1), max_size=max(n, 1)))
    return p, a, b, f + [1], draw(st.integers(1, 5000))


def _full(p):
    """Every coefficient p - 1 at degree 80, f monic: the largest slot sums
    the kernel forms."""
    return p, [p - 1] * 81, [p - 1] * 81, [p - 1] * 80 + [1], p - 1


def _check_kernel(p, a, b, f, e):
    zp = zfactor._Zp(p, len(f) - 1)
    w = zp.w
    A, B, F = (zfactor._pack(x, w) for x in (a, b, f))
    if b:
        q, r = zp.divmod(A, B)
        assert [zfactor._unpack(q, w), zfactor._unpack(r, w)] == list(school_divmod(a, b, p))
    if a:
        assert zfactor._unpack(zp.gcd(A, B), w) == school_gcd(a, b, p)
    ar, br = school_divmod(a, f, p)[1], school_divmod(b, f, p)[1]
    mod = zp.modulus(F)
    AR, BR = zfactor._pack(ar, w), zfactor._pack(br, w)
    assert zfactor._unpack(zp.mulmod(AR, BR, mod), w) == school_divmod(
        school_mul(ar, br, p), f, p)[1]
    assert zfactor._unpack(zp.powmod(AR, e, mod), w) == school_powmod(ar, e, f, p)


@KERNEL
@given(kernel_cases())
@example(_full(97))
@example(_full(3))
@example(_full(2 ** 31 - 1))
def test_packed_arithmetic_matches_schoolbook(case):
    _check_kernel(*case)


@st.composite
def ddf_cases(draw):
    """(f, p, seed): f monic squarefree over Z/p; the degree cap keeps the
    schoolbook Frobenius powers affordable at the large primes."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    n = draw(st.integers(1, 80 if p <= 101 else 40 if p < 2 ** 16 else 16))
    f = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)) + [1]
    deriv = _strip([i * c % p for i, c in enumerate(f)][1:])
    assume(school_gcd(f, deriv, p) == [1])
    return f, p, draw(st.integers(0, 2 ** 32))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ddf_cases())
@example(([96] * 80 + [1], 97, 0))
def test_ddf_and_edf_match_schoolbook(case):
    """edf is compared on the parts whose split exponent (p^d - 1)/2 has at
    most 160 bits, which bounds the schoolbook powers."""
    f, p, seed = case
    parts = zfactor.ddf(f, p)
    assert parts == school_ddf(f, p)
    for d, g in parts:
        if d * p.bit_length() <= 160:
            got = zfactor.edf(g, d, p, random.Random(seed))
            assert got == school_edf(g, d, p, random.Random(seed))


def test_one_bit_narrower_slots_break_the_packed_arithmetic(monkeypatch):
    """The slot width w = 2b of `zfactor._width` is tight whenever the
    Barrett multiplier m = floor(2^b / p) is odd: with one bit less, the low
    bit of the next slot's product v m lands in the quotient's field.  (With
    m even that bit is always 0, and 2b - 1 bits happen to suffice.)"""
    real = zfactor._width
    monkeypatch.setattr(zfactor, "_width", lambda p, n: (real(p, n)[0], real(p, n)[1] - 1))
    odd = [p for p in KERNEL_PRIMES if (1 << real(p, 80)[0]) // p % 2]
    assert 3 in odd and 101 in odd
    for p in odd:
        with pytest.raises((AssertionError, ValueError)):
            _check_kernel(*_full(p))
    with pytest.raises(AssertionError):
        test_packed_arithmetic_matches_schoolbook()
