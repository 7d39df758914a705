"""Factoring over Z without sympy: `polys.factor_int` and the mod-p degree
certificate of `zfactor`, against sympy's factor_list as the oracle."""

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
