"""Algebraic bases: exact comparison, number-field arithmetic, quasi-greedy
and greedy expansions, admissibility, base reconstruction."""

import functools
import itertools
import random
import types
from fractions import Fraction
from math import floor, gcd, isqrt

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twobases import bases, conjugates, polys
from twobases.bases import (
    AlgBase, alpha_digits, beta_digits, alpha_epseq, parry_check,
    base_from_alpha, cmp_seq_alpha, real_roots,
)
from twobases.b2core import f_minpoly, sign_at, solve_qcd
from twobases.classify import CountResult, count_expansions
from twobases.errors import DomainError, UnsupportedBaseError
from twobases.words import EPSeq, from_word, lex_cmp, parse_epseq, shift, thue_morse, word_dec
from test_polys import divmod_exact, interval_eval

PHI = AlgBase.from_poly((-1, -1, 1), Fraction(3, 2), Fraction(17, 10))
Q_S = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
Q_F = AlgBase.from_poly((-1, 1, -2, 1), Fraction(17, 10), Fraction(9, 5))


def test_constructors_validate():
    with pytest.raises(DomainError):
        AlgBase.from_rational(Fraction(5, 2))
    assert AlgBase.from_poly((-1, -1, 1), 1, 2).same_value(PHI)
    with pytest.raises(DomainError):
        AlgBase.from_poly((-2, 0, 1), Fraction(3, 2), Fraction(8, 5))
    with pytest.raises(DomainError):
        AlgBase.from_poly((-1, -1, 1), Fraction(100, 99), Fraction(3, 2))


def test_decimal_frozen_constants():
    assert PHI.decimal(10) == "1.6180339887"
    assert Q_S.decimal(10) == "1.7106440950"
    assert Q_F.decimal(10) == "1.7548776662"
    assert AlgBase.from_rational(2).decimal(4) == "2.0000"


def test_cmp_and_cmp_rational():
    assert PHI.cmp(Q_S) < 0 < Q_F.cmp(Q_S)
    assert PHI.cmp(PHI) == 0
    other_phi = AlgBase.from_poly((-1, -1, 1), Fraction(8, 5), Fraction(5, 3))
    assert PHI.cmp(other_phi) == 0 and PHI.same_value(other_phi)
    assert PHI.cmp_rational(Fraction(8, 5)) > 0
    assert PHI.cmp_rational(Fraction(13, 8)) < 0
    assert AlgBase.from_rational(2).cmp_rational(2) == 0


def test_cmp_decides_equality_without_factoring(monkeypatch):
    from twobases.dimension import overapprox_pool
    from twobases.enum_b2 import GEN0, qn_ladder

    def no_factoring(p):
        raise AssertionError("cmp factored a polynomial")

    monkeypatch.setattr(polys, "factor_int", no_factoring)
    cubic = (-1, 1, -2, 1)
    # q_f from its cubic, from its quasi-greedy expansion (1100)^inf, and
    # from the cubic times (x + 1)(x^2 + 1), each in a fresh bracket
    copies = [AlgBase.from_poly(cubic, Fraction(7, 4), Fraction(9, 5)),
              base_from_alpha(EPSeq("", "1100")),
              AlgBase.from_poly(polys.mul(cubic, polys.mul((1, 1), (1, 0, 1))),
                                Fraction(17, 10), Fraction(2))]
    for a in copies:
        for b in copies:
            assert a.cmp(b) == 0
    # q_5 and q_6 agree to 10^-5 and their degree-32 and degree-64
    # polynomials share no root there
    ladder = qn_ladder(GEN0, 6)
    q5, q6 = ladder[4].base, ladder[5].base
    assert q5.cmp(q6) == -1 and q6.cmp(q5) == 1
    pool = overapprox_pool()
    assert all(a.cmp(b) < 0 for a, b in zip(pool, pool[1:]))
    assert sum(b.cmp(q6) == 0 for b in pool) == 1


def gcd_root_in(p, F, lo, hi) -> bool:
    """Oracle zero test, apart from `AlgBase.is_root_of`: does gcd(p, F)
    have a root in (lo, hi]?  By the gcd and a Sturm count."""
    if not lo < hi:
        return False
    g = polys.poly_gcd(p, F)
    return polys.degree(g) >= 1 and polys.count_roots_halfopen(g, lo, hi) > 0


def gcd_cmp(a, b) -> int:
    """Oracle for `AlgBase.cmp` on irrational bases, by the route it took
    before: equal exactly when gcd(a.poly, b.poly) has a root in the
    overlap of their brackets (`gcd_root_in`), else the order of the two
    brackets, bisected in Fractions (`_fraction_bisection`) until apart.
    A root lies inside its bracket, so an upper end at or below the other
    lower end orders the two."""
    (alo, ahi), (blo, bhi) = a.bracket(), b.bracket()
    if gcd_root_in(a.poly, b.poly, max(alo, blo), min(ahi, bhi)):
        return 0
    width = Fraction(1, 2)
    while True:
        alo, ahi = _fraction_bisection(a.poly, alo, ahi, width)
        blo, bhi = _fraction_bisection(b.poly, blo, bhi, width)
        if ahi <= blo or bhi <= alo:
            return -1 if ahi <= blo else 1
        width /= 4


PHI_POLY, QS_POLY, QF_POLY = (-1, -1, 1), (-1, -1, -2, 0, 1), (-1, 1, -2, 1)
# a root 4.5e-10 above phi, and a point between the two
NEAR_PHI = (-(10**9 + 1), -10**9, 10**9)
BETWEEN = Fraction(16180339888, 10**10)
PHI_NEAR = polys.mul(PHI_POLY, NEAR_PHI)
# ("poly", p, L, H): `from_poly` of p on a bracket inside (L, H] around its
# one root there; ("alpha", w): `base_from_alpha` of w^inf; ("roots", p, m):
# the root of `real_roots(p, 1, 2)` whose minimal polynomial is m
CMP_BASES = (
    ("poly", PHI_POLY, Fraction(3, 2), Fraction(17, 10)),
    ("alpha", "10"),
    ("roots", polys.mul(PHI_POLY, (-2, 0, 1)), PHI_POLY),
    # phi, with PHI_NEAR's other root just above its bracket
    ("poly", PHI_NEAR, Fraction(3, 2), BETWEEN),
    ("poly", NEAR_PHI, Fraction(3, 2), Fraction(17, 10)),
    # NEAR_PHI's root, with phi just below its bracket
    ("poly", PHI_NEAR, BETWEEN, Fraction(17, 10)),
    ("poly", (-2, 0, 1), Fraction(1), Fraction(3, 2)),
    ("poly", QS_POLY, Fraction(17, 10), Fraction(9, 5)),
    ("roots", polys.mul(QS_POLY, QF_POLY), QS_POLY),
    ("poly", QF_POLY, Fraction(17, 10), Fraction(9, 5)),
    ("alpha", "1100"),
    ("roots", polys.mul(QS_POLY, QF_POLY), QF_POLY),
)


@functools.cache
def _root_box(p, L, H):
    """A bracket of width below 10^-12 about the one root of p in (L, H]."""
    return AlgBase.from_poly(p, L, H).bracket(Fraction(1, 10**12))


def _cmp_base(case):
    """A fresh base from a CMP_BASES entry and the fractions t, u in [0, 1]
    that place a `from_poly` bracket's ends between the root and L, H: the
    bracket is (L, H] at (t, u) = (0, 1)."""
    i, t, u = case
    kind, *args = CMP_BASES[i]
    if kind == "alpha":
        return base_from_alpha(EPSeq("", args[0]))
    if kind == "roots":
        [root] = [r for r in real_roots(args[0], 1, 2) if r.minpoly() == args[1]]
        return root
    p, L, H = args
    lo, hi = _root_box(p, L, H)
    return AlgBase.from_poly(p, L + (lo - L) * t, hi + (H - hi) * u)


CMP_CASE = st.tuples(st.integers(0, len(CMP_BASES) - 1),
                     st.fractions(0, 1, max_denominator=64),
                     st.fractions(0, 1, max_denominator=64))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(CMP_CASE, CMP_CASE)
# on the widest brackets, (t, u) = (0, 1): NEAR_PHI's root roots the
# polynomial of phi's base, and only the upper end of phi's bracket tells
# them apart; the lower end does in the mirror pair
@example((4, 0, 1), (3, 0, 1))
@example((0, 0, 1), (5, 0, 1))
# equal values built two ways
@example((0, 0, 1), (2, 0, 1))
@example((9, 0, 1), (10, 0, 1))
@example((8, 0, 1), (7, 0, 1))
def test_cmp_matches_the_gcd_route(x, y):
    """`cmp` against the equality route it replaced (`gcd_cmp`), each on
    bases built afresh: equal values built two ways, `from_poly` against
    `real_roots` and `base_from_alpha`, and brackets that stop just short
    of another root of their polynomial, one that roots the other base."""
    want = gcd_cmp(_cmp_base(x), _cmp_base(y))
    assert _cmp_base(x).cmp(_cmp_base(y)) == want
    assert _cmp_base(y).cmp(_cmp_base(x)) == -want


def test_minpoly_squarefree_and_monic_content():
    # from_poly squares away repeated factors; minpoly() strips to the
    # irreducible factor vanishing at the root
    p = polys.mul((-1, -1, 1), (-1, -1, 1))
    q = AlgBase.from_poly(p, Fraction(3, 2), Fraction(17, 10))
    assert q.minpoly() == (-1, -1, 1)
    assert Q_S.minpoly() == (-1, -1, -2, 0, 1)
    assert Q_F.minpoly() == (-1, 1, -2, 1)


def test_minpoly_refuses_bracket_with_several_factor_roots():
    # (2x-3)(5x-8)(10x-17) changes sign across (7/5, 9/5] but each factor has
    # its root there: the public constructor refuses the bracket, and on the
    # private path, which takes a proof on trust, no minimal polynomial can
    # be chosen; both refusals must survive python -O
    p = polys.mul(polys.mul((-3, 2), (-8, 5)), (-17, 10))
    with pytest.raises(DomainError):
        AlgBase.from_poly(p, Fraction(7, 5), Fraction(9, 5))
    q = AlgBase(p, Fraction(7, 5), Fraction(9, 5), _verified=True)
    with pytest.raises(DomainError):
        q.minpoly()


def test_real_roots_match_sturm_count():
    rng = random.Random(3011)
    for _ in range(80):
        p = (rng.choice((1, -1, 2)),)
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                den = rng.randint(1, 6)
                factor = (-rng.randint(den, 2 * den), den)   # root in [1, 2]
            else:   # irreducible, with a root in (1, 2)
                factor = rng.choice(((-2, 0, 1), (-1, -1, 1), (-5, 0, 2),
                                     (-1, -2, 2), (-1, 1, -2, 1),
                                     (-1, -1, -2, 0, 1)))
            p = polys.mul(p, factor)
        lo = 1 + Fraction(rng.randint(0, 8), 10)
        hi = lo + Fraction(rng.randint(1, 10 - int(10 * (lo - 1))), 10)
        roots = real_roots(p, lo, hi)
        assert len(roots) == polys.count_roots_halfopen(p, lo, hi)
        for r in roots:
            assert r.cmp_rational(lo) > 0 and r.cmp_rational(hi) <= 0
        assert all(a.cmp(b) != 0 for i, a in enumerate(roots) for b in roots[i + 1:])
    with pytest.raises(DomainError):
        real_roots((-3, 2), Fraction(1, 2), 2)


def test_real_roots_keep_their_factor_as_minpoly():
    # each root's minimal polynomial is the irreducible factor it was
    # isolated from: the one factoring the whole polynomial again picks
    # once the root's bracket holds no other root
    rng = random.Random(3019)
    pool = ((-2, 0, 1), (-1, -1, 1), (-5, 0, 2), (-1, -2, 2), (-1, 1, -2, 1),
            (-1, -1, -2, 0, 1), (1, 0, 1), (1, 1, 1))
    for _ in range(30):
        p = (1,)
        for _ in range(rng.randint(1, 4)):
            p = polys.mul(p, rng.choice(pool))
        factors = [g for g, _ in polys.factor_int(p)]
        for r in real_roots(p, 1, 2):
            assert r.minpoly() in factors
            lo, hi = r.bracket()
            while polys.count_roots_halfopen(p, lo, hi) > 1:
                lo, hi = r.bracket((hi - lo) / 2)
            assert AlgBase.from_poly(p, lo, hi).minpoly() == r.minpoly()


def test_solve_qcd_factors_the_defect_once(monkeypatch):
    # the root's minimal polynomial is the factor real_roots found, so
    # minpoly() does not factor it again
    calls = []
    factor_int = polys.factor_int

    def counted(p):
        calls.append(p)
        return factor_int(p)
    monkeypatch.setattr(polys, "factor_int", counted)
    root = solve_qcd(parse_epseq("000(01)"), parse_epseq("0(01)"),
                     Fraction(17, 10), Fraction(9, 5))
    assert root.minpoly() == (-1, -1, -2, 0, 1)
    assert len(calls) == 1


def test_minpoly_factors_only_the_part_holding_the_root(monkeypatch):
    # q_n's polynomial has degree 2^n and carries the cyclotomic cofactor
    # (q^(2^n) - 1)/(q - 1); the deep pair's degree-49 defect carries
    # factors of degree 1, 2 and 4 besides its minimal polynomial.  The
    # bases are built here, not taken from `qn_ladder`, whose copies start
    # with any minimal polynomial found earlier in the process
    from twobases.enum_b2 import GEN0, prop62_pair

    degrees = []
    factor_int = polys.factor_int

    def recorded(p):
        degrees.append(polys.degree(p))
        return factor_int(p)
    monkeypatch.setattr(polys, "factor_int", recorded)
    ladder = [base_from_alpha(EPSeq("", word_dec(GEN0.omega(n)))) for n in range(1, 7)]
    assert [polys.degree(q.poly) for q in ladder] == [2, 4, 8, 16, 32, 64]
    assert [polys.degree(q.minpoly()) for q in ladder] == [2, 3, 5, 9, 17, 33]
    assert max(degrees) <= 33
    degrees.clear()
    c, d = prop62_pair(GEN0, 5)
    lo = ladder[4].bracket(Fraction(1, 10**12))[1]
    hi = ladder[5].bracket(Fraction(1, 10**12))[0]
    root = solve_qcd(c, d, lo, hi)
    assert polys.degree(root.minpoly()) == 42
    assert degrees == [42]


def _fraction_bisection(poly, lo, hi, width):
    """Oracle for AlgBase.refine: the same sign bisection with Fraction
    Horner; an exact hit at a midpoint collapses the bracket."""
    slo = polys._sign(polys.eval_at(poly, lo))
    while hi - lo >= width:
        mid = (lo + hi) / 2
        s = polys._sign(polys.eval_at(poly, mid))
        if s == 0:
            return mid, mid
        if s == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_refine_matches_fraction_bisection():
    rng = random.Random(3012)
    width = Fraction(1, 2 ** 200)
    bases = [AlgBase.from_poly((-1, -1, 1), 1, 2),
             AlgBase.from_poly((-1, 1, -2, 1), Fraction(17, 10), Fraction(9, 5)),
             # rational root on a bisection midpoint of (1, 2]
             AlgBase.from_poly(polys.mul((-13, 8), (-5, 0, 1)), 1, 2),
             base_from_alpha(parse_epseq("11(10)")),
             base_from_alpha(parse_epseq("(1110100)"))]
    while len(bases) < 20:
        # monic, negative at 1: a root in (1, 2] whenever positive at 2
        p = [rng.randint(-9, 9) for _ in range(rng.randint(2, 30))] + [1]
        p[0] -= polys.eval_at(p, 1) + rng.randint(1, 5)
        bases.extend(r for r in real_roots(tuple(p), 1, 2) if r.exact_rational is None)
    for q in bases:
        lo, hi = q.bracket()
        want = _fraction_bisection(q.poly, lo, hi, width)
        assert q.bracket(width) == want


ONE_ROOT_FACTORS = ((-2, 0, 1), (-1, -1, 1), (-1, -1, -2, 0, 1), (-1, 1, -2, 1), (-3, 2),
                    (-5, 4), (-13, 8))
NO_ROOT_FACTORS = ((1, 0, 1), (3, 1), (-7, 3), (1, 1, 1), (-5, 1))


@st.composite
def bisected_base(draw):
    """A base from one factor with a root in (1, 2), some of them on a
    dyadic midpoint, times factors without a root in [1, 2], in a bracket
    that straddles the root, and a few widths to refine to in turn."""
    f = draw(st.sampled_from(ONE_ROOT_FACTORS))
    p = polys.mul((draw(st.sampled_from((1, -1, 3))),), f)
    for g in draw(st.lists(st.sampled_from(NO_ROOT_FACTORS), max_size=2)):
        p = polys.mul(p, g)
    root = polys.isolate_roots(f, 1, 2)[0]
    lo = draw(st.fractions(1, root[0], max_denominator=50))
    hi = draw(st.fractions(root[1], 2, max_denominator=50).filter(
        lambda h: polys.sign_at_rational(p, h) != 0))
    widths = draw(st.lists(st.fractions(Fraction(1, 10**30), 1, max_denominator=10**30),
                           min_size=1, max_size=3))
    return p, lo, hi, widths


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(bisected_base())
@example(((-3, 2), Fraction(1), Fraction(2), [Fraction(1, 10**9)]))
@example((polys.mul((-13, 8), (1, 0, 1)), Fraction(3, 2), Fraction(7, 4), [Fraction(1, 3), Fraction(1, 10**20)]))
def test_integer_refine_matches_fraction_bisection_after_each_width(case):
    """Asked for several widths in turn, one base prints for each the
    Fraction bisection of the bracket it was built with, including an
    exact hit on a midpoint, and its working bracket lies inside that."""
    p, lo, hi, widths = case
    if polys.sign_at_rational(p, lo) == 0:
        return
    q = AlgBase.from_poly(p, lo, hi)
    for w in widths:
        want = _fraction_bisection(q.poly, lo, hi, w)
        assert q.bracket(w) == want
        if want[0] == want[1]:
            assert q.exact_rational == want[0]
        assert want[0] <= q.bracket()[0] <= q.bracket()[1] <= want[1]


def bisection_loop(poly, a, b, d, n):
    """Oracle for `bases._bisect`: n plain halvings of (a/d, b/d), each
    side read from the sign of poly at the lower end, by homogenised Horner
    in integers; (m, m, D) when the midpoint m/D is the root."""
    rev = tuple(reversed(poly))
    up = polys.sign_at_rational(poly, Fraction(a, d)) > 0
    for _ in range(n):
        m = a + b
        a, b, d = 2 * a, 2 * b, 2 * d
        acc, dk = 0, 1
        for c in rev:
            acc = acc * m + c * dk
            dk *= d
        if not acc:
            return m, m, d
        if (acc > 0) == up:
            a = m
        else:
            b = m
    return a, b, d


def _power(p, k):
    return functools.reduce(polys.mul, [p] * k, (1,))


# x^30 - 2 and (3 - x)^30 - 2: roots near 1 and near 2, where the chord
# across a wide bracket puts its zero on the first or the last grid point
STEEP_FACTORS = (polys.sub(polys.shift((1,), 30), (2,)),
                 polys.sub(_power((3, -1), 30), (2,)))
SIMPLE_FACTORS = ((-2, 0, 1), (-1, -1, 1), (-1, -1, -2, 0, 1), (-1, 1, -2, 1),
                  (1, -1, 1, -1, 2, -2, 0, -2, 0, -1, 1))


@st.composite
def kernel_case(draw):
    """(poly, a, b, d, n) for `bases._bisect`, poly times a random sign and
    factors without a root in [1, 2]:
    - a simple irrational root, a steep one, or the triple root of
      (x^2 - 2)^3, in a random bracket inside [1, 2], refined up to 2000
      levels (a width of 2^-2000 at most);
    - a rational root r, simple or triple, on the grid point i / 2^L
      (i odd) of a random bracket, so that it is a bisection midpoint of
      level L, refined n = L - 3 .. L + 3 levels: met below level n, at
      level n, or not at all."""
    kind = draw(st.sampled_from(("simple", "steep", "triple", "grid")))
    if kind == "grid":
        r = draw(st.fractions(Fraction(11, 10), Fraction(19, 10), max_denominator=30))
        f = (-r.numerator, r.denominator)
        if draw(st.booleans()):
            f = _power(f, 3)
        level = draw(st.integers(1, 60))
        i = 2 * draw(st.integers(0, 2 ** (level - 1) - 1)) + 1
        w = draw(st.fractions(Fraction(1, 1000), Fraction(1, 10), max_denominator=1000))
        lo = r - w * i / 2 ** level
        hi = lo + w
        n = draw(st.integers(max(level - 3, 1), level + 3))
    else:
        if kind == "triple":
            g = (-2, 0, 1)
            f = _power(g, 3)
        else:
            g = f = draw(st.sampled_from(STEEP_FACTORS if kind == "steep" else SIMPLE_FACTORS))
        box = polys.isolate_roots(g, 1, 2)[0]
        lo = draw(st.fractions(1, box[0], max_denominator=50))
        hi = draw(st.fractions(box[1], 2, max_denominator=50).filter(
            lambda h: polys.sign_at_rational(f, h) != 0))
        most = 300 if kind == "steep" else 2000
        n = draw(st.one_of(st.integers(1, 80), st.sampled_from((most // 2, most))))
    p = polys.mul((draw(st.sampled_from((1, -1, 3))),), f)
    for g in draw(st.lists(st.sampled_from(NO_ROOT_FACTORS), max_size=2)):
        p = polys.mul(p, g)
    return (p, *bases._over_one_den(lo, hi), n)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(kernel_case())
@example((STEEP_FACTORS[0], 1, 2, 1, 200))
@example((STEEP_FACTORS[1], 1, 2, 1, 200))
@example((_power((-2, 0, 1), 3), 1, 2, 1, 2000))
@example(((-3, 2), 1, 2, 1, 1))
@example(((-13, 8), 1, 2, 1, 3))
@example(((-13, 8), 1, 2, 1, 2))
def test_kernel_matches_the_bisection_loop(case):
    """QIR returns the cell, or the exact root, that plain halvings do."""
    p, a, b, d, n = case
    got = bases._bisect(tuple(reversed(p)), a, b, d, n)
    want = bisection_loop(p, a, b, d, n)
    assert (Fraction(got[0], got[2]), Fraction(got[1], got[2])) == \
        (Fraction(want[0], want[2]), Fraction(want[1], want[2]))
    assert (got[0] == got[1]) == (want[0] == want[1])


@pytest.mark.parametrize("poly, lo, hi", [
    ((-2, 0, 1), 1, 2),
    ((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5)),
    (SIMPLE_FACTORS[4], Fraction(7, 4), Fraction(9, 5)),
])
def test_kernel_refines_a_simple_root_2000_levels_in_few_evaluations(monkeypatch, poly, lo, hi):
    """Bisection makes 2000 evaluations here; QIR fewer than 64."""
    calls = []
    hvalue = bases._hvalue

    def counted(*args):
        calls.append(args)
        return hvalue(*args)
    monkeypatch.setattr(bases, "_hvalue", counted)
    a, b, d = bases._over_one_den(Fraction(lo), Fraction(hi))
    got = bases._bisect(tuple(reversed(poly)), a, b, d, 2000)
    assert len(calls) < 64
    monkeypatch.undo()
    assert got == bisection_loop(poly, a, b, d, 2000)


@pytest.mark.parametrize("poly, lo, hi", [
    ((1, 0, 1), Fraction(1), Fraction(2)),
    (polys.neg((-2, 0, 1)), Fraction(3, 2), Fraction(2)),
    (polys.mul((-2, 0, 1), (-3, 0, 1)), Fraction(13, 10), Fraction(9, 5)),
])
def test_kernel_ends_without_a_sign_change_at_the_ends(monkeypatch, poly, lo, hi):
    """The kernel takes its sides from the sign at the lower end that it
    computes itself, so ends of one sign, which is what a wrong stored sign
    showed the old loop, cannot make it spin: it stops within 4n + 2
    evaluations at a level-n cell, bisection's when the bracket holds no
    root."""
    n = 300
    calls = []
    hvalue = bases._hvalue

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 4 * n + 2, "the kernel does not stop"
        return hvalue(*args)
    monkeypatch.setattr(bases, "_hvalue", counted)
    a, b, d = bases._over_one_den(lo, hi)
    assert polys.sign_at_rational(poly, lo) == polys.sign_at_rational(poly, hi)
    a1, b1, d1 = bases._bisect(tuple(reversed(poly)), a, b, d, n)
    assert d1 == d << n and b1 - a1 == b - a
    if not polys.count_roots_halfopen(poly, lo, hi):
        assert (a1, b1, d1) == bisection_loop(poly, a, b, d, n)


def test_field_arithmetic():
    rng = random.Random(3001)
    fld = Q_S.field()
    one = fld.one()
    x = fld.base_elem()
    # minimal polynomial annihilates the generator: x^4 = 2x^2 + x + 1
    assert x * x * x * x == 2 * (x * x) + x + one
    for _ in range(50):
        a = fld.elem([rng.randint(-3, 3) for _ in range(4)])
        b = fld.elem([rng.randint(-3, 3) for _ in range(4)])
        assert (a + b) - b == a
        if b != fld.zero():
            assert (a * b) * b.inv() == a
    assert (x - one).inv() * (x - one) == one


def test_sign_determination():
    fld = Q_S.field()
    x = fld.base_elem()
    one = fld.one()
    # q_s - 17/10 > 0 and q_s - 9/5 < 0
    assert (x - fld.from_rational(Fraction(17, 10))).sign() > 0
    assert (x - fld.from_rational(Fraction(9, 5))).sign() < 0
    assert (x - x).sign() == 0
    assert (x * x - x - one).sign() != 0   # q_s is not the golden ratio


class _FractionField:
    """Oracle: Q(q) with one Fraction coefficient per power of q, reduced
    by the minimal polynomial made monic over Q.  Elements are plain
    tuples."""

    def __init__(self, base):
        self.base = base
        m = base.minpoly()
        self.deg = len(m) - 1
        self.minpoly = m
        self._red = tuple(-Fraction(c) / m[-1] for c in m[:-1])

    def elem(self, coeffs) -> tuple:
        c = [Fraction(a) for a in coeffs]
        for i in range(len(c) - 1, self.deg - 1, -1):
            top = c.pop()
            for j, r in enumerate(self._red):
                c[i - self.deg + j] += top * r
        return tuple(c + [Fraction(0)] * (self.deg - len(c)))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        return self.elem(polys.mul(a, b))

    def inv(self, a):
        # extended Euclid over Q: u*a + v*minpoly = g, a nonzero constant
        a, b = polys.trim(a), self.minpoly
        s0, s1 = (Fraction(1),), ()
        while b:
            quo, r = divmod_exact(a, b)
            a, b = b, r
            s0, s1 = s1, polys.sub(s0, polys.mul(quo, s1))
        return self.elem(tuple(c / a[0] for c in s0))

    def sign(self, a) -> int:
        if not any(a):
            return 0
        for _ in range(2000):
            lo, hi = self.base.bracket()
            elo, ehi = interval_eval(a, lo, hi)
            if elo > 0 or ehi < 0:
                return 1 if elo > 0 else -1
            self.base.refine((hi - lo) / 2)
        raise AssertionError("oracle sign undecided")


# q_s (monic), the root ~1.366 of 2x^2 - 2x - 1 (not monic), and the
# degree-12 least base of derived order 3 (monic)
ORACLE_FIELDS = (
    Q_S,
    AlgBase.from_poly((-1, -2, 2), Fraction(13, 10), Fraction(7, 5)),
    AlgBase.from_poly((-1, -1, -2, -2, -2, -2, -1, -2, -3, -1, -1, 0, 1),
                      Fraction(1785, 1000), Fraction(1786, 1000)),
)
# irrational bases with minimal polynomials that are not monic: the roots
# of 2x^2 - 2x - 1 (~1.366) and of 3x^3 - 3x^2 - 2 (~1.36).  In the
# second, the companion shift makes q (q + q^2) / 2 - 1 as (-4 + 6 q^2) / 6,
# which the step's gcd brings to lowest terms.
NON_MONIC = (ORACLE_FIELDS[1],
             AlgBase.from_poly((-2, 0, -3, 3), Fraction(13, 10), Fraction(7, 5)))
COEFFS = st.lists(st.one_of(st.integers(-5, 5), st.integers(-10**20, 10**20),
                            st.fractions(max_denominator=60)), max_size=26)
RATIONALS = st.one_of(st.integers(-40, 40), st.fractions(max_denominator=10**6))


def _normal(e) -> bool:
    return (e.den > 0 and len(e.num) == e.field.deg
            and all(isinstance(a, int) for a in e.num + (e.den,))
            and gcd(e.den, *e.num) == 1)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), COEFFS, COEFFS, RATIONALS)
@example(NON_MONIC[1], [0, Fraction(1, 2), Fraction(1, 2)], [1], 3)
def test_field_elem_matches_fraction_oracle(q, ca, cb, r):
    fld, ref = q.field(), _FractionField(q)
    a, b = fld.elem(ca), fld.elem(cb)
    ra, rb = ref.elem(ca), ref.elem(cb)
    k = r.numerator if isinstance(r, int) else r.denominator
    cases = [
        (a, ra), (b, rb),
        (a + b, ref.add(ra, rb)),
        (a - b, ref.add(ra, tuple(-x for x in rb))),
        (a * b, ref.mul(ra, rb)),
        (a * k, tuple(x * k for x in ra)),
        (k * a, tuple(x * k for x in ra)),
        (a * r, tuple(x * r for x in ra)),
        (a + r, ref.add(ra, ref.elem((r,)))),
        (r - a, ref.add(ref.elem((r,)), tuple(-x for x in ra))),
        (fld.from_rational(r), ref.elem((r,))),
    ]
    if any(rb):
        cases.append((b.inv(), ref.inv(rb)))
        cases.append((a / b, ref.mul(ra, ref.inv(rb))))
    for e, want in cases:
        assert _normal(e)
        assert e.coeffs == want
        assert e.sign() == ref.sign(want)
    # one step of a walk from a: q a - 1 replayed on a's integer vector,
    # over a's den when m is monic and in lowest terms otherwise, signed,
    # and the next state q a - d with its enclosure and replayed vector
    w = bases._Walk(fld)
    _, (_, d, sgn) = itertools.islice(bases._orbit(w, (a.num, a.den), itertools.repeat(None)), 2)
    want = ref.add(ref.mul(ref.elem((0, 1)), ra), ref.elem((-1,)))
    num, den = w.child(0, 1)
    assert tuple(Fraction(x, den) for x in num) == want
    assert den == a.den if fld.minpoly[-1] == 1 else gcd(den, *num) == 1
    assert sgn == ref.sign(want) and d == (sgn > 0)
    want = ref.add(want, ref.elem((1 - d,)))
    num, den = w.exact(1)
    assert tuple(Fraction(x, den) for x in num) == want
    assert den == a.den if fld.minpoly[-1] == 1 else gcd(den, *num) == 1
    scaled = tuple(x * 2**bases.WALK_BITS for x in want)
    lo, hi, *_ = w.states[1]
    assert ref.sign(ref.add(scaled, ref.elem((-lo,)))) >= 0
    assert ref.sign(ref.add(ref.elem((hi,)), tuple(-x for x in scaled))) >= 0
    # equal values reached by different paths are equal, with equal hashes
    same = [(a, (a * 2) / 2), (a, (a * r) / r if r else a),
            (a, (a + b) - b), (fld.from_rational(r), fld.elem((r, 0)) + fld.zero()),
            (fld.from_rational(Fraction(1, 2)), fld.elem((Fraction(2, 4),))),
            (fld.from_rational(Fraction(1, 2)), fld.one() * 2 * Fraction(1, 4))]
    if any(rb):
        same.append((a, (a * b) * b.inv()))
    for x, y in same:
        assert x == y and hash(x) == hash(y)


def _series_dens() -> list:
    """q^m (q^p - 1) for a few preperiod and period lengths (m, p)."""
    return [polys.shift(polys.add(polys.shift((1,), p), (-1,)), m)
            for m, p in ((0, 1), (1, 2), (3, 5), (7, 16), (0, 33), (40, 3))]


def test_field_inverse_matches_fraction_euclid_at_degree_33():
    from twobases.enum_b2 import GEN0, qn_ladder

    q6 = qn_ladder(GEN0, 6)[5].base
    fld, ref = q6.field(), _FractionField(q6)
    assert fld.deg == 33
    x = fld.base_elem()
    for den in _series_dens():
        e = fld.elem(den)
        inv = e.inv()
        assert inv.coeffs == ref.inv(ref.elem(den))
        assert e * inv == fld.one()
    # non-monic numerators, negative leading coefficients, a rational multiple
    for e in (3 * x - 5, x ** 20 * Fraction(-7, 3) + x - 1, (x + 2) * Fraction(5, 6)):
        assert e.inv().coeffs == ref.inv(e.coeffs)


def test_field_inverse_at_degree_65():
    from twobases.enum_b2 import GEN0, qn_ladder

    q7 = qn_ladder(GEN0, 7)[6].base
    fld = q7.field()
    assert fld.deg == 65
    x = fld.base_elem()
    elems = [fld.elem(den) for den in _series_dens()]
    elems += [x - 2, 3 * x ** 64 - x ** 7 + Fraction(1, 5), fld.from_rational(-4)]
    for e in elems:
        assert _normal(e.inv())
        assert e * e.inv() == fld.one()


def test_field_inverse_refuses_reducible_minpoly():
    # a field on the reducible (q - 1)(q + 1): the remainder sequence of
    # q - 1 and the polynomial hits zero before a constant
    fld = bases.NumberField(types.SimpleNamespace(minpoly=lambda: (-1, 0, 1)))
    with pytest.raises(DomainError):
        bases.FieldElem(fld, (-1, 1)).inv()
    with pytest.raises(ZeroDivisionError):
        fld.zero().inv()


def fraction_orbit(q):
    """Oracle: the remainder orbit of 1 at the rational base q, in
    Fractions; yields (remainder, quasi-greedy digit, sign of q r - 1)."""
    r = Fraction(1)
    while True:
        t = q * r - 1
        s = (t > 0) - (t < 0)
        yield r, int(s > 0), s
        r = t if s > 0 else t + 1


def fraction_beta(q, n):
    out = []
    for _, a, s in itertools.islice(fraction_orbit(q), n):
        if s == 0:
            return "".join(out) + "1", True
        out.append(str(a))
    return "".join(out), False


def fraction_cmp_seq_alpha(t, q, max_steps=100000):
    """Oracle: t against the quasi-greedy expansion of 1, with equality
    proved by a repeated (position class, remainder) pair."""
    k, p = len(t.pre), len(t.per)
    seen = set()
    for i, (r, a, _) in zip(range(max_steps), fraction_orbit(q)):
        state = (i if i < k else k + (i - k) % p, r)
        if state in seen:
            return 0
        seen.add(state)
        if t.digit(i) != a:
            return -1 if t.digit(i) < a else 1
    raise AssertionError("oracle comparison unresolved")


RATIONAL_BASES = st.fractions(1, 2, max_denominator=60).filter(lambda x: x > 1)
WORDS = st.text("01", max_size=12)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(RATIONAL_BASES, st.integers(1, 80), WORDS, WORDS.filter(bool))
@example(Fraction(2), 40, "", "1")
@example(Fraction(3, 2), 60, "1010", "0")
@example(Fraction(19, 10), 60, "111", "01")
def test_rational_walks_match_fraction_orbit(r, n, pre, per):
    want = "".join(str(a) for _, a, _ in itertools.islice(fraction_orbit(r), n))
    assert alpha_digits(AlgBase.from_rational(r), n) == want
    assert beta_digits(AlgBase.from_rational(r), n) == fraction_beta(r, n)
    # a word that follows alpha for a while before it is free to differ
    for t in (EPSeq(pre, per), EPSeq(want[: len(pre)] + pre, per)):
        assert cmp_seq_alpha(t, AlgBase.from_rational(r)) == fraction_cmp_seq_alpha(t, r)


def test_field_elem_from_rational_normal_form():
    for q in ORACLE_FIELDS:
        fld = q.field()
        half = fld.from_rational(Fraction(1, 2))
        assert half.num == (1,) + (0,) * (fld.deg - 1) and half.den == 2
        assert fld.from_rational(0) == fld.zero() and fld.zero().den == 1
        assert (half - half).den == 1


def test_monic_orbits_stay_integral():
    # every remainder of the quasi-greedy orbit of a monic base lies in Z[q]
    for q in (Q_S, ORACLE_FIELDS[2], base_from_alpha(EPSeq("", "1110"))):
        fld = q.field()
        r, x = fld.one(), fld.base_elem()
        for _ in range(200):
            t = x * r - 1
            r = t if t.sign() > 0 else x * r
            assert r.den == 1


def test_sign_refinement_budget(monkeypatch):
    # a fresh copy of q_s, whose bracket [17/10, 9/5] needs about 40 halvings
    # to separate q_s from r
    q = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
    r = Fraction(17106440950451, 10**13)
    near = q.field().base_elem() - r
    monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", 4)
    with pytest.raises(UnsupportedBaseError):
        near.sign()
    monkeypatch.undo()
    assert near.sign() == q.cmp_rational(r) != 0


def _fresh(q):
    """A copy of the base q with the bracket it was built with."""
    return AlgBase.from_poly(q.poly, *FRESH_BRACKETS[q])


# (x^2 - x - 1)(x - 3): the golden ratio as a root of a reducible
# polynomial whose cofactor is negative on the bracket, so the base's
# polynomial and its minimal polynomial have opposite signs at each end
PHI_X3 = (3, 2, -4, 1)

# q_s, q_f, a degree-10 root of enum_B2(2, 4), the non-monic root of
# 2x^2 - 2x - 1 and the golden ratio from PHI_X3, each with the bracket it
# is built from
SIGN_FIELDS = (
    (Q_S, (Fraction(17, 10), Fraction(9, 5))),
    (Q_F, (Fraction(17, 10), Fraction(9, 5))),
    (AlgBase.from_poly((1, -1, 1, -1, 2, -2, 0, -2, 0, -1, 1), Fraction(7, 4), Fraction(9, 5)),
     (Fraction(7, 4), Fraction(9, 5))),
    (AlgBase.from_poly((-1, -2, 2), Fraction(13, 10), Fraction(7, 5)),
     (Fraction(13, 10), Fraction(7, 5))),
    (AlgBase.from_poly(PHI_X3, Fraction(3, 2), Fraction(17, 10)),
     (Fraction(3, 2), Fraction(17, 10))),
)
FRESH_BRACKETS = dict(SIGN_FIELDS)


@st.composite
def field_numerator(draw):
    """(field, numerator): random integers, or the numerator of
    +-(2^m q^k - n) with n = floor(2^m q^k) or n - 1 = floor(2^m q^k),
    a reduced power of q that nearly cancels against an integer."""
    q = draw(st.sampled_from([q for q, _ in SIGN_FIELDS]))
    fld = q.field()
    if draw(st.booleans()):
        size = draw(st.sampled_from((3, 40, 300)))
        num = draw(st.lists(st.integers(-2**size, 2**size),
                            min_size=fld.deg, max_size=fld.deg))
        return q, tuple(num)
    k, m = draw(st.integers(1, 60)), draw(st.integers(0, 200))
    power = fld.base_elem() ** k * 2**m
    ref = _fresh(q)
    for _ in range(1000):
        # floor(2^m q^k) from the bracket ends, once they agree on it
        lo, hi = ref.bracket()
        n = floor(lo**k * 2**m)
        if n == floor(hi**k * 2**m):
            break
        ref.refine((hi - lo) / 2)
    e = power - (n + draw(st.integers(0, 1)))
    return q, (e if draw(st.booleans()) else -e).num


@st.composite
def long_polynomial(draw):
    """(base, polynomial) longer than the field degree: random integer
    polynomials of degree up to 60 at a SIGN_FIELDS base, or the defect
    polynomial of `prop62_pair(GEN0, n)` at q_n or q_(n+1), n = 2..4,
    where the paper's construction puts a sign change."""
    if draw(st.booleans()):
        q = draw(st.sampled_from([q for q, _ in SIGN_FIELDS]))
        size = draw(st.sampled_from((2, 20)))
        return q, tuple(draw(st.lists(st.integers(-2**size, 2**size),
                                      min_size=1, max_size=61)))
    return draw(st.sampled_from(range(6)).map(_prop62_case))


@functools.cache
def _prop62_case(i):
    """(q_(n+k), defect polynomial of prop62_pair(GEN0, n)) for
    (n, k) = (2 + i // 2, i % 2), on ladder bases shared by every draw."""
    from twobases.enum_b2 import GEN0, prop62_pair
    n, k = 2 + i // 2, i % 2
    return _ladder()[n - 1 + k].base, f_minpoly(*prop62_pair(GEN0, n))


@functools.cache
def _ladder():
    from twobases.enum_b2 import GEN0, qn_ladder
    return qn_ladder(GEN0, 5)


def interval_horner_sign(F, q) -> int:
    """Oracle: the sign of the integer polynomial F at q, on a fresh copy
    of q.  An exact zero is a root of gcd(q.poly, F) in q's bracket
    (`gcd_root_in`); otherwise the copy is refined by quarters until
    interval Horner in Fractions (`test_polys.interval_eval`) excludes
    zero."""
    ref = AlgBase.from_poly(q.poly, *q.bracket())
    lo, hi = ref.bracket()
    if gcd_root_in(ref.poly, F, lo, hi):
        return 0
    for _ in range(2000):
        lo, hi = ref.bracket()
        vlo, vhi = interval_eval(F, lo, hi)
        if vlo > 0 or vhi < 0:
            return 1 if vlo > 0 else -1
        ref.refine((hi - lo) / 4)
    raise AssertionError("interval Horner undecided after 2000 refinements")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(field_numerator(), long_polynomial()))
def test_field_sign_matches_interval_horner_on_a_fresh_base(case):
    """`AlgBase.sign_of` on a field numerator and `b2core.sign_at` on a
    base whose working bracket carries the history of every earlier
    example, each against interval Horner on a fresh copy of the base
    (`interval_horner_sign`)."""
    q, F = case
    want = interval_horner_sign(F, q)
    if len(F) == q.field().deg:
        assert q.sign_of(F) == want
    assert sign_at(F, q) == want


def test_walks_leave_the_base_bracket_as_built():
    """The printed interval of a base is a function of the base alone: after
    the remainder walks and field signs it is what a fresh copy prints."""
    q = _fresh(Q_S)
    alpha_digits(q, 300)
    with pytest.raises(UnsupportedBaseError):
        alpha_epseq(q)
    assert count_expansions("1000(01)", q, cap=3) == CountResult(2)
    fresh = _fresh(Q_S)
    near = q.field().base_elem() - Fraction(17106440950451, 10**13)
    assert near.sign() == -1
    assert q.to_json() == fresh.to_json()


def test_signs_leave_the_base_bracket_as_built():
    """A base prints what a fresh copy prints after `sign_at` and
    `cmp_rational`, however far they narrowed its working bracket."""
    q, fresh = _fresh(Q_S), _fresh(Q_S)
    r = Fraction(17106440950451, 10**13)
    assert q.cmp_rational(r) == -1
    assert sign_at((-r.numerator, r.denominator), q) == -1
    # q_s^40 is about 2^30.98: longer than the field degree, and closer to
    # 2^31 than the bracket [17/10, 9/5] can tell
    assert sign_at(polys.sub(polys.shift((1,), 40), (2**31,)), q) == -1
    assert q.to_json() == fresh.to_json()


def test_sign_engine_halves_with_the_minimal_polynomial_once_known():
    """Before the minimal polynomial is known the working bracket is halved
    with the base's polynomial, after it with the minimal polynomial, each
    read by the kernel at the lower end.  The golden ratio phi < r exactly
    when (2r - 1)^2 > 5."""
    q = _fresh(SIGN_FIELDS[4][0])
    assert q.poly == PHI_X3 and q._minpoly is None
    for k in (10, 30, 60):
        # n / 10^k and (n + 1) / 10^k lie within 10^-k of phi
        n = (10**k + isqrt(5 * 10**(2 * k))) // 2
        for r in (Fraction(n, 10**k), Fraction(n + 1, 10**k)):
            want = -1 if (2 * r - 1) ** 2 > 5 else 1
            assert q.cmp_rational(r) == want
            assert sign_at((-r.numerator, r.denominator), q) == want
        if k == 10:
            assert q.minpoly() == (-1, -1, 1)


def test_a_halving_on_the_root_makes_the_base_exact():
    """(2x - 3)(x^2 - 3) has only 3/2 in (7/5, 8/5]; from_poly keeps the
    reducible polynomial, and the first halving of the working bracket lands
    on the root.  The base becomes exact and answers from 3/2."""
    def base():
        return AlgBase.from_poly((9, -6, -3, 2), Fraction(7, 5), Fraction(8, 5))
    r = Fraction(149, 100)
    q = base()
    assert q.exact_rational is None
    assert q.cmp_rational(r) == 1
    assert q.exact_rational == Fraction(3, 2) and q.bracket() == (Fraction(3, 2),) * 2
    q = base()
    assert sign_at((-r.numerator, r.denominator), q) == 1
    assert q.exact_rational == Fraction(3, 2)
    q = base()
    assert (q.field().base_elem() - r).sign() == 1
    assert q.sign_of((-r.numerator, r.denominator)) == 1
    assert q.sign_of((-3, 2)) == 0


def _three_halves():
    """3/2, the only root of (2x - 3)(x^2 - 3) in (7/5, 8/5] and the first
    midpoint of that bracket."""
    return AlgBase.from_poly((9, -6, -3, 2), Fraction(7, 5), Fraction(8, 5))


def _near_three_halves():
    """sqrt(9/4 + 10^-9), about 3.3e-10 above 3/2, in the same bracket."""
    return AlgBase.from_poly((-(9 * 10**9 + 4), 0, 4 * 10**9), Fraction(7, 5), Fraction(8, 5))


def test_cmp_with_a_base_that_turns_exact_in_the_first_rounds():
    """The first quarter-width refinement lands _three_halves on 3/2;
    the comparison then goes on as one against a rational, whichever
    side that base is on."""
    a, b = _three_halves(), _near_three_halves()
    assert b.cmp(a) == 1
    assert a.exact_rational == Fraction(3, 2) and b.exact_rational is None
    a, b = _three_halves(), _near_three_halves()
    assert a.cmp(b) == -1
    assert a.exact_rational == Fraction(3, 2) and b.exact_rational is None


# bases for the history test: the SIGN_FIELDS bases, the pair above, and
# 10/7, the only root of (7x - 10)(x^2 - 3) in (7/5, 3/2], which no
# bisection of that bracket meets, so only cmp_rational makes it exact
HISTORY_BASES = tuple(functools.partial(_fresh, q) for q, _ in SIGN_FIELDS) + (
    _three_halves, _near_three_halves,
    lambda: AlgBase.from_poly(polys.mul((-10, 7), (-3, 0, 1)), Fraction(7, 5), Fraction(3, 2)))

HISTORY_WIDTHS = st.one_of(st.integers(0, 120).map(lambda k: Fraction(1, 2**k)),
                           st.integers(0, 40).map(lambda k: Fraction(3, 10**k)))


@st.composite
def history_op(draw):
    """One call that may narrow a base's working bracket: (name, argument)."""
    kind = draw(st.sampled_from(("cmp", "cmp_rational", "sign_at", "refine",
                                 "decimal", "walk")))
    if kind == "cmp":
        return kind, draw(st.integers(0, len(HISTORY_BASES) - 1))
    if kind == "cmp_rational":
        # a rational j 2^-k from the base, give or take 2^-100
        return kind, (draw(st.integers(1, 90)), draw(st.integers(-3, 3)))
    if kind == "sign_at":
        return kind, tuple(draw(st.lists(st.integers(-2**20, 2**20), min_size=1, max_size=12)))
    if kind == "refine":
        return kind, draw(HISTORY_WIDTHS)
    if kind == "decimal":
        return kind, draw(st.integers(0, 30))
    return kind, draw(st.integers(1, 60))


@functools.cache
def _history_value(i):
    """Base i when it is rational, else the middle of a bracket of it at
    most 2^-100 wide, from a fresh copy."""
    q = HISTORY_BASES[i]()
    m = q.minpoly()
    if len(m) == 2:
        return Fraction(-m[0], m[1])
    lo, hi = q.bracket(Fraction(1, 2**100))
    return (lo + hi) / 2


def _run_history_op(q, i, kind, arg):
    if kind == "cmp":
        q.cmp(HISTORY_BASES[arg]())
    elif kind == "cmp_rational":
        k, j = arg
        q.cmp_rational(_history_value(i) + Fraction(j, 2**k))
    elif kind == "sign_at":
        sign_at(arg, q)
    elif kind == "refine":
        q.refine(arg)
    elif kind == "decimal":
        q.decimal(arg)
    else:
        alpha_digits(q, arg)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(0, len(HISTORY_BASES) - 1), st.lists(history_op(), max_size=6),
       st.lists(HISTORY_WIDTHS, min_size=1, max_size=4))
def test_printed_bracket_does_not_depend_on_history(i, ops, widths):
    """After any mix of cmp, cmp_rational, sign_at, refine, decimal and the
    remainder walk, a base prints what a fresh copy prints: `to_json()` and
    `bracket(w)` for several widths in turn."""
    q, fresh = HISTORY_BASES[i](), HISTORY_BASES[i]()
    for kind, arg in ops:
        _run_history_op(q, i, kind, arg)
    assert q.to_json() == fresh.to_json()
    for w in widths:
        assert q.bracket(w) == fresh.bracket(w)


def test_one_sign_call_halves_the_field_bracket_at_most_budget_times(monkeypatch):
    q = _fresh(Q_S)
    fld = q.field()
    # q - 1 > 0 is decided on the table of the bracket the base was built with
    assert (fld.base_elem() - 1).sign() == 1
    lo, hi = q.bracket()
    assert (lo, hi) == FRESH_BRACKETS[Q_S]
    w0 = hi - lo
    # about 40 halvings of [17/10, 9/5] separate q_s from this rational
    near = fld.base_elem() - Fraction(17106440950451, 10**13)
    monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", 15)
    for _ in range(2):
        with pytest.raises(UnsupportedBaseError):
            near.sign()
        lo, hi = q.bracket()
        assert hi - lo == w0 / 2**15
        w0 = hi - lo
    # a third call of 15 halvings at most reaches the 40 or so needed
    assert near.sign() == -1
    lo, hi = q.bracket()
    ratio = w0 / (hi - lo)
    assert ratio.denominator == 1 and ratio <= 2**15
    assert q.to_json() == _fresh(Q_S).to_json()


def test_cmp_rational_refinement_budget(monkeypatch):
    # r sits just above q_s: some 40 halvings of [17/10, 9/5]
    q = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
    r = Fraction(17106440950451, 10**13)
    monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", 4)
    with pytest.raises(UnsupportedBaseError):
        q.cmp_rational(r)
    monkeypatch.undo()
    assert q.cmp_rational(r) == -1


def test_cmp_separation_refinement_budget(monkeypatch):
    # sqrt(3) and sqrt(3 + 10^-12), about 3e-13 apart, with distinct
    # minimal polynomials: only the separation loop can order them
    def pair():
        return (AlgBase.from_poly((-3, 0, 1), Fraction(17, 10), Fraction(9, 5)),
                AlgBase.from_poly((-(3 * 10**12 + 1), 0, 10**12),
                                  Fraction(17, 10), Fraction(9, 5)))
    a, b = pair()
    monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", 4)
    with pytest.raises(UnsupportedBaseError):
        a.cmp(b)
    monkeypatch.undo()
    a, b = pair()
    assert a.cmp(b) == -1 and b.cmp(a) == 1


def test_decimal_refinement_budget(monkeypatch):
    # 1.755 + 10^-40 rounds to 1.76 only once the bracket is above 1.755,
    # some 130 halvings of [17/10, 9/5]
    def base():
        return AlgBase.from_poly((-(1755 * 10**37 + 1), 10**40),
                                 Fraction(17, 10), Fraction(9, 5))
    q = base()
    assert q.exact_rational is None
    monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", 4)
    with pytest.raises(UnsupportedBaseError):
        q.decimal(2)
    monkeypatch.undo()
    assert base().decimal(2) == "1.76"


def _decimal_by_bisection(poly, lo, hi, digits) -> str:
    """Oracle: halve (lo, hi] on the sign of poly at Fraction midpoints
    until both ends round half up to the same `digits`-digit string."""
    def rounded(x):
        n = floor(x * 10**digits + Fraction(1, 2))
        return f"{n // 10**digits}.{n % 10**digits:0{digits}d}"

    def sign(x):
        v = sum(c * x**i for i, c in enumerate(poly))
        return (v > 0) - (v < 0)
    s_hi = sign(hi)
    while rounded(lo) != rounded(hi):
        mid = (lo + hi) / 2
        if sign(mid) == s_hi:
            hi = mid
        else:
            lo = mid
    return rounded(lo)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10**12 - 1), st.integers(3, 30), st.booleans())
@example(2, 755 * 10**9, 30, True)
@example(12, 0, 3, False)
def test_decimal_near_a_rounding_boundary(digits, k, gap, above):
    # q = sqrt(N) / D lies 10^-(digits + gap) above or below the half-digit
    # boundary (2k + 1) / (2 10^digits) in (1, 2), up to 10^-(2 gap) or so
    scale = 10**digits
    boundary = Fraction(2 * (scale + k % scale) + 1, 2 * scale)
    target = boundary + (1 if above else -1) * Fraction(1, 10 ** (digits + gap))
    D = 10 ** (digits + gap + 2)
    N = floor(target**2 * D**2)
    N += isqrt(N) ** 2 == N
    poly = (-N, 0, D * D)
    q = AlgBase.from_poly(poly, 1, 2)
    want = _decimal_by_bisection(poly, Fraction(1), Fraction(2), digits)
    assert q.decimal(digits) == want
    assert int(want.replace(".", "")) == scale + k % scale + above


def test_alpha_digits_frozen():
    assert alpha_digits(PHI, 10) == "10" * 5
    assert alpha_digits(Q_F, 12) == "1100" * 3
    assert alpha_digits(AlgBase.from_rational(2), 6) == "111111"
    tri = base_from_alpha(EPSeq("", "110"))
    assert alpha_digits(tri, 9) == "110" * 3


def test_beta_digits():
    w, finite = beta_digits(PHI, 8)
    assert (w, finite) == ("11", True)
    w, finite = beta_digits(Q_F, 8)
    assert (w, finite) == ("1101", True)
    # over the two-letter alphabet the greedy expansion of 1 at q=2 is all
    # ones and never terminates: 1 = sum 2^-i
    w, finite = beta_digits(AlgBase.from_rational(2), 5)
    assert (w, finite) == ("11111", False)
    # irrational non-ladder base: greedy expansion of 1 does not terminate
    w, finite = beta_digits(Q_S, 12)
    assert not finite and len(w) == 12


def test_alpha_epseq_cycles():
    assert alpha_epseq(PHI) == EPSeq("", "10")
    assert alpha_epseq(Q_F) == EPSeq("", "1100")
    assert alpha_epseq(AlgBase.from_rational(2)) == EPSeq("", "1")
    # rational 3/2: remainder denominators grow forever, no cycle to find
    with pytest.raises(UnsupportedBaseError):
        alpha_epseq(AlgBase.from_rational(Fraction(3, 2)), max_steps=500)
    with pytest.raises(UnsupportedBaseError):
        alpha_epseq(AlgBase.from_poly(Q_S.poly, Fraction(17, 10), Fraction(9, 5)),
                    max_steps=200)


def test_alpha_hint_caching():
    q = base_from_alpha(EPSeq("", "1100"))
    assert q.alpha_hint == EPSeq("", "1100")
    assert alpha_epseq(q) is q.alpha_hint


def test_parry_check():
    assert parry_check(EPSeq("", "10"))
    assert parry_check(EPSeq("", "1100"))
    assert parry_check(EPSeq("", "110"))
    assert parry_check(EPSeq("", "1"))
    assert not parry_check(EPSeq("", "1101"))    # tail 1011... exceeds 1101...
    assert not parry_check(EPSeq("0", "1"))      # must start with 1
    assert not parry_check(EPSeq("", "100110"))  # shift 110100 wins
    with pytest.raises(DomainError):
        parry_check(EPSeq("", "0"))


def _parry_by_digits(s: EPSeq) -> bool:
    """Oracle: Parry's condition digit by digit, each tail after a zero
    compared with s by `lex_cmp`."""
    if s.digit(0) != 1:
        return False
    return all(s.digit(n - 1) == 1 or lex_cmp(shift(s, n), s) <= 0
               for n in range(1, len(s.pre) + len(s.per) + 1))


WORD = st.text("01", max_size=9)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(WORD, WORD.filter(lambda w: "1" in w))
@example("", "1101")
@example("1", "10")
@example("11", "0110")
def test_parry_check_matches_digit_loop(pre, per):
    s = EPSeq(pre, per)
    assert parry_check(s) == _parry_by_digits(s)


def _hint_free(q: AlgBase) -> AlgBase:
    """The same base with no alpha hint, so its expansion of 1 comes from
    the remainder orbit in Q(q)."""
    return AlgBase.from_poly(q.poly, *q.bracket())


ROUNDTRIP_WORDS = ("10", "1100", "110", "1110", "11010010", "111000")


def test_alpha_hint_agrees_with_the_orbit():
    tm = [thue_morse(n) for n in range(1, 25)]
    words = [EPSeq("", w) for w in ROUNDTRIP_WORDS + tuple(tm)]
    # (1) is q = 2, a rational with no orbit to walk
    words = [s for s in words if parry_check(s) and s.per != "1"]
    assert len(words) > len(ROUNDTRIP_WORDS) + 4
    for s in words:
        q = base_from_alpha(s)
        fresh = _hint_free(q)
        assert fresh.alpha_hint is None
        n = 2 * (len(s.pre) + len(s.per)) + 3
        assert alpha_digits(fresh, n) == alpha_digits(q, n) == s.prefix(n)
        assert alpha_epseq(fresh) == alpha_epseq(q) == s


def test_base_from_alpha_roundtrip():
    rng = random.Random(3002)
    for per in ROUNDTRIP_WORDS:
        s = EPSeq("", per)
        assert parry_check(s)
        q = base_from_alpha(s)
        assert alpha_epseq(q) == s
        assert 0 < q.cmp_rational(1) and q.cmp_rational(2) <= 0
    # admissible alpha values sit in order: bigger alpha, bigger base
    bases = [base_from_alpha(EPSeq("", per)) for per in ("10", "1100", "110", "1")]
    seqs = [EPSeq("", per) for per in ("10", "1100", "110", "1")]
    for i in range(len(bases)):
        for j in range(len(bases)):
            assert (lex_cmp(seqs[i], seqs[j]) > 0) == (bases[i].cmp(bases[j]) > 0)
    del rng


def test_base_from_alpha_rejects():
    with pytest.raises(DomainError):
        base_from_alpha(EPSeq("", "1101"))


def test_cmp_seq_alpha_streaming():
    # against a base whose alpha is not known to cycle: q_s, alpha starts 11
    assert cmp_seq_alpha(from_word("11"), Q_S) < 0     # 110^inf < alpha(q_s)
    assert cmp_seq_alpha(EPSeq("", "1"), Q_S) > 0      # 1^inf beats everything
    a = alpha_epseq(Q_F)
    assert cmp_seq_alpha(a, Q_F) == 0
    assert cmp_seq_alpha(parse_epseq("10(10)"), Q_F) < 0
    # matches the hint-based comparison when alpha is periodic
    assert cmp_seq_alpha(parse_epseq("(1100)"), Q_F) == 0


def test_bracket_refine_decimal_consistency():
    q = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
    lo, hi = q.bracket(Fraction(1, 10 ** 20))
    assert hi - lo <= Fraction(1, 10 ** 20)
    assert polys.eval_at(q.minpoly(), lo) < 0 < polys.eval_at(q.minpoly(), hi)
    d = q.decimal(18)
    assert d.startswith("1.710644095045")
    # a width of zero or less would never be reached: refused, not looped on
    before = q.bracket()
    for width in (0, Fraction(-1, 3)):
        with pytest.raises(DomainError):
            q.refine(width)
    assert q.bracket() == before


# ---------------------------------------------------------------------------
# remainder walks with a carried enclosure, against the exact step


def exact_step(r):
    """Oracle: one step of the remainder walk with q r - 1 made by the
    general field multiply and signed exactly, no enclosure carried:
    (digit, sign of q r - 1, next remainder)."""
    t = r * r.field.base_elem() - 1
    s = t.sign()
    return (1, s, t) if s > 0 else (0, s, t + 1)


def exact_alpha_digits(q, n):
    r, out = q.field().one(), []
    for _ in range(n):
        a, _, r = exact_step(r)
        out.append("01"[a])
    return "".join(out)


def exact_beta_digits(q, n):
    r, out = q.field().one(), []
    for _ in range(n):
        a, s, r = exact_step(r)
        if s == 0:
            return "".join(out) + "1", True
        out.append("01"[a])
    return "".join(out), False


def exact_cmp_seq_alpha(t, q, max_steps=100000):
    r, seen = q.field().one(), set()
    k, p = len(t.pre), len(t.per)
    for i in range(max_steps):
        state = (i if i < k else k + (i - k) % p, r)
        if state in seen:
            return 0
        seen.add(state)
        a, _, r = exact_step(r)
        if t.digit(i) != a:
            return -1 if t.digit(i) < a else 1
    raise AssertionError("oracle comparison unresolved")


def walk_enclosures_hold(q, n):
    """Walk the orbit of 1 over n remainders, then materialise each one,
    from the last back to the first, so that each is replayed from the
    anchor the walk left above it: its vector must be the exact step's
    remainder r, and lo <= 2^WALK_BITS r <= hi must hold, by exact
    signs."""
    fld = q.field()
    w = bases._Walk(fld)
    walk = bases._orbit(w, ((1,) + (0,) * (fld.deg - 1), 1), itertools.repeat(None))
    assert [i for i, _, _ in itertools.islice(walk, n)] == list(range(n))
    want = [fld.one()]
    while len(want) < n:
        want.append(exact_step(want[-1])[2])
    scale = 1 << bases.WALK_BITS
    for i in reversed(range(n)):
        assert w.exact(i) == (want[i].num, want[i].den)
        x = want[i] * scale
        lo, hi, *_ = w.states[i]
        assert (x - lo).sign() >= 0 and (hi - x).sign() >= 0


@st.composite
def parry_word(draw):
    """An eventually periodic word that is the quasi-greedy expansion of 1
    of some base in (1, 2)."""
    pre = draw(st.text("01", max_size=5))
    per = draw(st.text("01", min_size=1, max_size=7).filter(lambda w: "1" in w))
    s = EPSeq("1" + pre, per)
    assume(parry_check(s))
    return s


WALK_BITS_TRIED = (8, 24, 128)


def _walk_base(s):
    """The base with quasi-greedy expansion s, its hint dropped so that the
    walks compute the digits."""
    q = base_from_alpha(s)
    q.alpha_hint = None
    return q


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.one_of(parry_word().map(_walk_base), st.sampled_from(ORACLE_FIELDS),
                 RATIONAL_BASES.map(AlgBase.from_rational)),
       st.sampled_from(WALK_BITS_TRIED), WORDS, WORDS.filter(bool))
@example(Q_S, 8, "", "1")
@example(Q_S, 24, "1100100001", "0")
@example(AlgBase.from_rational(Fraction(19, 10)), 8, "", "1")
@example(NON_MONIC[0], 8, "", "1")
@example(NON_MONIC[0], 128, "1000", "01")
@example(NON_MONIC[1], 8, "10", "0")
@example(NON_MONIC[1], 24, "", "10")
def test_walks_match_the_exact_step(q, bits, pre, per):
    want = exact_alpha_digits(q, 600)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bases, "WALK_BITS", bits)
        walk_enclosures_hold(q, 200)
        assert alpha_digits(q, 600) == want
        assert beta_digits(q, 600) == exact_beta_digits(q, 600)
        # a word that follows alpha for a while before it is free to differ
        for t in (EPSeq(pre, per), EPSeq(want[: len(pre)] + pre, per)):
            assert cmp_seq_alpha(t, q, 600) == exact_cmp_seq_alpha(t, q, 600)


def test_parry_walks_give_their_words():
    """A base built from a quasi-greedy word walks back to that word."""
    for word in ("(1100010)", "(100000)", "11(10)", "(1110)", "1(1010010)"):
        s = parse_epseq(word)
        q = _walk_base(s)
        assert alpha_digits(q, 300) == s.prefix(300)
        assert alpha_epseq(q) == s


@pytest.mark.parametrize("word", ["(1100010)", "(100000)", "11(10)", "(1110)",
                                  "1(1010010)", "(110)"])
def test_walk_budgets_end_where_the_cycle_closes(word):
    """The orbit of 1 for the word pre (per) repeats first at step
    L = |pre| + |per|, where it meets the remainder of step |pre| again.
    A walk tests each state before its step, so a budget of L steps
    refuses and L + 1 finds the cycle: in `alpha_epseq`, and in
    `cmp_seq_alpha` of the word against its own base."""
    s = parse_epseq(word)
    L = len(s.pre) + len(s.per)
    with pytest.raises(UnsupportedBaseError):
        alpha_epseq(_walk_base(s), L)
    assert alpha_epseq(_walk_base(s), L + 1) == s
    with pytest.raises(UnsupportedBaseError):
        cmp_seq_alpha(s, _walk_base(s), L)
    assert cmp_seq_alpha(s, _walk_base(s), L + 1) == 0


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(parry_word(), st.sampled_from(WALK_BITS_TRIED))
@example(parse_epseq("1(1010010)"), 8)
@example(parse_epseq("(1100010)"), 24)
def test_walks_close_their_cycle_where_it_closes(s, bits):
    """At every walk width, the orbit of 1 for s = pre (per) meets its
    remainder of step |pre| again first at step L = |pre| + |per|, and
    the walk's lookup by value finds it there and nowhere earlier: a
    budget of L remainders refuses and L + 1 gives s, in `alpha_epseq` and
    in `cmp_seq_alpha` of s against its own base."""
    L = len(s.pre) + len(s.per)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bases, "WALK_BITS", bits)
        with pytest.raises(UnsupportedBaseError):
            alpha_epseq(_walk_base(s), L)
        assert alpha_epseq(_walk_base(s), L + 1) == s
        with pytest.raises(UnsupportedBaseError):
            cmp_seq_alpha(s, _walk_base(s), L)
        assert cmp_seq_alpha(s, _walk_base(s), L + 1) == 0


@pytest.mark.parametrize("word", ["(1100010)", "(100000)", "11(10)", "(1110)", "1(1010010)",
                                  "(110)", "(11010)", "1(100)"])
def test_anchors_wider_than_a_bucket_still_close_the_cycle(monkeypatch, word):
    """Under SIGN_REFINE_BUDGET = 4 every anchor of these walks stays wider
    than a bucket, so each state is met by every lookup: the cycle still
    closes at L = |pre| + |per| and nowhere earlier."""
    monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", 4)
    s = parse_epseq(word)
    L = len(s.pre) + len(s.per)
    walks = []
    init = bases._Walk.__init__

    def kept(w, fld):
        init(w, fld)
        walks.append(w)
    monkeypatch.setattr(bases._Walk, "__init__", kept)
    with pytest.raises(UnsupportedBaseError):
        alpha_epseq(_walk_base(s), L)
    assert alpha_epseq(_walk_base(s), L + 1) == s
    assert walks[-1].wide == tuple(range(1, L))
    with pytest.raises(UnsupportedBaseError):
        cmp_seq_alpha(s, _walk_base(s), L)
    assert cmp_seq_alpha(s, _walk_base(s), L + 1) == 0


@pytest.mark.parametrize("word, steps", [("(1100010)", 7), ("11(10)", 4), ("1(1010010)", 8)])
def test_walks_step_each_remainder_only_when_asked(monkeypatch, word, steps):
    """A walk yields each remainder before it steps it: the cycle that
    closes at L = |pre| + |per| costs L steps in `alpha_epseq` and in
    `cmp_seq_alpha`, and n digits cost n steps.  Each step hands one state
    to `_Walk.add`, and so does the start."""
    counts = {"add": 0}
    _count_calls(monkeypatch, bases._Walk, "add", counts)
    s = parse_epseq(word)
    assert alpha_epseq(_walk_base(s)) == s and counts["add"] == 1 + steps
    counts["add"] = 0
    assert cmp_seq_alpha(s, _walk_base(s)) == 0 and counts["add"] == 1 + steps
    for n in (1, 5, 40):
        counts["add"] = 0
        assert alpha_digits(_walk_base(s), n) == s.prefix(n) and counts["add"] == 1 + n


def _count_calls(monkeypatch, owner, name, counts):
    f = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return f(*args)
    monkeypatch.setattr(owner, name, counted)


def test_narrow_walk_enclosures_re_anchor_and_fall_back(monkeypatch):
    """With few bits the walks re-anchor often (`NumberField.enclose`),
    and at 8 bits, where an enclosure grows to 1/4 before it is re-anchored,
    many signs fall back to the exact test (`AlgBase.sign_of`); the digits
    stay the exact step's."""
    want = [exact_alpha_digits(q, 600) for q in ORACLE_FIELDS]
    counts = {"enclose": 0, "sign_of": 0}
    _count_calls(monkeypatch, bases.NumberField, "enclose", counts)
    _count_calls(monkeypatch, AlgBase, "sign_of", counts)
    for bits in (24, 8):
        monkeypatch.setattr(bases, "WALK_BITS", bits)
        counts.update(enclose=0, sign_of=0)
        assert [alpha_digits(q, 600) for q in ORACLE_FIELDS] == want
        assert counts["enclose"] >= 600 // bits
    assert counts["sign_of"] > 0


def test_q_s_walk_re_anchors_rarely(monkeypatch):
    """At 128 bits the 4,096-step q_s walk signs from its enclosure: it
    re-anchors a few dozen times, each a power-table sum as costly as one
    exact sign."""
    q = _fresh(Q_S)
    want = exact_alpha_digits(q, 4096)
    counts = {"enclose": 0, "sign_of": 0}
    _count_calls(monkeypatch, bases.NumberField, "enclose", counts)
    _count_calls(monkeypatch, AlgBase, "sign_of", counts)
    assert alpha_digits(q, 4096) == want
    assert 0 < counts["enclose"] + counts["sign_of"] <= 4096 // 64


def test_walks_build_no_field_element_per_step(monkeypatch):
    """The 4,096-step q_s refusal of `alpha_epseq`, and the refused count
    at 1(100) in the base of (1100010), walk on bare integer vectors: each
    makes at most 4096 // 64 FieldElem constructions and as many
    reductions, about one per anchor, so no per-step object comes back.
    Each builds its enclosure of q once, not once per step."""
    counts = {"__init__": 0, "reduce": 0, "_enclose_q": 0}
    _count_calls(monkeypatch, bases.FieldElem, "__init__", counts)
    _count_calls(monkeypatch, bases.NumberField, "reduce", counts)
    _count_calls(monkeypatch, bases.NumberField, "_enclose_q", counts)
    refusals = (lambda: alpha_epseq(_fresh(Q_S)),
                lambda: count_expansions("1(100)", base_from_alpha(parse_epseq("(1100010)"))))
    for refused in refusals:
        counts.update(__init__=0, reduce=0, _enclose_q=0)
        with pytest.raises(UnsupportedBaseError):
            refused()
        assert counts["__init__"] <= 4096 // 64 and counts["reduce"] <= 4096 // 64
        assert counts["_enclose_q"] == 1


def _exact_work(job):
    """(states, shifts, digits, _enclose_q calls) of the one walk that job
    makes, refused or not: the states it met, the companion shifts its
    field's table of powers took (`NumberField._powers`), the digits its
    exact vectors were replayed over (`_Walk._replay`), and the enclosures
    of q it built."""
    seen, counts = [], {"digits": 0, "_enclose_q": 0}
    init, replay = bases._Walk.__init__, bases._Walk._replay

    def walk(w, fld):
        init(w, fld)
        seen.append(w)

    def replayed(w, anchor, mask):
        counts["digits"] += mask.bit_length() - 1
        return replay(w, anchor, mask)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bases._Walk, "__init__", walk)
        mp.setattr(bases._Walk, "_replay", replayed)
        _count_calls(mp, bases.NumberField, "_enclose_q", counts)
        try:
            job()
        except UnsupportedBaseError:
            pass
    (w,) = seen
    return len(w.states), len(w.fld._xpow) - 1, counts["digits"], counts["_enclose_q"]


def test_walks_count_their_exact_work(monkeypatch):
    """Exact vectors are made only to re-anchor, to sign near zero, to
    settle a shared bucket or to sign lim - q r: with the escape test
    (`conjugates.escapes`) off, the 4,096-remainder q_s refusal and the two
    count refusals replay at most one digit, and make at most one
    companion shift, per remainder, and build one enclosure of q; a Parry
    walk that closes its cycle, a finite remainder graph with merges, and
    the same three refusals with the escape on, stopped by 512 states, at
    most two per state met (an escape test replays its state from the
    last anchor)."""
    refusals = [lambda: alpha_epseq(_fresh(Q_S)),
                lambda: count_expansions("1(100)", base_from_alpha(parse_epseq("(1100010)"))),
                lambda: count_expansions("110(100)", base_from_alpha(parse_epseq("(100000)")))]
    for job in refusals:
        states, shifts, digits, qencs = _exact_work(job)
        assert states <= 512 and shifts <= 2 * states and digits <= 2 * states and qencs == 1
    with monkeypatch.context() as mp:
        mp.setattr(conjugates, "escapes", lambda w, i: None)
        for job in refusals:
            states, shifts, digits, qencs = _exact_work(job)
            assert states >= 4096 and shifts <= states and digits <= states and qencs == 1
    closing = [lambda: alpha_epseq(_walk_base(parse_epseq("(1100010)"))),
               lambda: alpha_epseq(_walk_base(parse_epseq("1(1010010)"))),
               lambda: count_expansions("100(10)", _fresh(Q_S), 3)]
    for job in closing:
        states, shifts, digits, qencs = _exact_work(job)
        assert shifts <= 2 * states and digits <= 2 * states and qencs == 1


def test_walks_under_a_small_sign_budget(monkeypatch):
    """Under SIGN_REFINE_BUDGET = 15 the exact step gives every digit, and
    so do the walks, whose q enclosure and anchors keep to that budget.
    Under tighter budgets the exact step gives up earlier; a walk never
    gives a wrong digit, and gives up, if at all, only with
    UnsupportedBaseError."""
    def fresh():
        return [AlgBase.from_poly(q.poly, *b) for q, b in zip(ORACLE_FIELDS, ORACLE_BRACKETS)]

    full = [exact_alpha_digits(q, 1500) for q in fresh()]
    monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", 15)
    assert [exact_alpha_digits(q, 1500) for q in fresh()] == full
    assert [alpha_digits(q, 1500) for q in fresh()] == full
    for budget in (4, 8):
        monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", budget)
        for q, want in zip(fresh(), full):
            got = ""
            try:
                walk = bases._walk_of_one(q, itertools.repeat(None))
                for _, a, _ in itertools.islice(walk, 1, 1501):
                    got += "01"[a]
            except UnsupportedBaseError:
                pass
            assert want.startswith(got)


# the brackets ORACLE_FIELDS are built with
ORACLE_BRACKETS = ((Fraction(17, 10), Fraction(9, 5)), (Fraction(13, 10), Fraction(7, 5)),
                   (Fraction(1785, 1000), Fraction(1786, 1000)))


# ---------------------------------------------------------------------------
# conjugate discs and the escape test

# fields whose discs are checked against mpmath's roots: q_s, the bases of
# the two count refusals, the degree-12 and the non-monic oracle fields, and
# a degree-16 field with many conjugates just outside the unit circle
DISC_FIELDS = (Q_S, base_from_alpha(parse_epseq("(1100010)")),
               base_from_alpha(parse_epseq("(100000)")), *ORACLE_FIELDS[1:], NON_MONIC[1],
               AlgBase.from_poly((-1, 0, -1) + (0,) * 13 + (1,), 1, 2))


def _mp_roots(m):
    """The roots of m by mpmath, at the working precision of the caller
    (the tests below run at 60 digits)."""
    return mpmath.polyroots(list(reversed(m)), maxsteps=200, extraprec=400)


def _disc_holds(m, disc, roots) -> bool:
    """Oracle: some root z of m lies in the disc, with |z| >= rho and
    1 / (|z| - 1) at most T and at most t / 2^(K (n - 1))."""
    K, n = conjugates.DISC_BITS, len(m) - 1
    c = mpmath.mpc(disc.x, disc.y) / mpmath.mpf(2) ** K
    T = mpmath.mpf(disc.T.numerator) / disc.T.denominator
    t = mpmath.mpf(disc.t) / mpmath.mpf(2) ** (K * (n - 1))
    return any(abs(z - c) <= mpmath.mpf(disc.r) / mpmath.mpf(2) ** K
               and abs(z) >= mpmath.mpf(disc.rho.numerator) / disc.rho.denominator
               and 1 / (abs(z) - 1) <= min(T, t) for z in roots)


@mpmath.workdps(60)
def test_every_disc_holds_a_conjugate_outside_the_unit_circle():
    """Each disc holds a root of m, of modulus at least rho, whose
    threshold 1 / (|z| - 1) is at most T; every root of modulus above
    1.01 has a disc, and so has no other root."""
    for q in DISC_FIELDS:
        m = q.minpoly()
        roots = _mp_roots(m)
        discs = conjugates.discs(m)
        assert all(_disc_holds(m, d, roots) for d in discs)
        K = conjugates.DISC_BITS
        for z in roots:
            near = [d for d in discs if abs(z - mpmath.mpc(d.x, d.y) / 2**K) <= d.r / 2**K]
            assert bool(near) == (abs(z) > 1) or 1 < abs(z) <= 1.01


@mpmath.workdps(60)
def test_discs_from_a_guess_a_tenth_off():
    """A guess 1/10 outward of a root still gives a disc that holds it:
    the radius covers the offset, and rho and T stay on the safe side of
    the root's own modulus though |c| lies above it.  On such a disc the
    escape test of round(N (x - z)), small at a real root z and about N/10
    at c, holds only where the image at z is past 1 / (|z| - 1)."""
    K = conjugates.DISC_BITS
    for m in ((-11, 1, 1), (5, -1, 1), (-1, -1, -2, 0, 1)):
        for z in _mp_roots(m):
            if abs(z) < 1.3:
                continue
            c = z * (1 + mpmath.mpf(1) / (10 * abs(z)))
            disc = conjugates._disc(m, int(mpmath.nint(c.real * 2**K)), int(mpmath.nint(c.imag * 2**K)))
            assert disc is not None and _disc_holds(m, disc, [z])
            assert disc.r / 2**K >= 0.1
            if mpmath.im(z) == 0:
                for N in (10, 1000, 10**6):
                    num = (int(mpmath.nint(-N * z)), N) + (0,) * (len(m) - 3)
                    if conjugates.escape([disc], num, 1):
                        assert abs(num[0] + N * z) > 1 / (abs(z) - 1)


def test_no_disc_for_a_field_above_the_degree_cap():
    q = AlgBase.from_poly((-1, 0, -1) + (0,) * (conjugates.DISC_MAX_DEGREE - 2) + (1,), 1, 2)
    assert q.field().deg == conjugates.DISC_MAX_DEGREE + 1 and conjugates.discs(q.minpoly()) == []


def test_root_guesses_converge_far_above_the_degree_cap():
    """Durand-Kerner started on the unit circle certifies discs about more
    than half the roots of x^146 - x - 1, the least n for which starts at
    (0.4 + 0.9 i)^k, whose moduli shrink as 0.985^k, certified none.  Only
    `discs` caps the degree."""
    m = (-1, -1) + (0,) * 144 + (1,)
    found = [d for d in (conjugates._disc(m, *c) for c in conjugates._root_guesses(m)) if d]
    assert len(found) > 146 // 2 and all(d.rho > 1 for d in found)


@mpmath.workdps(60)
def test_escapes_only_past_a_conjugates_threshold():
    """Along the q_s orbit the escape test fires from step 4 on, and each
    time some conjugate z with |z| > 1 takes the state past
    1 / (|z| - 1); on the orbit of the degree-12 oracle field likewise
    whenever it fires."""
    for q, bracket, steps in ((Q_S, ORACLE_BRACKETS[0], 80),
                              (ORACLE_FIELDS[2], ORACLE_BRACKETS[2], 200)):
        fld = AlgBase.from_poly(q.poly, *bracket).field()
        roots = [z for z in _mp_roots(q.minpoly()) if abs(z) > 1]
        w = bases._Walk(fld)
        assert fld.discs is None
        orbit = bases._orbit(w, ((1,) + (0,) * (fld.deg - 1), 1), itertools.repeat(0))
        fired = []
        for step, (i, _, _) in enumerate(itertools.islice(orbit, steps)):
            if conjugates.escapes(w, i):
                fired.append(step)
                num, den = w.exact(i)
                assert any(abs(sum(a * z**k for k, a in enumerate(num))) / den > 1 / (abs(z) - 1)
                           for z in roots)
        # the field's discs, made by the first test and kept
        assert fld.discs == conjugates.discs(q.minpoly())
        if q is Q_S:
            assert fired == list(range(4, steps))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(parry_word())
@example(parse_epseq("(1100010)"))
@example(parse_epseq("(100000)"))
def test_no_state_of_a_closing_orbit_escapes(s):
    """On a base built by `from_poly` from an admissible word, so that no
    alpha hint applies, no state of the orbit of 1 escapes, and
    `alpha_epseq` gives the word with the escape test on and off."""
    b = base_from_alpha(s)
    assume(b.exact_rational is None)
    q = AlgBase.from_poly(b.poly, *b.bracket())
    assert q.alpha_hint is None and alpha_epseq(q) == s
    fld = q.field()
    w = bases._Walk(fld)
    orbit = bases._orbit(w, ((1,) + (0,) * (fld.deg - 1), 1), itertools.repeat(0))
    for step, (i, _, _) in enumerate(orbit):
        if i != step:
            break
        assert conjugates.escapes(w, i) is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjugates, "escapes", lambda w, i: None)
        assert alpha_epseq(AlgBase.from_poly(b.poly, *b.bracket())) == s


def _budget_refuses(q, max_steps=4096) -> bool:
    """The budget route: no remainder of the orbit of 1 recurs within
    max_steps remainders."""
    walk = bases._walk_of_one(q, itertools.repeat(0))
    return all(i == step for step, (i, _, _) in enumerate(itertools.islice(walk, max_steps)))


@st.composite
def non_monic_quadratic(draw):
    """An irreducible primitive a x^2 + b x + c, a >= 2, with one root in
    (1, 2), and that base."""
    a, b, c = draw(st.integers(2, 6)), draw(st.integers(-14, 14)), draw(st.integers(-14, 14))
    disc = b * b - 4 * a * c
    assume(gcd(a, b, c) == 1 and disc > 0 and isqrt(disc) ** 2 != disc)
    p = (c, b, a)
    assume(polys.count_roots_halfopen(p, 1, 2) == 1 and polys.sign_at_rational(p, 2))
    return AlgBase.from_poly(p, 1, 2)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.one_of(RATIONAL_BASES.filter(lambda r: r < 2).map(AlgBase.from_rational),
                 non_monic_quadratic()))
@example(AlgBase.from_rational(Fraction(101, 100)))
@example(AlgBase.from_rational(Fraction(3, 2)))
@example(NON_MONIC[0])
@example(NON_MONIC[1])
def test_a_base_that_is_no_algebraic_integer_is_refused_before_walking(q):
    """The integrality gate refuses at once where the budget route walks
    all 4,096 remainders and refuses; expansion counting keeps no gate,
    as the graphs of 0 and 1 / (q - 1) are finite for every q."""
    walks = []
    init = bases._Walk.__init__

    def kept(w, fld):
        init(w, fld)
        walks.append(w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bases._Walk, "__init__", kept)
        with pytest.raises(UnsupportedBaseError, match="not an algebraic integer"):
            alpha_epseq(q)
    assert walks == []
    assert _budget_refuses(q)
    assert count_expansions(Fraction(0), q) == count_expansions("(1)", q) == CountResult(1)
