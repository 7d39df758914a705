"""Integer/rational polynomial helpers: arithmetic, Sturm counting, root
isolation, and the integer sign kernels against Fraction oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twobases import polys
from twobases.errors import DomainError

ORACLE = settings(max_examples=400, derandomize=True, database=None, deadline=None)


def interval_eval(p, lo, hi) -> tuple:
    """Oracle: enclosure of p over [lo, hi] by interval Horner in Fractions."""
    alo, ahi = Fraction(0), Fraction(0)
    for a in reversed(p):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + a, max(prods) + a
    return alo, ahi


def divmod_exact(p, q):
    """Oracle: quotient and remainder over the rationals.  q must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(a) for a in p]
    d = len(q) - 1
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(0, len(p) - d)
    for i in range(len(p) - 1, d - 1, -1):
        if r[i] == 0:
            continue
        c = r[i] / lead
        quot[i - d] = c
        for j, b in enumerate(q):
            r[i - d + j] -= c * b
    return polys.trim(quot), polys.trim(r)


def _root_factor(x):
    return (-x.numerator, x.denominator)


COEFFS = st.one_of(st.integers(-30, 30), st.integers(-10**40, 10**40),
                   st.fractions(max_denominator=10**6))
POLYS = st.lists(COEFFS, max_size=12).map(polys.trim)
POINTS = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
                   st.fractions(-5, 5, max_denominator=30),
                   st.fractions(-3, 3, max_denominator=10**30))


@st.composite
def poly_and_point(draw):
    p, x = draw(POLYS), draw(POINTS)
    if draw(st.booleans()):
        p = polys.mul(p, _root_factor(x))   # x is then an exact root
    return p, draw(st.sampled_from((x, int(x)) if x.denominator == 1 else (x,)))


def test_trim_and_degree():
    assert polys.trim([1, 2, 0, 0]) == (1, 2)
    assert polys.trim([0, 0]) == ()
    assert polys.degree((1, 2)) == 1
    assert polys.degree(()) == -1
    assert polys.is_zero(())
    assert not polys.is_zero((3,))


def test_arithmetic_agrees_with_evaluation():
    rng = random.Random(1001)
    for _ in range(200):
        p = polys.trim([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
        q = polys.trim([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
        x = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        assert polys.eval_at(polys.add(p, q), x) == polys.eval_at(p, x) + polys.eval_at(q, x)
        assert polys.eval_at(polys.mul(p, q), x) == polys.eval_at(p, x) * polys.eval_at(q, x)
        assert polys.eval_at(polys.sub(p, q), x) == polys.eval_at(p, x) - polys.eval_at(q, x)
        assert polys.eval_at(polys.neg(p), x) == -polys.eval_at(p, x)
        assert polys.eval_at(polys.shift(p, 3), x) == polys.eval_at(p, x) * x ** 3


def test_divmod_exact_roundtrip():
    rng = random.Random(1002)
    for _ in range(100):
        q = polys.trim([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [1])
        r = polys.trim([rng.randint(-4, 4) for _ in range(polys.degree(q))])
        m = polys.trim([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))])
        p = polys.add(polys.mul(m, q), r)
        mm, rr = divmod_exact(p, q)
        assert mm == m and rr == r
        # q is monic, so the integer division needs no scaling
        assert polys.pseudo_divmod(p, q) == (1, m, r)


INT_COEFFS = st.one_of(st.integers(-30, 30), st.integers(-10**30, 10**30))
INT_POLYS = st.lists(INT_COEFFS, max_size=12).map(polys.trim)
DIVISORS = st.lists(INT_COEFFS, max_size=6).map(polys.trim)


@st.composite
def division_case(draw):
    """A dividend and a nonzero divisor, which is monic, has a negative
    leading coefficient, is arbitrary, or divides the dividend in Z[x]."""
    kind = draw(st.sampled_from(("monic", "negative", "any", "exact")))
    b = draw(DIVISORS)
    if kind == "monic":
        lead = 1
    elif kind == "negative":
        lead = -draw(st.integers(1, 10**6))
    else:
        lead = draw(INT_COEFFS.filter(bool))
    b = b + (lead,)
    if kind == "exact":
        return polys.mul(draw(INT_POLYS), b), b, kind
    return draw(INT_POLYS), b, kind


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(division_case())
@example(((1, 2, 3, 4, 5), (3, -2, 7), "any"))
@example(((), (2,), "any"))
def test_pseudo_divmod_matches_fraction_division(case):
    a, b, kind = case
    k, quo, rem = polys.pseudo_divmod(a, b)
    assert type(k) is int and k > 0
    assert all(type(c) is int for c in quo + rem)
    assert polys.degree(rem) < polys.degree(b)
    assert polys.add(polys.mul(quo, b), rem) == polys.mul((k,), a)
    oq, orem = divmod_exact(a, b)
    assert tuple(Fraction(c, k) for c in quo) == oq
    assert tuple(Fraction(c, k) for c in rem) == orem
    if kind in ("monic", "exact"):
        assert k == 1
    if kind == "exact":
        assert not rem


def test_content_and_to_int():
    assert polys.content((Fraction(2, 3), Fraction(4, 3))) == Fraction(2, 3)
    assert polys.to_int_poly((Fraction(2, 3), Fraction(4, 3))) == (1, 2)
    assert polys.to_int_poly((-2, -4)) == (-1, -2)


def test_gcd_and_squarefree():
    # (x-1)^2 (x+2)
    p = polys.mul(polys.mul((-1, 1), (-1, 1)), (2, 1))
    sf = polys.squarefree_part(p)
    assert polys.eval_at(sf, 1) == 0 and polys.eval_at(sf, -2) == 0
    assert polys.degree(sf) == 2
    g = polys.poly_gcd(p, polys.derivative(p))
    assert polys.degree(g) == 1 and polys.eval_at(g, 1) == 0


def _fraction_primitive(p):
    c = polys.content(p)
    return tuple(int(Fraction(a) / c) for a in p)


def fraction_gcd(p, q):
    """Oracle: gcd by the Euclid algorithm over the rationals."""
    a, b = polys.trim(p), polys.trim(q)
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if not a:
        return ()
    a = _fraction_primitive(a)
    return a if a[-1] > 0 else polys.neg(a)


def fraction_squarefree_part(p):
    """Oracle: p over its rational gcd with p', made primitive."""
    p = polys.trim(p)
    if polys.degree(p) <= 0:
        return _fraction_primitive(p) if p else ()
    g = fraction_gcd(p, polys.derivative(p))
    q, r = divmod_exact(p, g)
    assert not r
    return _fraction_primitive(q)


def fraction_sturm_chain(p):
    """Oracle: Sturm chain by rational remainders, each entry made
    primitive with a positive multiplier."""
    chain = [_fraction_primitive(p)]
    d = polys.derivative(chain[0])
    if d:
        chain.append(_fraction_primitive(d))
    while len(chain[-1]) > 1:
        _, r = divmod_exact(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_fraction_primitive(polys.neg(r)))
    return chain


FACTORS = st.lists(st.integers(-9, 9), min_size=2, max_size=4).map(polys.trim).filter(
    lambda f: polys.degree(f) >= 1)


@st.composite
def factored_poly(draw):
    """A product of small factors, some repeated, times a unit or content of
    either sign, so leading coefficients of both signs occur."""
    p = (draw(st.sampled_from((1, -1, 6, -4, Fraction(-2, 3)))),)
    for f, e in draw(st.lists(st.tuples(FACTORS, st.integers(1, 3)), max_size=4)):
        for _ in range(e):
            p = polys.mul(p, f)
    if draw(st.booleans()):
        p = polys.add(p, polys.trim(draw(st.lists(st.integers(-10**12, 10**12), max_size=6))))
    return p


REMAINDER_CASES = st.one_of(
    st.tuples(factored_poly(), factored_poly()),
    st.tuples(factored_poly(), factored_poly(), factored_poly()).map(
        lambda t: (polys.mul(t[0], t[2]), polys.mul(t[1], t[2]))),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(REMAINDER_CASES)
@example(((-1, 1, -2, 1), polys.mul((-1, 1, -2, 1), (1, 1))))
@example((polys.mul((3, -1), (3, -1)), (2, 0, -5)))
def test_remainder_sequences_match_fraction_euclid(case):
    p, q = case
    assert polys.poly_gcd(p, q) == fraction_gcd(p, q)
    for f in (p, q):
        sf = polys.squarefree_part(f)
        assert sf == fraction_squarefree_part(f)
        if f:
            assert polys.sturm_chain(f) == fraction_sturm_chain(f)
            assert polys.sturm_chain(sf) == fraction_sturm_chain(sf)


def test_remainder_sequences_match_fraction_euclid_at_degree_49():
    from twobases.b2core import f_minpoly
    from twobases.enum_b2 import GEN0, prop62_pair

    F = f_minpoly(*prop62_pair(GEN0, 5))
    assert polys.degree(F) == 49
    G = polys.mul(polys.neg(F), (1, 1, 3))   # negative leading coefficient
    H = polys.mul(G, (2, -3))
    for p in (F, G, polys.mul(H, (2, -3))):
        assert polys.squarefree_part(p) == fraction_squarefree_part(p)
        assert polys.sturm_chain(p) == fraction_sturm_chain(p)
    assert polys.poly_gcd(G, H) == fraction_gcd(G, H) == polys.neg(G)
    assert polys.poly_gcd(F, polys.derivative(F)) == fraction_gcd(F, polys.derivative(F))


def test_root_counts_refuse_empty_brackets_and_zero():
    for bad in (lambda: polys.count_roots_halfopen((-2, 0, 1), 2, 1),
                lambda: polys.count_roots_halfopen((-2, 0, 1), 1, 1),
                lambda: polys.count_roots_halfopen((), 0, 1),
                lambda: polys.isolate_roots((-2, 0, 1), Fraction(2), Fraction(1)),
                lambda: polys.isolate_roots((0, 0), Fraction(0), Fraction(1))):
        with pytest.raises(DomainError):
            bad()


def test_sturm_root_count():
    # x^2 - 2 has one root in (1, 2], none in (3, 4]
    p = (-2, 0, 1)
    assert polys.count_roots_halfopen(p, 1, 2) == 1
    assert polys.count_roots_halfopen(p, 3, 4) == 0
    # golden ratio polynomial
    assert polys.count_roots_halfopen((-1, -1, 1), 1, 2) == 1
    # (x-1)(x-3/2)(x-2): all three in (1/2, 2]
    q = polys.mul(polys.mul((-1, 1), (-3, 2)), (-2, 1))
    assert polys.count_roots_halfopen(q, Fraction(1, 2), 2) == 3


def test_isolate_single_root():
    p = (-2, 0, 1)
    boxes = polys.isolate_roots(p, Fraction(0), Fraction(2))
    assert len(boxes) == 1
    lo, hi = boxes[0]
    assert 0 <= lo and hi <= 2 and lo * lo < 2 <= hi * hi


def test_isolate_many_roots():
    rng = random.Random(1003)
    for _ in range(40):
        roots = sorted(rng.sample(range(-6, 7), rng.randint(1, 4)))
        p = (1,)
        for r in roots:
            p = polys.mul(p, (-r, 1))
        got = polys.isolate_roots(p, Fraction(-8), Fraction(8))
        assert len(got) == len(roots)
        for (lo, hi), r in zip(got, roots):
            assert lo < r <= hi or lo == r  # each box holds its root


def test_isolate_roots_on_bisection_midpoints():
    # roots sit on the dyadic points the bisection of (-8, 8] visits, some
    # repeated, some with an irrational pair beside them
    rng = random.Random(1005)
    lo, hi = Fraction(-8), Fraction(8)
    dyadic = [Fraction(k, 2 ** j) for j in range(4) for k in range(-8 * 2 ** j + 1, 8 * 2 ** j)]
    for _ in range(60):
        roots = set(rng.sample(dyadic, rng.randint(1, 6)))
        if rng.random() < 0.3:
            roots.add(Fraction(rng.randint(-20, 20), 7))
        p = (rng.choice((1, -3)),)
        for r in roots:
            for _ in range(rng.randint(1, 2)):
                p = polys.mul(p, _root_factor(r))
        surd = rng.random() < 0.3
        if surd:
            p = polys.mul(p, (-2, 0, 1))
        boxes = polys.isolate_roots(p, lo, hi)
        total = polys.count_roots_halfopen(p, lo, hi)
        assert len(boxes) == total == len(roots) + 2 * surd
        prev = lo
        for a, b in boxes:
            assert prev <= a < b
            assert polys.count_roots_halfopen(p, a, b) == 1
            prev = b
        ends = sorted(roots | {lo, hi, Fraction(0)})
        for _ in range(10):
            a, b = sorted(rng.sample(ends, 2))
            want = sum(1 for r in roots if a < r <= b)
            want += sum(1 for s in (-1, 1) if surd and _sqrt2_in(s, a, b))
            assert polys.count_roots_halfopen(p, a, b) == want


def _sqrt2_in(s, a, b) -> bool:
    """Is s*sqrt(2) (s = +-1) in (a, b]?  Decided exactly by squares."""
    def above(x):   # s*sqrt(2) > x
        return (x < 0 or x * x < 2) if s > 0 else (x < 0 and x * x > 2)
    return above(a) and not above(b)


@ORACLE
@given(poly_and_point())
def test_sign_at_rational_matches_eval_at(case):
    p, x = case
    assert polys.sign_at_rational(p, x) == polys._sign(polys.eval_at(p, x))


def test_factor_int_reassembles():
    p = polys.mul(polys.mul((-1, -1, 1), (-1, 1)), (-1, 1))
    fac = polys.factor_int(p)
    total = (1,)
    for g, e in fac:
        for _ in range(e):
            total = polys.mul(total, g)
    # up to the content sign, the product of factors matches
    assert polys.to_int_poly(total) == polys.to_int_poly(p)
    assert any(g == (-1, -1, 1) for g, _ in fac)
    assert any(g == (-1, 1) and e == 2 for g, e in fac)


CYCLOTOMIC = ((-1, 1), (1, 1), (1, 0, 1), (1, 0, 0, 0, 1), (1, 1, 1), (1, -1, 1))
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)   # Salem root 1.17628...
NON_RECIPROCAL = ((-1, -1, 1), (-1, 1, -2, 1), (-2, 0, 1), (-3, 2), (-1, -1, -2, 0, 1))


def _reversed(f):
    return polys.trim(reversed(f))


@st.composite
def planted_poly(draw):
    """A product of planted factors: cyclotomic ones, Lehmer's polynomial,
    x, non-reciprocal ones with or without their reversal, and small
    arbitrary ones, some repeated, times a unit or content of either sign."""
    p = (draw(st.sampled_from((1, -1, 3, -2))),)
    pool = st.sampled_from(CYCLOTOMIC + NON_RECIPROCAL + (LEHMER, (0, 1)))
    for f, e in draw(st.lists(st.tuples(st.one_of(pool, FACTORS), st.integers(1, 2)),
                              min_size=1, max_size=4)):
        for _ in range(e):
            p = polys.mul(p, f)
        if draw(st.booleans()):
            p = polys.mul(p, _reversed(f))
    return p


@st.composite
def planted_case(draw):
    """A planted polynomial and a bracket, mostly inside [1, 2]."""
    p = draw(planted_poly())
    ends = st.fractions(1, 2, max_denominator=40) if draw(st.integers(0, 3)) else \
        st.fractions(-3, 3, max_denominator=12)
    lo, hi = sorted((draw(ends), draw(ends)))
    if lo == hi:
        lo, hi = Fraction(1), Fraction(2)
    return p, lo, hi


def whole_root_factors(p, lo, hi):
    """Oracle: factor p whole, then keep the factors with a root in (lo, hi]."""
    out = []
    for f, _ in polys.factor_int(p):
        n = polys.count_roots_halfopen(f, lo, hi)
        if n:
            out.append((f, n))
    return out


def whole_real_roots(F, lo, hi):
    """Oracle: (factor, bracket) of each root bases.real_roots finds, from
    factoring F whole, in the same order."""
    out = []
    for g, _ in polys.factor_int(F):
        if polys.degree(g) == 1:
            r = Fraction(-g[0], g[1])
            if lo < r <= hi:
                out.append((g, (r, r)))
        else:
            out.extend((g, box) for box in polys.isolate_roots(g, lo, hi))
    return out


def whole_minpoly(p, lo, hi):
    """Oracle: the one factor of p, factored whole, with exactly one root in
    (lo, hi], or None when there is not exactly one such factor."""
    hits = [f for f, _ in polys.factor_int(p) if polys.count_roots_halfopen(f, lo, hi) == 1]
    return hits[0] if len(hits) == 1 else None


def _minpoly_or_none(base):
    try:
        return base.minpoly()
    except DomainError:
        return None


# Lehmer times cyclotomic factors and x - 3: the root in (1, 2] lies in the
# reciprocal part, and the other part has no root there
LEHMER_CASE = polys.mul(polys.mul(LEHMER, polys.mul((1, 1), (1, -1, 1))), (-3, 1))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(planted_case())
@example((LEHMER_CASE, Fraction(1), Fraction(2)))
@example((polys.mul((-1, -1, 1), (1, -1, -1)), Fraction(-1), Fraction(2)))
@example((polys.mul(LEHMER, polys.mul((-6, 5), (-7, 4))), Fraction(1), Fraction(2)))
@example((polys.neg(polys.mul(polys.mul((0, 1), (0, 1)), (-2, 0, 1))), Fraction(-2), Fraction(2)))
def test_root_factors_match_factoring_whole(case):
    from twobases.bases import AlgBase, real_roots

    p, lo, hi = case
    assert polys.root_factors(p, lo, hi) == whole_root_factors(p, lo, hi)
    if not (1 <= lo < hi <= 2):
        return
    want = whole_real_roots(p, lo, hi)
    assert [(r.minpoly(), r.bracket()) for r in real_roots(p, lo, hi)] == want
    sf = polys.squarefree_part(p)
    # a bracket of sf's sign change, whole or around one root, gets the
    # minimal polynomial factoring whole gives, or the same refusal
    for a, b in [(lo, hi)] + [box for g, box in want if polys.degree(g) > 1]:
        if polys.sign_at_rational(sf, a) * polys.sign_at_rational(sf, b) < 0:
            base = AlgBase.from_bracket(sf, a, b)
            assert _minpoly_or_none(base) == whole_minpoly(p, a, b)


def test_root_factors_on_the_ladder_polynomial_of_q6(monkeypatch):
    from twobases.enum_b2 import GEN0, qn_ladder

    q6 = qn_ladder(GEN0, 6)[5].base
    lo, hi = q6.bracket()
    assert polys.degree(q6.poly) == 64
    degrees = []
    factor_int = polys.factor_int

    def recorded(p):
        degrees.append(polys.degree(p))
        return factor_int(p)
    monkeypatch.setattr(polys, "factor_int", recorded)
    got = polys.root_factors(q6.poly, lo, hi)
    # (q^64 - 1)/(q - 1) divides out: only the degree-33 part is factored
    assert degrees == [33]
    assert [(polys.degree(f), n) for f, n in got] == [(33, 1)]
    assert got == whole_root_factors(q6.poly, lo, hi)
    # the Lehmer case factors its reciprocal part only, chosen by its count
    degrees.clear()
    assert polys.root_factors(LEHMER_CASE, 1, 2) == [(LEHMER, 1)]
    assert degrees == [13]


def test_interval_eval_contains_value():
    rng = random.Random(1004)
    for _ in range(60):
        p = polys.trim([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        a = Fraction(rng.randint(-4, 3), rng.randint(1, 5))
        b = a + Fraction(rng.randint(1, 4), rng.randint(1, 5))
        lo, hi = interval_eval(p, a, b)
        for t in (a, b, (a + b) / 2):
            v = polys.eval_at(p, t)
            assert lo <= v <= hi


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        polys.pseudo_divmod((1,), ())
    with pytest.raises(ZeroDivisionError):
        divmod_exact((1,), ())
