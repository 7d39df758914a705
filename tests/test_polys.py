"""Integer/rational polynomial helpers: arithmetic, Sturm counting, root
isolation."""

import random
from fractions import Fraction

import pytest

from twobases import polys
from twobases.errors import DomainError


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
        mm, rr = polys.divmod_exact(p, q)
        assert mm == m and rr == r


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


def test_interval_eval_contains_value():
    rng = random.Random(1004)
    for _ in range(60):
        p = polys.trim([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        a = Fraction(rng.randint(-4, 3), rng.randint(1, 5))
        b = a + Fraction(rng.randint(1, 4), rng.randint(1, 5))
        lo, hi = polys.interval_eval(p, a, b)
        for t in (a, b, (a + b) / 2):
            v = polys.eval_at(p, t)
            assert lo <= v <= hi


def test_divmod_by_zero():
    with pytest.raises((DomainError, ZeroDivisionError)):
        polys.divmod_exact((1,), ())
