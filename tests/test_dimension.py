"""Alive-word automaton, topological entropy enclosures, Hausdorff dimension
of the unique-expansion set, and the local two-expansion bound."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobases import dimension
from twobases.bases import AlgBase, alpha_epseq, base_from_alpha, parry_check
from twobases.dimension import (
    UqAutomaton, _charpoly,
    b2_local_bound, brute_count_words, build_automaton, dim_U, entropy,
    overapprox_pool, path_counts, uq_automaton,
)
from twobases.errors import DomainError
from twobases.words import EPSeq, parse_epseq, thue_morse

PHI = AlgBase.from_poly((-1, -1, 1), Fraction(3, 2), Fraction(17, 10))
Q_F = AlgBase.from_poly((-1, 1, -2, 1), Fraction(17, 10), Fraction(9, 5))
PHI3 = base_from_alpha(EPSeq("", "110"))
FAT4 = base_from_alpha(EPSeq("", "1110"))
TWO = AlgBase.from_rational(2)
ALPHAS = [EPSeq("", p) for p in ("10", "1100", "110", "1110", "11010011")]


def test_automaton_counts_match_brute_force():
    for a in ALPHAS:
        aut = uq_automaton(a)
        got = path_counts(aut, 9)
        want = [brute_count_words(a, n) for n in range(1, 10)]
        assert got == want


def test_build_automaton_uses_quasi_greedy_expansion():
    for q in (PHI, Q_F, PHI3, TWO):
        assert build_automaton(q).alpha == alpha_epseq(q)
    aut = build_automaton(PHI3)
    assert aut.size == 7


def test_counts_submultiplicative_on_doubling():
    # W(2n) <= W(n)^2 exactly, which is the finite-level certificate that
    # every (log W(n))/n upper-bounds the growth rate
    for a in ALPHAS:
        counts = path_counts(uq_automaton(a), 24)
        for n in range(1, 13):
            assert counts[2 * n - 1] <= counts[n - 1] ** 2


def test_entropy_zero_certificates():
    for q in (PHI, Q_F):
        r = entropy(q)
        assert r.zero and r.lower == 0 == r.upper and r.growth is None


def test_entropy_exact_values():
    r = entropy(PHI3)
    assert not r.zero
    assert r.lower <= r.upper and r.upper - r.lower < Fraction(1, 10**15)
    assert abs(r.lower - Fraction(4812118250, 10**10)) < Fraction(1, 10**9)
    assert r.growth.minpoly() == (-1, -1, 1)   # golden-ratio growth
    r = entropy(TWO)
    assert abs(r.lower - Fraction(6931471805, 10**10)) < Fraction(1, 10**9)
    assert r.growth.cmp_rational(2) == 0
    r = entropy(FAT4)
    assert r.growth.minpoly() == (-1, -1, -1, 1)
    assert abs(r.lower - Fraction(609378, 10**6)) < Fraction(1, 10**5)


def test_entropy_n_bound_dominates():
    for q in (PHI, Q_F, PHI3, FAT4, TWO):
        r = entropy(q)
        assert r.upper <= r.n_bound


def test_entropy_json_shape():
    j = entropy(PHI3).to_json()
    assert set(j) >= {"states", "entropy_log", "n_bound", "nmax", "zero"}
    lo, hi = (Fraction(t) for t in j["entropy_log"])
    assert lo <= hi
    assert j["growth"]["minpoly"] == [-1, -1, 1]


def test_dimension_frozen():
    lo, hi = dim_U(TWO)
    assert (lo, hi) == (1, 1)
    assert dim_U(Q_F) == (0, 0)
    lo, hi = dim_U(PHI3)
    assert Fraction(7896772330, 10**10) <= lo <= hi <= Fraction(7896772331, 10**10)


def test_dimension_sandwich_for_unsupported_alpha():
    # the smallest two-expansion base has an aperiodic expansion of 1; both
    # ladder neighbours carry zero entropy, so the enclosure collapses
    q_s = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
    assert dim_U(q_s) == (0, 0)
    lo, hi = dim_U(AlgBase.from_rational(Fraction(19, 10)))
    assert Fraction(74, 100) < lo <= hi <= 1


def test_overapprox_pool_structure():
    pool = overapprox_pool()
    for a, b in zip(pool, pool[1:]):
        assert a.cmp(b) < 0
    assert pool[-1].cmp_rational(2) == 0
    assert any(p.same_value(PHI3) for p in pool)
    # an admissible base within 4e-6 above the univoque threshold exists
    close = [p for p in pool
             if p.cmp_rational(Fraction(178723166, 10**8)) > 0
             and p.cmp_rational(Fraction(178723200, 10**8)) < 0]
    assert close and close[0].decimal(10) == "1.7872319133"


def test_pool_entropy_monotone():
    pool = overapprox_pool()
    rs = [entropy(p, nmax=12) for p in pool]
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            assert rs[i].lower <= rs[j].upper


def test_local_bound_certifies_below_one():
    q20 = base_from_alpha(EPSeq("", thue_morse(20)))
    assert parry_check(EPSeq("", thue_morse(20)))
    assert q20.decimal(10) == "1.7872319133"
    lo, hi = b2_local_bound(q20, Fraction(1, 10**6))
    assert 0 <= lo <= hi < 1
    assert float(hi) < 0.42


def test_local_bound_validation():
    q20 = base_from_alpha(EPSeq("", thue_morse(20)))
    with pytest.raises(DomainError):
        b2_local_bound(q20, Fraction(-1))
    with pytest.raises(DomainError):
        b2_local_bound(q20, Fraction(1, 2))       # exceeds (2 - q)/3
    with pytest.raises(DomainError):
        b2_local_bound(AlgBase.from_rational(Fraction(51, 50)), Fraction(1, 25))


def _sympy_charpoly(aut):
    """Oracle: sympy's characteristic polynomial of the dense matrix."""
    import sympy

    desc = sympy.Matrix(aut.matrix()).charpoly().all_coeffs()
    return tuple(int(c) for c in reversed(desc))


@pytest.mark.parametrize("text", ["(10)", "(110)", "(1110)", "(11010)", "11(10)",
                                  "110(1)", "1101(0011)", "11101(10110)",
                                  "11010011001011010(01)", "110100110010110(1001)"])
def test_charpoly_matches_sympy_on_automata(text):
    aut = uq_automaton(parse_epseq(text))
    assert _charpoly(aut) == _sympy_charpoly(aut)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 14).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=2).map(lambda ts: tuple(enumerate(ts))),
    min_size=n, max_size=n)))
def test_charpoly_matches_sympy_on_sparse_matrices(edges):
    """Random matrices with at most two ones per row, as the automata
    have; a repeated target makes an entry 2."""
    aut = UqAutomaton(None, tuple(range(len(edges))), tuple(edges))
    assert _charpoly(aut) == _sympy_charpoly(aut)


def _iv_log(x, prec):
    """Oracle: mpmath.iv.log of x at prec bits, as two Fractions."""
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        v = mpmath.iv.log(mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator))
        return tuple(Fraction(-int(man) if sign else int(man)) * Fraction(2) ** int(exp)
                     for sign, man, exp, _bc in v._mpi_)
    finally:
        mpmath.iv.prec = old


def _is_float120(v):
    """v = m 2^e with |m| < 2^120."""
    m, d = v.numerator, v.denominator
    while m and m % 2 == 0:
        m //= 2
    return d & (d - 1) == 0 and abs(m).bit_length() <= 120


def _ulp120(v):
    """One unit in the last place of a 120-bit float of magnitude |v| > 0."""
    v = abs(v)
    e = v.numerator.bit_length() - v.denominator.bit_length()
    if v < Fraction(2) ** e:
        e -= 1
    return Fraction(2) ** (e - 119)


POSITIVE_RATIONALS = st.one_of(
    st.builds(Fraction, st.integers(1, 2 ** 300), st.integers(1, 2 ** 300)),
    st.builds(lambda p, d: Fraction(p, p + d), st.integers(1, 2 ** 100), st.integers(1, 2 ** 100)),
    st.builds(lambda j, i, s: 1 + s * Fraction(1, j * 2 ** (100 + i)),
              st.integers(1, 2 ** 20), st.integers(0, 200), st.sampled_from((1, -1))),
    st.integers(-300, 300).map(lambda k: Fraction(2) ** k),
    st.integers(1, 2 ** 96).map(Fraction),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(POSITIVE_RATIONALS)
def test_log_bounds_enclose_log(x):
    """The ends are 120-bit floats around log x, and at most two units in
    the last place apart when x itself is a 120-bit float; otherwise the
    outward rounding of x adds at most x's relative spacing, 2^-119."""
    lo, hi = dimension._log_bounds(x)
    L, H = _iv_log(x, 400)
    assert lo <= L and hi >= H
    assert _is_float120(lo) and _is_float120(hi)
    if x == 1:
        assert lo == hi == 0
        return
    slack = 0 if _is_float120(x) else Fraction(2) ** -118
    assert hi - lo <= 2 * _ulp120(max(-lo, hi)) + slack


GOLDEN_LOG_ARGUMENTS = [
    (38, 1),
    (40, 1),
    (2681516728338079250731871, 2417851639229258349412352),
    (2726946131101157678182155, 2417851639229258349412352),
    (7824332264055177242726003, 4835703278458516698824704),
    (21452133826704634005854967, 19342813113834066795298816),
    (21815569048809261425457241, 19342813113834066795298816),
    (31297329056220708970904013, 19342813113834066795298816),
    (142307919875431140350303753, 77371252455336267181195264),
    (284615839750862280700607505, 154742504910672534362390528),
    (135039349793041974878420283989, 75557863725914323419136000000),
    (540157399172167899513681120331, 302231454903657293676544000000),
    # q's bracket in `entropy alpha:(110)`; the entries with denominators
    # 77371252455336267181195264 and 154742504910672534362390528 above are
    # the narrower one that comparing q with the growth rate left there
    # while brackets at a width still depended on earlier comparisons
    (17788489984428892543787969, 9671406556917033397649408),
    (35576979968857785087575939, 19342813113834066795298816),
]


@pytest.mark.parametrize("p, q", GOLDEN_LOG_ARGUMENTS)
def test_log_bounds_match_mpmath_on_golden_arguments(p, q):
    """Every argument `_log_bounds` gets in the golden CLI commands, and
    two it got before: the bounds are mpmath.iv.log's at 120 bits, bit for
    bit, which is what keeps the printed dimension bounds byte-identical."""
    x = Fraction(p, q)
    assert dimension._log_bounds(x) == _iv_log(x, 120)


@pytest.mark.parametrize("p, q", GOLDEN_LOG_ARGUMENTS)
def test_log_bounds_retry_at_two_guard_bits(monkeypatch, p, q):
    """With 2 guard bits the first try at each end rounds apart here, and
    the retry reaches mpmath's ends."""
    calls = []
    atanh = dimension._atanh_floor

    def counted(*args):
        calls.append(args)
        return atanh(*args)
    monkeypatch.setattr(dimension, "_atanh_floor", counted)
    monkeypatch.setattr(dimension, "LOG_GUARD_BITS", 2)
    x = Fraction(p, q)
    assert dimension._log_bounds(x) == _iv_log(x, 120)
    assert len(calls) > 4    # two series a try, one end at least retried


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(POSITIVE_RATIONALS)
def test_log_bounds_retry_path(x):
    """With 2 guard bits the retries reach the same ends; with none every
    try may round apart, and the last enclosure rounded outward still holds
    log x."""
    want = dimension._log_bounds(x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dimension, "LOG_GUARD_BITS", 2)
        assert dimension._log_bounds(x) == want
        mp.setattr(dimension, "LOG_GUARD_BITS", 0)
        lo, hi = dimension._log_bounds(x)
    L, H = _iv_log(x, 400)
    assert lo <= L and hi >= H


@pytest.mark.parametrize("x", [Fraction(0), Fraction(-1), Fraction(-3, 7)])
def test_log_bounds_reject_nonpositive(x):
    with pytest.raises(DomainError):
        dimension._log_bounds(x)
