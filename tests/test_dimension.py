"""Alive-word automaton, topological entropy enclosures, Hausdorff dimension
of the unique-expansion set, and the local two-expansion bound."""

import itertools
import math
import os
import subprocess
import sys
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
from twobases.enum_b2 import qn_ladder
from twobases.errors import DomainError, UnsupportedBaseError
from twobases.words import GEN0, EPSeq, parse_epseq, thue_morse

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


def test_state_cap_refusal(monkeypatch):
    """The automaton of (110) has 7 states: a cap of 7, read when
    `uq_automaton` runs, builds it, and a cap of 6 refuses it there and in
    `entropy`."""
    monkeypatch.setattr(dimension, "STATE_CAP", 7)
    assert uq_automaton(EPSeq("", "110")).size == 7
    monkeypatch.setattr(dimension, "STATE_CAP", 6)
    with pytest.raises(UnsupportedBaseError, match="state cap"):
        uq_automaton(EPSeq("", "110"))
    with pytest.raises(UnsupportedBaseError, match="state cap"):
        entropy(PHI3)


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
    assert dimension._sandwich(q_s, Fraction(0), 24) == (0, 0)
    assert dim_U(q_s) == (0, 0)
    lo, hi = dim_U(AlgBase.from_rational(Fraction(19, 10)))
    assert Fraction(74, 100) < lo <= hi <= 1
    assert (lo, hi) == (Fraction(213213409923992748576942194477147922,
                                 284390051567897278593581650622431843), 1)


def _dim_by_entropy(q):
    """Oracle: `dim_U` without its shortcut below q_KL, from the entropy
    of q's language or else the pool sandwich."""
    try:
        ent = entropy(q)
    except UnsupportedBaseError:
        lower, upper = dimension._sandwich(q, Fraction(0), 24)
        return lower, min(upper, Fraction(1))
    return dimension._dim_of(q, ent)


def test_below_kl_lies_between_q5_and_q6():
    """The shortcut's constant sits strictly between the ladder bases q_5
    and q_6, both below q_KL."""
    ladder = [e.base for e in qn_ladder(GEN0, 6)]
    assert ladder[4].cmp_rational(dimension.BELOW_KL) < 0 < ladder[5].cmp_rational(
        dimension.BELOW_KL)


def test_dim_U_below_kl_matches_the_entropy_route(monkeypatch):
    """Below BELOW_KL `dim_U` answers (0, 0) with no walk and no pool,
    as the entropy route does: on q_s, q_f, the ladder bases q_1 to q_5,
    the rational 3/2 and every purely periodic Parry word of length at
    most 9 whose base lies below the constant."""
    q_s = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
    below = [q_s, Q_F, AlgBase.from_rational(Fraction(3, 2))]
    below += [e.base for e in qn_ladder(GEN0, 5)]
    for n in range(1, 10):
        for w in itertools.product("01", repeat=n - 1):
            s = EPSeq("", "1" + "".join(w))
            if s.per == "1" + "".join(w) and parry_check(s):
                q = base_from_alpha(s)
                if q.cmp_rational(dimension.BELOW_KL) < 0:
                    below.append(q)
    assert len(below) > 50
    want = [_dim_by_entropy(q) for q in below]
    assert all(d == (0, 0) for d in want)
    calls = []
    monkeypatch.setattr(dimension, "entropy", lambda *a: calls.append(a))
    monkeypatch.setattr(dimension, "_sandwich", lambda *a: calls.append(a))
    assert [dim_U(q) for q in below] == want and not calls
    # at and above the constant the entropy route answers as before
    for q in (qn_ladder(GEN0, 6)[5].base, PHI3, TWO):
        monkeypatch.undo()
        assert dim_U(q) == _dim_by_entropy(q)


def test_pool_is_one_tuple_built_on_first_use():
    """The pool is built once per process, as an immutable tuple, and not
    when the package is imported."""
    assert overapprox_pool() is overapprox_pool()
    assert isinstance(overapprox_pool(), tuple)
    script = ("import twobases, twobases.cli\n"
              "print(twobases.dimension.overapprox_pool.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dimension.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


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


# b2_local_bound(q, 10^-k, 6) at the bases of the periodic Thue-Morse
# prefixes of length L that the cli_queries dim-bound requests use, frozen
# from the two separate sandwiches `_sandwich` replaced: (L, k) -> (lo, hi)
LOCAL_BOUNDS = {
    (10, 5): ("183439107051792198716539847345060176/257372279035512642168646163962935597",
              "213213409923992748576942228415821599/257372279035512642168646151148859942"),
    (10, 6): ("183439107051792198716539847345060176/257374509772332569309881986915717873",
              "639640229771978245730826685247464797/772123529316997707929645922305120198"),
    (10, 7): ("550317321155376596149619542035180528/772124198536190574722168797268433451",
              "639640229771978245730826685247464797/772124198536190574722168758826419384"),
    (12, 5): ("1279280459543956491461652720749192621/3087338201612137363879030540714060280",
              "1100634642310753192299239307550077471/1543669100806068681939515193456246610"),
    (12, 6): ("1279280459543956491461652720749192621/3087364976139435683574655301852395132",
              "366878214103584397433079769183359157/514560829356572613929109191341933762"),
    (12, 7): ("1279280459543956491461652720749192621/3087367653584749921141290005992406924",
              "1100634642310753192299239307550077471/1543683826792374960570644926095845906"),
    (20, 5): ("275158660577688298074809667000480403/771832732134153979379108073756320983",
              "366878214103584397433079769183359157/514555154756102652919405356870584414"),
    (20, 6): ("275158660577688298074809667000480403/771839425775134851648385721473809948",
              "1279280459543956491461653208191163193/3087357703100539406593542732094236844"),
    (20, 7): ("275158660577688298074809667000480403/771840095137379035202646747400802821",
              "426426819847985497153884402730387731/1029120126849838713603528945267428596"),
    (24, 5): ("639640229771978245730826518752870981/3087330145872198662085436898959516700",
              "1100634642310753192299239307550077471/1543665072936099331042718372578858306"),
    (24, 6): ("639640229771978245730826518752870981/3087356920440063432740303835278347724",
              "1279280459543956491461653208191163193/3087356920440063432740303681477322140"),
    (24, 7): ("639640229771978245730826518752870981/3087359597889434292931932215729986200",
              "1100634642310753192299239163701978875/3087359597889434292931932061929038064"),
    (40, 5): ("0", "366878214103584397433079769183359157/514555024301184928189040900691873806"),
    (40, 6): ("0", "1279280459543956491461653208191163193/3087356920374974667559809702389972620"),
    (40, 7): ("0", "220126928462150638459847832740395775/617471919564869112105665251445252196"),
}


def test_local_bound_frozen():
    for (L, k), want in LOCAL_BOUNDS.items():
        q = base_from_alpha(EPSeq("", thue_morse(L)))
        got = b2_local_bound(q, Fraction(1, 10 ** k), 6)
        assert got == tuple(map(Fraction, want)), (L, k)


def test_local_bound_next_to_two():
    """q is within 10^-25 of 2, so q's bracket at that width ends at 2 and
    no pool base is certified above it plus delta by that bracket: the
    bound comes from 2 itself, which the input checks place above q + delta."""
    q = base_from_alpha(EPSeq("", "1" * 90 + "0"))
    assert q.bracket(Fraction(1, 10 ** 25))[1] == 2
    assert b2_local_bound(q, Fraction(1, 10 ** 28), 6) == (
        Fraction(319820114885989122865413291715721883, 230337659399915326306586076901504264),
        Fraction(307116879199887101742114769224159485, 153558439599943550871057378874379781))


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
