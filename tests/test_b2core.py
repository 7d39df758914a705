"""Defect function for two-expansion pairs: exact evaluation, cleared
polynomial, case analysis, root isolation, certified witnesses."""

import random
from fractions import Fraction

import pytest

from twobases import b2core, bases, polys
from twobases.b2core import (
    MonotoneCase, monotone_case, f_eval, f_minpoly, f_sign, sign_at, solve_qcd,
    certify_b2, witness_for_V_base, prop62_pair, q_f_base,
)
from twobases.bases import AlgBase
from twobases.classify import CountResult, count_expansions, in_A_prime
from twobases.enum_b2 import enum_reprs, qn_ladder, repr_to_seq
from twobases.errors import DomainError, UnsupportedBaseError
from twobases.words import (
    ComponentSpec, EPSeq, format_epseq, lex_cmp, parse_epseq, prepend,
)

GEN0 = ComponentSpec("0")
Q_S_PAIR = (parse_epseq("000(01)"), parse_epseq("0(01)"))


def _random_pair(rng):
    def one():
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        return EPSeq(pre, per)
    return one(), one()


def test_symmetry():
    rng = random.Random(4001)
    qs = [Fraction(2), Fraction(9, 5), q_f_base()]
    for _ in range(60):
        c, d = _random_pair(rng)
        for q in qs:
            assert f_eval(c, d, q) == f_eval(d, c, q)


def test_f_eval_refuses_text():
    c = parse_epseq("0(01)")
    for pair in (("0(01)", c), (c, "0(01)")):
        with pytest.raises(DomainError, match="EPSeq"):
            f_eval(*pair, Fraction(3, 2))


def test_f_minpoly_matches_f_eval_sign():
    # the cleared denominator q^M (q^P - 1) is positive on (1, 2], so the
    # integer polynomial and the exact value must agree in sign there
    rng = random.Random(4002)
    samples = [Fraction(11, 10), Fraction(3, 2), Fraction(9, 5), Fraction(2)]
    for _ in range(40):
        c, d = _random_pair(rng)
        F = f_minpoly(c, d)
        assert F[-1] == 1
        for p in samples:
            lhs = f_eval(c, d, p)
            rhs = polys.eval_at(F, p)
            assert (lhs > 0) == (rhs > 0) and (lhs == 0) == (rhs == 0)


def test_monotone_case_frozen():
    c, d = Q_S_PAIR
    assert monotone_case(c, d) is MonotoneCase.INCREASING_III
    assert monotone_case(parse_epseq("00(01)"), d) is MonotoneCase.POSITIVE_II
    assert monotone_case(parse_epseq("(01)"), d) is MonotoneCase.POSITIVE_I
    assert monotone_case(parse_epseq("0*"), parse_epseq("01(0)")) \
        is MonotoneCase.POSITIVE_I
    assert monotone_case(parse_epseq("0*"), parse_epseq("0*")) \
        is MonotoneCase.INCREASING_III


def test_monotone_in_first_argument_at_two():
    # at q = 2 lexicographic order matches value order outright, except for
    # the all-ones tail aliases, which canonical form isolates as per == "1"
    rng = random.Random(4003)
    done = 0
    while done < 120:
        c1, d = _random_pair(rng)
        c2, _ = _random_pair(rng)
        if "1" in (c1.per, c2.per):
            continue
        s = lex_cmp(c1, c2)
        if s == 0:
            continue
        if s > 0:
            c1, c2 = c2, c1
        assert f_eval(c1, d, Fraction(2)) < f_eval(c2, d, Fraction(2))
        done += 1


def test_monotone_on_admissible_pool_below_two():
    # strict monotonicity for sequences that are unique-expansion tails of
    # the sampled base itself
    q = AlgBase.from_rational(Fraction(9, 5))
    pool = []
    for text in ("0*", "0000(01)", "000(01)", "00(01)", "0(01)",
                 "00(001)", "0(001)", "000(0011)", "00(0011)"):
        s = parse_epseq(text)
        if in_A_prime(s, q):
            pool.append(s)
    assert len(pool) >= 6
    pool.sort(key=lambda s: [s.digit(i) for i in range(24)])
    d = parse_epseq("0(01)")
    vals = [f_eval(c, d, Fraction(9, 5)) for c in pool]
    assert vals == sorted(vals) and len(set(vals)) == len(vals)


def test_nonnegative_at_two_on_enumerated_pairs():
    seqs = [repr_to_seq(v) for v in enum_reprs(2, 4)]
    for i, c in enumerate(seqs):
        for d in seqs[i:]:
            assert f_eval(c, d, Fraction(2)) >= 0


def test_solve_qcd_known_roots():
    c, d = Q_S_PAIR
    r = solve_qcd(c, d, Fraction(17, 10), Fraction(9, 5))
    assert r.minpoly() == (-1, -1, -2, 0, 1)
    assert r.decimal(10) == "1.7106440950"
    r = solve_qcd(parse_epseq("0(01)"), parse_epseq("0000(01)"),
                  Fraction(17, 10), Fraction(9, 5))
    assert r.same_value(q_f_base())
    # no root in a window that misses it
    z = parse_epseq("0*")
    assert solve_qcd(z, z, Fraction(3, 2), Fraction(8, 5)) is None
    # the degenerate pair roots exactly at 2
    r2 = solve_qcd(z, z, Fraction(3, 2), Fraction(2))
    assert r2.cmp_rational(2) == 0


def test_root_anti_monotonicity_chain():
    # shrink c lexicographically, d fixed: roots must strictly increase
    d = parse_epseq("0(01)")
    roots = []
    for k in (2, 3, 4, 5):
        c = parse_epseq("0" * k + "(01)")
        roots.append(solve_qcd(c, d, Fraction(3, 2), Fraction(2)))
    assert all(r is not None for r in roots)
    for a, b in zip(roots, roots[1:]):
        assert a.cmp(b) < 0
    assert roots[0].minpoly() == (-1, -1, 1)
    assert roots[2].same_value(q_f_base())


def test_root_anti_monotonicity_random():
    rng = random.Random(4004)
    d = parse_epseq("00(01)")
    found = 0
    while found < 25:
        k1 = rng.randrange(2, 7)
        k2 = rng.randrange(2, 7)
        if k1 == k2:
            continue
        per = rng.choice(("01", "001", "0011"))
        c1 = parse_epseq("0" * k1 + "(" + per + ")")
        c2 = parse_epseq("0" * k2 + "(" + per + ")")
        r1 = solve_qcd(c1, d, Fraction(3, 2), Fraction(2))
        r2 = solve_qcd(c2, d, Fraction(3, 2), Fraction(2))
        if r1 is None or r2 is None:
            continue
        assert (lex_cmp(c1, c2) > 0) == (r1.cmp(r2) < 0)
        found += 1


def test_increasing_iii_rational_samples():
    pairs = [Q_S_PAIR,
             (parse_epseq("00000(01)"), parse_epseq("0(01)")),
             (parse_epseq("0000(001)"), parse_epseq("00(001)"))]
    samples = [Fraction(9, 5), Fraction(37, 20), Fraction(19, 10), Fraction(2)]
    for c, d in pairs:
        assert monotone_case(c, d) is MonotoneCase.INCREASING_III
        vals = [f_eval(c, d, p) for p in samples]
        for a, b in zip(vals, vals[1:]):
            assert a < b


def test_certify_b2():
    c, d = Q_S_PAIR
    w = certify_b2(c, d, Fraction(17, 10), Fraction(9, 5))
    assert w.admissible and w.minpoly == (-1, -1, -2, 0, 1)
    assert f_sign(c, d, w.root) == 0
    assert certify_b2(c, d, Fraction(3, 2), Fraction(8, 5)) is None
    # a solvable pair whose sequences are not unique-expansion tails at the
    # root is kept but flagged, never silently dropped
    w = certify_b2(parse_epseq("00(01)"), d, Fraction(3, 2), Fraction(17, 10))
    assert w.minpoly == (-1, -1, 1) and not w.admissible


def test_witness_refuses_a_root_that_does_not_root_the_pair():
    """`_witness` certifies a root only when its minimal polynomial divides
    the pair's defect polynomial: q_f, built afresh, is no root of the q_s
    pair's F and is refused; q_s itself passes."""
    c, d = Q_S_PAIR
    F = f_minpoly(c, d)
    q_f = AlgBase.from_poly((-1, 1, -2, 1), Fraction(7, 4), Fraction(9, 5))
    with pytest.raises(DomainError, match="root fails the exact defect residual"):
        b2core._witness(c, d, q_f, F)
    q_s = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
    w = b2core._witness(c, d, q_s, F)
    assert w.root is q_s and w.minpoly == (-1, -1, -2, 0, 1) and w.admissible


def test_witness_for_V_base():
    w = witness_for_V_base("10")
    assert w.root.same_value(q_f_base())
    assert (format_epseq(w.c), format_epseq(w.d)) == ("0(01)", "0000(01)")
    assert w.admissible
    w = witness_for_V_base("0")
    assert w.root.minpoly() == (-1, -1, 1)
    assert (format_epseq(w.c), format_epseq(w.d)) == ("0*", "00(1)")
    assert not w.admissible
    w = witness_for_V_base("110")
    assert w.root.decimal(10) == "1.8667603992"
    assert w.minpoly == (-1, 1, 0, -2, 1)
    assert w.admissible
    for bad in ("", "11", "abc"):
        with pytest.raises(DomainError):
            witness_for_V_base(bad)


def test_prop62_pairs_and_sign_change():
    lad = qn_ladder(GEN0, 5)
    c2, d2 = prop62_pair(GEN0, 2)
    assert (format_epseq(c2), format_epseq(d2)) == ("00000(01)", "0(01)")
    for n in (2, 3, 4):
        c, d = prop62_pair(GEN0, n)
        assert f_sign(c, d, lad[n - 1].base) == -1
        assert f_sign(c, d, lad[n].base) == 1
        r = solve_qcd(c, d, Fraction(17, 10), Fraction(9, 5))
        assert lad[n - 1].base.cmp(r) < 0 < lad[n].base.cmp(r)
    r2 = solve_qcd(c2, d2, Fraction(17, 10), Fraction(9, 5))
    assert r2.decimal(10) == "1.7770423059"
    assert r2.minpoly() == (-1, -1, -1, -1, -2, 0, 1)
    with pytest.raises(DomainError):
        prop62_pair(GEN0, 1)


def test_admissible_witnesses_validate_end_to_end():
    wits = [certify_b2(*Q_S_PAIR, Fraction(17, 10), Fraction(9, 5)),
            witness_for_V_base("10"), witness_for_V_base("110")]
    for w in wits:
        assert w.admissible
        point = prepend("1", w.c)
        assert count_expansions(point, w.root, cap=3) == CountResult(2)


def test_q_f_base_frozen():
    q = q_f_base()
    assert q.decimal(10) == "1.7548776662"
    assert q.minpoly() == (-1, 1, -2, 1)


def test_sign_at_refinement_budget(monkeypatch):
    # F = 10^13 x - r has its root r / 10^13 just above q_s: some 40
    # halvings of a fresh q_s bracket [17/10, 9/5] before F's sign is certain
    F = (-17106440950451, 10**13)

    def q_s():
        return AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
    monkeypatch.setattr(bases, "SIGN_REFINE_BUDGET", 4)
    with pytest.raises(UnsupportedBaseError):
        sign_at(F, q_s())
    monkeypatch.undo()
    assert sign_at(F, q_s()) == -1
