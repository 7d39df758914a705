"""Acceptance gate: one test per shipping criterion, each printing a single
pass/fail line with its runtime.  Tolerances and time budgets are part of the
assertions."""

import random
import sys
import time
from fractions import Fraction

from twobases.b2core import (
    f_eval, f_sign, prop62_pair, q_f_base, solve_qcd,
)
from twobases.bases import AlgBase, alpha_digits, base_from_alpha
from twobases.classify import CountResult, count_expansions, is_univoque_seq
from twobases.dimension import (
    b2_local_bound, brute_count_words, dim_U, overapprox_pool, path_counts,
    uq_automaton,
)
from twobases.enum_b2 import enum_B2, enum_reprs, min_derived, qn_ladder, repr_to_seq
from twobases.words import (
    ComponentSpec, EPSeq, lex_cmp, parse_epseq, prepend, reflect, thue_morse,
    word_cmp,
)

GEN0 = ComponentSpec("0")
Q_S = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))


def _report(k: int, ok: bool, elapsed: float, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {k:02d}: {verdict} ({elapsed:.2f}s) {detail}",
          file=sys.__stdout__)


def _close(q: AlgBase, target: Fraction, tol: Fraction) -> bool:
    lo, hi = q.bracket(tol / 100)
    return abs(Fraction(lo) - target) <= tol and abs(Fraction(hi) - target) <= tol


def test_criterion_01_smallest_two_expansion_base():
    t0 = time.monotonic()
    wits = enum_B2(1, 6)
    first = wits[0]
    direct = solve_qcd(parse_epseq("000(01)"), parse_epseq("0(01)"),
                       Fraction(17, 10), Fraction(9, 5))
    elapsed = time.monotonic() - t0
    ok = (first.minpoly == (-1, -1, -2, 0, 1)
          and _close(first.root, Fraction(171064, 100000), Fraction(1, 10**5))
          and direct.same_value(first.root)
          and elapsed < 10)
    _report(1, ok, elapsed, f"q_s = {first.root.decimal(10)}, "
            f"minpoly {list(first.minpoly)}")
    assert ok


def test_criterion_02_smallest_accumulation_point():
    t0 = time.monotonic()
    wits = enum_B2(1, 6)
    second = wits[1]
    elapsed = time.monotonic() - t0
    ok = (second.minpoly == (-1, 1, -2, 1)
          and _close(second.root, Fraction(175488, 100000), Fraction(1, 10**5))
          and second.root.same_value(q_f_base())
          and elapsed < 10)
    _report(2, ok, elapsed, f"q_f = {second.root.decimal(10)}, "
            f"minpoly {list(second.minpoly)}")
    assert ok


def test_criterion_03_ladder_values():
    t0 = time.monotonic()
    lad = qn_ladder(GEN0, 8)
    targets = [Fraction(161803, 100000), Fraction(175488, 100000),
               Fraction(178460, 100000), Fraction(178721, 100000)]
    elapsed = time.monotonic() - t0
    ok = all(_close(lad[i].base, targets[i], Fraction(1, 10**5))
             for i in range(4))
    ok = ok and _close(lad[7].base, Fraction(178723, 100000), Fraction(1, 10**4))
    ok = ok and elapsed < 5
    _report(3, ok, elapsed,
            "q_1..q_4 = " + ", ".join(lad[i].base.decimal(6) for i in range(4))
            + f"; q_8 = {lad[7].base.decimal(8)}")
    assert ok


def test_criterion_04_doubling_word_is_thue_morse():
    t0 = time.monotonic()
    w = GEN0.omega(4)
    elapsed = time.monotonic() - t0
    ok = w == thue_morse(16) == "1101001100101101"
    _report(4, ok, elapsed, f"omega_4 = {w}")
    assert ok


def test_criterion_05_quasi_greedy_constants():
    t0 = time.monotonic()
    phi = AlgBase.from_poly((-1, -1, 1), Fraction(3, 2), Fraction(17, 10))
    a_phi = alpha_digits(phi, 10)
    a_qf = alpha_digits(q_f_base(), 12)
    elapsed = time.monotonic() - t0
    ok = a_phi == "10" * 5 and a_qf == "1100" * 3
    _report(5, ok, elapsed, f"alpha(phi) = {a_phi}, alpha(q_f) = {a_qf}")
    assert ok


def test_criterion_06_two_expansion_point_check():
    t0 = time.monotonic()
    point = prepend("1", parse_epseq("00(10)"))
    res = count_expansions(point, Q_S, cap=3)
    elapsed = time.monotonic() - t0
    ok = res == CountResult(2) and elapsed < 5
    _report(6, ok, elapsed, f"count_expansions(1 00(10)^inf, q_s) = {res!r}")
    assert ok


def test_criterion_07_deep_pair_sign_change():
    t0 = time.monotonic()
    lad = qn_ladder(GEN0, 5)
    signs = {}
    for n in (2, 3, 4):
        c, d = prop62_pair(GEN0, n)
        signs[n] = (f_sign(c, d, lad[n - 1].base), f_sign(c, d, lad[n].base))
    elapsed = time.monotonic() - t0
    ok = all(signs[n] == (-1, 1) for n in (2, 3, 4)) and elapsed < 10
    _report(7, ok, elapsed, f"signs at interval ends: {signs}")
    assert ok


def test_criterion_08_derived_order_bracket():
    t0 = time.monotonic()
    m2 = min_derived(2, 6, 5)
    m4 = min_derived(4, 6, 5)
    lad = qn_ladder(GEN0, 5)
    elapsed = time.monotonic() - t0
    ok = (m2.same_value(q_f_base())
          and lad[2].base.cmp(m4) <= 0 < lad[4].base.cmp(m4)
          and elapsed < 120)
    _report(8, ok, elapsed,
            f"min order-2 = {m2.decimal(10)}, min order-4 = {m4.decimal(10)}"
            f" in [q_3, q_5)")
    assert ok


def test_criterion_09_dimension_endpoints_and_counts():
    t0 = time.monotonic()
    lad = qn_ladder(GEN0, 4)
    d2 = dim_U(AlgBase.from_rational(2))
    d3 = dim_U(lad[2].base)
    d4 = dim_U(lad[3].base)
    counts_ok = True
    for per in ("10", "1100", "110", "1110", "11010011"):
        a = EPSeq("", per)
        got = path_counts(uq_automaton(a), 14)
        want = [brute_count_words(a, n) for n in range(1, 15)]
        counts_ok = counts_ok and got == want
    elapsed = time.monotonic() - t0
    ok = (d2 == (1, 1) and d3 == (0, 0) and d4 == (0, 0)
          and counts_ok and elapsed < 60)
    fmt = lambda pair: f"[{pair[0]}, {pair[1]}]"
    _report(9, ok, elapsed, f"dim(2) = {fmt(d2)}, dim(q_3) = {fmt(d3)}, "
            f"dim(q_4) = {fmt(d4)}, counts match brute force to n = 14")
    assert ok


def test_criterion_10_local_bound_below_one():
    t0 = time.monotonic()
    # admissible periodic approximant just above the univoque threshold
    q20 = base_from_alpha(EPSeq("", thue_morse(20)))
    pool = overapprox_pool()
    above = next(p for p in pool if p.cmp(q20) > 0)
    gap = Fraction(above.bracket(Fraction(1, 10**9))[0]) \
        - Fraction(q20.bracket(Fraction(1, 10**9))[1])
    delta = gap / 3
    lo, hi = b2_local_bound(q20, delta)
    elapsed = time.monotonic() - t0
    ok = delta > 0 and 0 <= lo <= hi < 1 and elapsed < 120
    _report(10, ok, elapsed, f"delta = {float(delta):.3g}, "
            f"bound = [{float(lo):.6f}, {float(hi):.6f}] < 1")
    assert ok


def test_criterion_11_property_suites():
    t0 = time.monotonic()
    rng = random.Random(11001)
    notes = []

    def rand_seq():
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        return EPSeq(pre, per)

    # symmetry and strict monotonicity of the defect function, 200 pairs
    ok = True
    qf = q_f_base()
    done = 0
    while done < 200:
        c, d = rand_seq(), rand_seq()
        for q in (Fraction(2), Fraction(9, 5), qf):
            ok = ok and f_eval(c, d, q) == f_eval(d, c, q)
        c2 = rand_seq()
        if "1" not in (c.per, c2.per) and lex_cmp(c, c2) < 0:
            ok = ok and f_eval(c, d, Fraction(2)) < f_eval(c2, d, Fraction(2))
        done += 1
    notes.append("symmetry+monotonicity x200")

    # root anti-monotonicity, 50 chains
    d = parse_epseq("00(01)")
    found = 0
    while found < 50:
        k1, k2 = rng.randrange(2, 7), rng.randrange(2, 7)
        if k1 == k2:
            continue
        per = rng.choice(("01", "001", "0011"))
        c1 = parse_epseq("0" * k1 + "(" + per + ")")
        c2 = parse_epseq("0" * k2 + "(" + per + ")")
        r1 = solve_qcd(c1, d, Fraction(3, 2), Fraction(2))
        r2 = solve_qcd(c2, d, Fraction(3, 2), Fraction(2))
        if r1 is None or r2 is None:
            continue
        ok = ok and (lex_cmp(c1, c2) > 0) == (r1.cmp(r2) < 0)
        found += 1
    notes.append("anti-monotonicity x50")

    # two-sided inequality chain of every doubling word, n <= 8
    for gen in ("0", "10", "110"):
        comp = ComponentSpec(gen)
        for n in range(1, 9):
            w = comp.omega(n)
            L = len(w)
            for i in range(1, L):
                head, tail = w[: L - i], w[i:]
                ok = ok and word_cmp(tail, head) <= 0
                ok = ok and word_cmp(reflect(head), tail) < 0
    notes.append("inequality chain n<=8")

    # the doubling word never occurs as a factor of its interval's sequences
    for n in (1, 2, 3, 4):
        om = GEN0.omega(n)
        for v in enum_reprs(n, 4):
            s = repr_to_seq(v)
            horizon = len(s.pre) + 2 * len(s.per) + len(om)
            ok = ok and om not in "".join(str(s.digit(i)) for i in range(horizon))
    notes.append("forbidden factor n<=4")

    # reflection invariance of unique-expansion membership, 500 cases
    bases = (AlgBase.from_poly((-1, -1, 1), Fraction(3, 2), Fraction(17, 10)),
             qf, base_from_alpha(EPSeq("", "110")),
             base_from_alpha(EPSeq("", "1110")), AlgBase.from_rational(2), Q_S)
    for _ in range(500):
        s = rand_seq()
        q = rng.choice(bases)
        ok = ok and is_univoque_seq(s, q) == is_univoque_seq(reflect(s), q)
    notes.append("reflection x500")

    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    _report(11, ok, elapsed, "; ".join(notes))
    assert ok
