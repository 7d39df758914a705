"""Words, eventually periodic sequences, generator components, evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobases import words
from twobases.bases import AlgBase
from twobases.errors import DomainError
from twobases.words import (
    EPSeq, ComponentSpec, GEN0, ZERO_SEQ, ONE_SEQ, SeriesEnclosure,
    reflect, word_inc, word_dec, word_cmp, thue_morse, from_word, prepend,
    shift, lex_cmp, check_generator, eval_seq, format_epseq, parse_epseq,
)


def _random_epseq(rng, maxlen=6):
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, maxlen)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, maxlen)))
    return EPSeq(pre, per)


# -- words ------------------------------------------------------------------


def test_reflect_involution_words_and_seqs():
    rng = random.Random(2001)
    for _ in range(300):
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        assert reflect(reflect(w)) == w
        s = _random_epseq(rng)
        assert reflect(reflect(s)) == s


def test_word_inc_dec():
    assert word_inc("10") == "11"
    assert word_dec("11") == "10"
    assert word_dec("1101") == "1100"
    rng = random.Random(2002)
    for _ in range(200):
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 10)))
        if w.endswith("0"):
            assert word_dec(word_inc(w)) == w
        else:
            with pytest.raises(DomainError):
                word_inc(w)
            assert word_inc(word_dec(w)) == w


def test_thue_morse_prefix():
    assert thue_morse(16) == "1101001100101101"
    assert thue_morse(4) == "1101"
    # doubling self-similarity: t(2n) digits come from recursion
    t32 = thue_morse(32)
    assert t32[:16] == thue_morse(16)


def test_epseq_canonical():
    assert EPSeq("", "1100").per == "1100"
    assert EPSeq("", "11").per == "1"              # primitive period
    assert EPSeq("00", "10") == EPSeq("0", "01")   # preperiod rotated away
    assert EPSeq("1100", "1100") == EPSeq("", "1100")
    with pytest.raises(DomainError):
        EPSeq("", "")
    with pytest.raises(DomainError):
        EPSeq("2", "1")


def test_epseq_digits_prefix():
    s = EPSeq("00", "10")
    assert [s.digit(i) for i in range(6)] == [0, 0, 1, 0, 1, 0]
    assert s.prefix(7) == "0010101"
    assert from_word("101") == EPSeq("101", "0")
    assert ZERO_SEQ.digit(5) == 0 and ONE_SEQ.digit(5) == 1


def test_shift_prepend():
    s = EPSeq("01", "10")
    assert shift(s, 1) == EPSeq("1", "10")
    assert shift(s, 2) == EPSeq("", "10")
    assert shift(s, 3) == EPSeq("", "01")
    assert prepend("11", s) == EPSeq("1101", "10")
    rng = random.Random(2003)
    for _ in range(200):
        t = _random_epseq(rng)
        n = rng.randint(0, 8)
        u = shift(t, n)
        for i in range(12):
            assert u.digit(i) == t.digit(i + n)


def test_lex_cmp_total_order():
    rng = random.Random(2004)
    seqs = [_random_epseq(rng) for _ in range(40)]
    for a in seqs:
        assert lex_cmp(a, a) == 0
        for b in seqs:
            assert lex_cmp(a, b) == -lex_cmp(b, a)
            # agreement with digitwise comparison over a long window
            for i in range(40):
                da, db = a.digit(i), b.digit(i)
                if da != db:
                    assert lex_cmp(a, b) == (1 if da > db else -1)
                    break
            else:
                assert lex_cmp(a, b) == 0


def test_lex_cmp_consistent_with_value():
    # at the top base every digit outweighs all later ones, so lexicographic
    # order transfers to values (non-strict: 0111... and 1000... share one)
    rng = random.Random(2005)
    q = Fraction(2)
    for _ in range(200):
        a, b = _random_epseq(rng), _random_epseq(rng)
        if lex_cmp(a, b) <= 0:
            assert eval_seq(a, q) <= eval_seq(b, q)


def test_eval_geometric_identities():
    q = Fraction(9, 5)
    assert eval_seq(ZERO_SEQ, q) == 0
    assert eval_seq(ONE_SEQ, q) == 1 / (q - 1)
    assert eval_seq(EPSeq("", "10"), q) == q / (q * q - 1)
    assert eval_seq(from_word("1"), q) == 1 / q
    # shift identity: eval(shift(s,n)) = q^n eval(s) - q^n (first n digits)
    rng = random.Random(2006)
    for _ in range(100):
        s = _random_epseq(rng)
        n = rng.randint(0, 6)
        head = sum(s.digit(i) * q ** -(i + 1) for i in range(n))
        assert eval_seq(shift(s, n), q) == q ** n * (eval_seq(s, q) - head)


def test_lex_cmp_refuses_text():
    s = parse_epseq("0(01)")
    for a, b in (("0(01)", s), (s, "0(01)")):
        with pytest.raises(DomainError, match="EPSeq"):
            lex_cmp(a, b)


def test_eval_seq_refuses_text():
    with pytest.raises(DomainError, match="EPSeq"):
        eval_seq("0(01)", Fraction(3, 2))


def test_shift_and_prepend_refuse_text():
    with pytest.raises(DomainError, match="EPSeq"):
        shift("0(01)", 1)
    with pytest.raises(DomainError, match="EPSeq"):
        prepend("1", "0(01)")


def _horner_value(s, x):
    """sum_i s_i x^i (digits 1-indexed) at x = 1/q, digit by digit over the
    preperiod and one period: the oracle for eval_seq, on Fractions and on
    number-field elements alike."""
    head = tail = x * 0
    for ch in reversed(s.pre):
        head = (head + int(ch)) * x
    for ch in reversed(s.per):
        tail = (tail + int(ch)) * x
    return head + x ** len(s.pre) * tail / (1 - x ** len(s.per))


SEQS = st.builds(EPSeq, st.text("01", max_size=12), st.text("01", min_size=1, max_size=12))
# q_f, and the degree-12 least base of derived order 3
FIELD_BASES = (
    AlgBase.from_poly((-1, 1, -2, 1), Fraction(7, 4), Fraction(9, 5)),
    AlgBase.from_poly((-1, -1, -2, -2, -2, -2, -1, -2, -3, -1, -1, 0, 1),
                      Fraction(1785, 1000), Fraction(1786, 1000)),
)


@settings(derandomize=True, database=None, deadline=None)
@given(SEQS, st.fractions(1, 2, max_denominator=10**6).filter(lambda q: q > 1))
def test_eval_seq_matches_digit_horner_at_rationals(s, q):
    want = _horner_value(s, 1 / q)
    assert eval_seq(s, q) == want
    assert eval_seq(s, AlgBase.from_rational(q)) == want


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(SEQS, st.sampled_from(FIELD_BASES))
def test_eval_seq_matches_digit_horner_in_number_fields(s, q):
    assert eval_seq(s, q) == _horner_value(s, q.field().base_elem().inv())


LONG_SEQS = st.builds(EPSeq, st.text("01", max_size=160),
                      st.text("01", min_size=1, max_size=90))
# rational points in (1, 2]: small and huge denominators, and points so
# close to 1 that x^p rounds up to 1 at the default scale
POINTS = st.one_of(
    st.fractions(1, 2, max_denominator=10**6),
    st.fractions(1, 2, max_denominator=10**40),
    st.integers(1, 2**60).map(lambda k: 1 + Fraction(k, 2**200)),
).filter(lambda q: q > 1)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(SEQS, LONG_SEQS), POINTS, st.sampled_from(["", "1", "0110"]),
       st.sampled_from([words.ENCLOSE_BITS, 40, 3, 0]))
def test_series_enclosure_contains_exact_value(s, e, lead, bits):
    saved, words.ENCLOSE_BITS = words.ENCLOSE_BITS, bits
    try:
        enc = SeriesEnclosure(e)
        lo, hi = enc.enclose(s, lead)
        floor, ceil = enc.ones
    finally:
        words.ENCLOSE_BITS = saved
    scale = 2**bits
    exact = eval_seq(prepend(lead, s), e) * scale
    assert lo <= exact <= hi
    ones = scale / (e - 1)
    assert (floor, ceil) == (math.floor(ones), math.ceil(ones))
    if bits == saved and e >= Fraction(11, 10):
        # away from 1 the default scale leaves a width of a few units
        assert hi - lo < 2**20


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.fractions(1, 3, max_denominator=10**30).filter(lambda e: e > Fraction(21, 20)),
       st.sampled_from([4, 9, 128]), st.integers(1, 9),
       st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23), st.text("01", max_size=23),
                          st.text("01", min_size=9, max_size=9)), max_size=12))
def test_hi_growth_bounds_every_sequence_and_is_attained(e, bits, p, seqs):
    # g[L] bounds the hi of with_period over the digit sum of positions
    # 1 .. L + 1 for every sequence whose period starts at m >= L + 1 - p,
    # and digits 1 from position L + 2 or m + 1 on attain it (a large
    # negative hi argument keeps the sum below the cap at 1^inf)
    saved, words.ENCLOSE_BITS = words.ENCLOSE_BITS, bits
    try:
        enc, end = SeriesEnclosure(e), 24
        g = enc.hi_growth(p, end)
        for L in range(end):
            excess = []
            for m in range(max(1, L + 1 - p), end + 1):
                head = ("1" + "0" * min(m - 1, L)).ljust(m, "1")
                h = enc.digit_sums((head + "1" * (L + 1))[:L + 1])[1]
                big = 2 ** (bits + 40)
                got = enc.with_period(0, enc.digit_sums(head)[1] - big, "1" * p, m)[1]
                excess.append(got + big - h)
            assert max(excess) == g[L]
        for L, m, word, per in seqs:
            m = min(end, max(m, 1, L + 1 - p))
            head = ("1" + word + "0" * end)[:m]
            h = enc.digit_sums((head + per[:p] * (L + 1))[:L + 1])[1]
            hi = enc.with_period(*enc.digit_sums(head), per[:p], m)[1]
            assert hi <= min(h + g[L], enc.ones[1])
    finally:
        words.ENCLOSE_BITS = saved


def test_series_enclosure_refuses_bad_input():
    with pytest.raises(DomainError):
        SeriesEnclosure(1)
    with pytest.raises(DomainError, match="EPSeq"):
        SeriesEnclosure(Fraction(3, 2)).enclose("0(01)")
    with pytest.raises(DomainError):
        SeriesEnclosure(Fraction(3, 2)).enclose(ZERO_SEQ, "12")


def test_parse_format_roundtrip():
    for text in ["00(10)", "(1100)", "101*", "0*", "(1)"]:
        s = parse_epseq(text)
        assert parse_epseq(format_epseq(s)) == s
    assert parse_epseq("00(10)") == EPSeq("00", "10")
    assert parse_epseq("11") == from_word("11")
    with pytest.raises(DomainError):
        parse_epseq("(01")
    with pytest.raises(DomainError):
        parse_epseq("")


# -- generator components ---------------------------------------------------


def test_check_generator():
    assert check_generator("0")
    assert check_generator("10")
    assert not check_generator("01")
    assert check_generator("110")
    assert not check_generator("11")   # ends in 1: increment overflows order
    assert not check_generator("1")    # 1^inf is the expansion of q = 2
    with pytest.raises(DomainError):
        check_generator("")


def test_omega_recursion_and_prefix():
    comp = GEN0
    assert comp.omega(0) == "1"
    assert comp.omega(1) == "11"
    assert comp.omega(2) == "1101"
    assert comp.omega(3) == "11010011"
    assert comp.omega(4) == "1101001100101101"
    for n in range(6):
        w = comp.omega(n)
        assert comp.omega(n + 1)[: len(w)] == w
        assert comp.omega(n + 1) == w + word_inc(reflect(w))


def test_omega_equals_thue_morse():
    assert GEN0.omega(4) == thue_morse(16)
    assert GEN0.omega(6) == thue_morse(64)


def test_omega_other_generators():
    comp = ComponentSpec("10")
    assert comp.omega(0) == "11"
    assert comp.omega(1) == "1101"
    assert comp.omega(2) == "11010011"
    comp3 = ComponentSpec("110")
    assert comp3.omega(0) == "111"
    assert comp3.omega(1) == "111001"


def test_doubling_word_two_sided_chain():
    # for each generator and n <= 8: with w = omega_n of length L, every
    # proper tail theta_{i+1}..theta_L lies in (reflect(prefix), prefix]
    for gen in ("0", "10", "110"):
        comp = ComponentSpec(gen)
        for n in range(0, 9 if gen == "0" else 6):
            w = comp.omega(n)
            L = len(w)
            for i in range(1, L):
                tail = w[i:]
                head = w[: L - i]
                assert word_cmp(tail, head) <= 0
                assert word_cmp(reflect(head), tail) < 0
