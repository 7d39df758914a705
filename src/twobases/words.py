"""Binary words and eventually periodic sequences.

Finite words are plain strings over {0,1}.  Infinite sequences are stored as
EPSeq(pre, per) meaning pre followed by per repeated forever, always held in
canonical form: primitive period, shortest preperiod.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from math import lcm

from . import polys
from .errors import DomainError

LT, EQ, GT = -1, 0, 1


def _check_word(w: str, name: str = "word") -> None:
    # strip leaves a character exactly when some digit is not 0/1
    if not isinstance(w, str) or w.strip("01"):
        raise DomainError(f"{name} must consist of digits 0/1, got {w!r}")


def _check_seq(*seqs) -> None:
    """Refuse anything but an EPSeq; sequence text goes through parse_epseq."""
    for s in seqs:
        if not isinstance(s, EPSeq):
            raise DomainError(
                f"expected an EPSeq, got {type(s).__name__} {s!r}; "
                "parse sequence text with parse_epseq"
            )


def reflect(s):
    """Complement every digit.  Works on words (str) and EPSeqs."""
    if isinstance(s, EPSeq):
        return EPSeq(reflect(s.pre), reflect(s.per))
    table = str.maketrans("01", "10")
    return s.translate(table)


def word_inc(w: str) -> str:
    """w+ : increment the last digit (which must be 0)."""
    if not w or w[-1] != "0":
        raise DomainError(f"word_inc needs a nonempty word ending in 0, got {w!r}")
    return w[:-1] + "1"


def word_dec(w: str) -> str:
    """w- : decrement the last digit (which must be 1)."""
    if not w or w[-1] != "1":
        raise DomainError(f"word_dec needs a nonempty word ending in 1, got {w!r}")
    return w[:-1] + "0"


def word_cmp(u: str, v: str) -> int:
    """Compare u and v as left-infinite-padded words: u < v iff u0^inf < v0^inf.

    Digits compare as integers, so a transient digit '2' (from incrementing a
    word ending in 1) is handled too.
    """
    n = max(len(u), len(v))
    for i in range(n):
        a = u[i] if i < len(u) else "0"
        b = v[i] if i < len(v) else "0"
        if a != b:
            return LT if a < b else GT
    return EQ


def thue_morse(n: int) -> str:
    """First n digits of the truncated Thue-Morse sequence (1-indexed)."""
    if n < 1:
        raise DomainError("need n >= 1")
    return "".join(str(bin(i).count("1") & 1) for i in range(1, n + 1))


def _primitive(per: str) -> str:
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            return per[:d]
    return per


def _shortest(pre: str, per: str) -> tuple:
    """(pre, per) with the shortest preperiod: the period window moves left
    over every trailing digit of pre that the period repeats.  The result's
    preperiod is a prefix of pre."""
    n, p, t = len(pre), len(per), 0
    while t < n and pre[n - 1 - t] == per[p - 1 - t % p]:
        t += 1
    r = t % p
    return pre[:n - t], per[p - r:] + per[:p - r]


@dataclass(frozen=True)
class EPSeq:
    """Eventually periodic 0/1 sequence pre (per)^inf, canonicalized."""

    pre: str
    per: str

    def __post_init__(self):
        _check_word(self.pre, "preperiod")
        _check_word(self.per, "period")
        if not self.per:
            raise DomainError("period must be nonempty")
        pre, per = _shortest(self.pre, _primitive(self.per))
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    # -- basic access ------------------------------------------------------

    def digit(self, i: int) -> int:
        """0-based digit."""
        if i < len(self.pre):
            return int(self.pre[i])
        return int(self.per[(i - len(self.pre)) % len(self.per)])

    def prefix(self, n: int) -> str:
        k = len(self.pre)
        if n <= k:
            return self.pre[:n]
        reps = (n - k) // len(self.per) + 1
        return (self.pre + self.per * reps)[:n]

    def __str__(self):
        return format_epseq(self)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.pre and self.per == "0"


ZERO_SEQ = EPSeq("", "0")
ONE_SEQ = EPSeq("", "1")


def from_word(w: str) -> EPSeq:
    """The sequence w 0^inf."""
    return EPSeq(w, "0")


def prepend(w: str, s: EPSeq) -> EPSeq:
    _check_seq(s)
    return EPSeq(w + s.pre, s.per)


def shift(s: EPSeq, n: int) -> EPSeq:
    """Drop the first n digits."""
    _check_seq(s)
    if n < 0:
        raise DomainError("shift needs n >= 0")
    if n <= len(s.pre):
        return EPSeq(s.pre[n:], s.per)
    k = (n - len(s.pre)) % len(s.per)
    return EPSeq("", s.per[k:] + s.per[:k])


def lex_cmp(a: EPSeq, b: EPSeq) -> int:
    """First-difference comparison, certified by the periodicity bound."""
    _check_seq(a, b)
    bound = (
        max(len(a.pre), len(b.pre))
        + lcm(len(a.per), len(b.per))
        + max(len(a.per), len(b.per))
    )
    for i in range(bound):
        x, y = a.digit(i), b.digit(i)
        if x != y:
            return LT if x < y else GT
    return EQ


def check_generator(w: str) -> bool:
    """Admissibility test for a component generator a_1..a_m.

    Both chains must hold for every rotation point 0 < i <= m:
      reflect(a_i..a_m a_1..a_{i-1})      <= (a_1..a_m)+
      (a_i..a_m)+ reflect(a_1..a_{i-1})   <= (a_1..a_m)+
    Comparisons use the zero-padded word order.  The word must end in 0,
    as `word_inc` needs: the one word ending in 1 that the chains admit,
    1, gives 1^inf, the expansion of q = 2.
    """
    if not w:
        raise DomainError("generator must be nonempty")
    _check_word(w, "generator")
    if w[-1] != "0":
        return False
    top = word_inc(w)
    for i in range(len(w)):
        rot = w[i:] + w[:i]
        if word_cmp(reflect(rot), top) == GT:
            return False
        if word_cmp(word_inc(w[i:]) + reflect(w[:i]), top) == GT:
            return False
    return True


class ComponentSpec:
    """A connected component of the complement of the closure of the univoque
    base set, identified by its generator word (the alpha period of the left
    endpoint)."""

    def __init__(self, generator: str):
        if not check_generator(generator):
            raise DomainError(f"{generator!r} is not a valid generator")
        self.generator = generator
        self._omegas = [word_inc(generator)]

    def __repr__(self):
        return f"ComponentSpec({self.generator!r})"

    def omega(self, n: int) -> str:
        """n-th doubling word; length 2^n * len(generator)."""
        if n < 0:
            raise DomainError("need n >= 0")
        while len(self._omegas) <= n:
            w = self._omegas[-1]
            self._omegas.append(w + word_inc(reflect(w)))
        return self._omegas[n]


GEN0 = ComponentSpec("0")


# -- series evaluation -----------------------------------------------------


def _tail_numerator(t: EPSeq):
    """Numerator of (t)_q over the denominator q^m (q^p - 1)."""
    m, p = len(t.pre), len(t.per)
    qpre = polys.trim(int(ch) for ch in reversed(t.pre))
    qper = polys.trim(int(ch) for ch in reversed(t.per))
    qp1 = polys.add(polys.shift((1,), p), (-1,))
    return polys.add(polys.mul(qpre, qp1), qper), m, p


def eval_seq(s: EPSeq, q):
    """Exact value of sum_i s_i q^{-i} (digits 1-indexed), as the numerator
    of `_tail_numerator` over q^m (q^p - 1).

    Rational q (int/Fraction, or an exact-rational algebraic base) gives a
    Fraction; an algebraic base gives an element of its number field.
    """
    from .bases import AlgBase

    _check_seq(s)
    num, m, p = _tail_numerator(s)
    if isinstance(q, AlgBase):
        if q.exact_rational is None:
            fld = q.field()
            return fld.elem(num) * fld.series_den_inv(m, p)
        q = q.exact_rational
    q = Fraction(q)
    if q <= 1:
        raise DomainError("base must exceed 1")
    return polys.eval_at(num, q) / (q**m * (q**p - 1))


# Fixed-point scale of `SeriesEnclosure`, in bits.  It decides only how
# often an enclosure is too wide to settle a comparison, never whether the
# enclosure holds.
ENCLOSE_BITS = 128

_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class SeriesEnclosure:
    """Integer enclosures of series values at one rational point e > 1.

    With K = ENCLOSE_BITS and x = 1/e = b/a, `enclose(s)` gives integers
    lo <= 2^K (s)_e <= hi.  The powers 2^K x^i are kept rounded down and
    rounded up, grown on demand and shared by every sequence enclosed at e;
    the geometric factor 1/(1 - x^p) of the period is rounded outward too,
    and the period's share is kept per (period, preperiod length).
    `ones` is (floor, ceil) of 2^K/(e - 1), the value of 1^inf.

    `digit_sums` and `with_period` are the two halves of `enclose`, so a
    caller can sum a preperiod block by block and still get its enclosure
    bit for bit.
    """

    def __init__(self, e):
        e = Fraction(e)
        if e <= 1:
            raise DomainError("point must exceed 1")
        self._a, self._b = e.numerator, e.denominator
        self._one = 1 << ENCLOSE_BITS
        self._lo, self._hi = [self._one], [self._one]
        num, den = self._one * self._b, self._a - self._b
        self.ones = (num // den, -(-num // den))
        self._periods = {}

    def _powers(self, n: int):
        lo, hi, a, b = self._lo, self._hi, self._a, self._b
        while len(lo) <= n:
            lo.append(lo[-1] * b // a)
            hi.append(-(-hi[-1] * b // a))
        return lo, hi

    def digit_sums(self, word: str, start: int = 1) -> tuple:
        """(lo, hi): the rounded-down and the rounded-up 2^K x^i summed over
        the positions i = start, start + 1, ... that hold a digit 1 of word."""
        digits = word.encode().translate(_DIGIT_BYTES)
        end = start + len(digits)
        lo, hi = self._powers(end)
        return (sum(compress(lo[start:end], digits)),
                sum(compress(hi[start:end], digits)))

    def with_period(self, lo: int, hi: int, per: str, m: int) -> tuple:
        """(lo, hi) around 2^K times the value of the sequence whose m-digit
        preperiod has the digit sums (lo, hi) and whose period is per."""
        part = self._periods.get((per, m))
        if part is None:
            # the period repeats with ratio x^p: per / (1 - x^p)
            plo, phi = self.digit_sums(per, m + 1)
            one, p = self._one, len(per)
            den = one - self._hi[p]
            part = self._periods[per, m] = (
                plo * one // (one - self._lo[p]),
                -(-phi * one // den) if den > 0 else self.ones[1])
        # every 0/1 series is at most 1^inf
        return lo + part[0], min(hi + part[1], self.ones[1])

    def hi_growth(self, p: int, end: int) -> list:
        """For L = 0 .. end - 1, the most by which the hi of `with_period(lo,
        hi, per, m)`, before its cap at 1^inf, can exceed H, the rounded-up
        digit sum of positions 1 .. L + 1: over every 0/1 sequence whose
        period of length p starts at position m + 1, 1 <= m <= end and
        m >= L + 1 - p, with (lo, hi) the sums of its positions 1 .. m.

        The period's share is W + ceil(W x'/(1 - x')) for its p-digit sum W
        and x' the rounded-up x^p, so a digit 1 at a position past m never
        lowers the excess; digits 1 from position m + 1 on attain the most
        for each m, which is the sum of positions L + 2 .. m + p plus
        ceil(W x'/(1 - x'))."""
        one = self._one
        hi = self._powers(end + p + 1)[1]
        den = one - hi[p]
        if den <= 0:
            return [self.ones[1]] * end
        acc = list(accumulate(hi, initial=0))
        # most[m - 1]: the largest excess plus acc[L + 2] over periods from m' >= m
        most = list(accumulate(
            (acc[m + p + 1] - (-(acc[m + p + 1] - acc[m + 1]) * hi[p] // den)
             for m in range(end, 0, -1)), max))[::-1]
        return [most[max(0, L - p)] - acc[L + 2] for L in range(end)]

    def enclose(self, s: EPSeq, lead: str = "") -> tuple:
        """(lo, hi) around 2^K times the value of the sequence lead s."""
        _check_seq(s)
        _check_word(lead, "leading word")
        pre = lead + s.pre
        return self.with_period(*self.digit_sums(pre), s.per, len(pre))


# -- text form -------------------------------------------------------------


def format_epseq(s: EPSeq) -> str:
    if s.is_zero():
        return "0*"
    return f"{s.pre}({s.per})"


def parse_epseq(text: str) -> EPSeq:
    """Accepts pre(per), (per), 0*, w* (w then 0^inf), or a bare finite word."""
    t = text.strip().replace(" ", "")
    if not t:
        raise DomainError("empty sequence text")
    if t.endswith("*"):
        body = t[:-1]
        _check_word(body, "sequence")
        return from_word(body) if body else ZERO_SEQ
    if "(" in t:
        if not t.endswith(")") or t.count("(") != 1:
            raise DomainError(f"malformed sequence text {text!r}")
        pre, per = t[:-1].split("(")
        return EPSeq(pre, per)
    _check_word(t, "sequence")
    return from_word(t)
