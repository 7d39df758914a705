"""Slow, independent answer checks for the benchmark.

Nothing here imports the library: each check recomputes the property from
its definition with plain strings, Fractions and floats, so a wrong answer
from the library cannot also pass its own check.
"""

from __future__ import annotations

import math
from fractions import Fraction


def parse_seq(text: str) -> tuple:
    """(pre, per) of an eventually periodic 0/1 sequence in the library's
    text forms: pre(per), (per), 0*, w* and a bare finite word."""
    t = text.strip()
    if t.endswith("*"):
        return t[:-1], "0"
    if "(" in t:
        pre, per = t[:-1].split("(")
        return pre, per
    return t, "0"


def seq_value(pre: str, per: str, q: Fraction) -> Fraction:
    """Exact value of sum_i s_i q^-i for s = pre (per)^inf."""
    x = 1 / q
    head = Fraction(0)
    for ch in reversed(pre):
        head = (head + int(ch)) * x
    tail = Fraction(0)
    for ch in reversed(per):
        tail = (tail + int(ch)) * x
    return head + x ** len(pre) * tail / (1 - x ** len(per))


def defect(c: str, d: str, q: Fraction) -> Fraction:
    """(1c)_q + (1d)_q - (1^inf)_q at a rational base q."""
    cp, cq = parse_seq(c)
    dp, dq = parse_seq(d)
    return seq_value("1" + cp, cq, q) + seq_value("1" + dp, dq, q) - 1 / (q - 1)


def horner(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for a in reversed(poly):
        acc = acc * x + a
    return acc


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def decimal_brackets_root(f, text: str) -> bool:
    """Does the function f change sign across the printed decimal text,
    widened by one unit in its last digit?  A certified rounding of a simple
    root passes."""
    digits = len(text.split(".")[1]) if "." in text else 0
    x = Fraction(text)
    ulp = Fraction(1, 10**digits)
    a, b = _sign(f(x - ulp)), _sign(f(x + ulp))
    return a != 0 and b != 0 and a != b


def is_parry_periodic(w: str) -> bool:
    """Is (w)^inf the quasi-greedy expansion of 1 of some base in (1, 2]?
    It must start with 1 and every tail that follows a 0 must stay at most
    the whole sequence.  Tails of a purely periodic sequence are rotations,
    so comparing one period of each rotation decides."""
    if not w or w[0] != "1":
        return False
    n = len(w)
    for i in range(1, n + 1):
        if w[i - 1] == "0" and (w[i:] + w[:i]) > w:
            return False
    return True


def classify_periodic(w: str) -> str:
    """Four-way class of the base with quasi-greedy expansion (w)^inf, from
    the shift conditions on its rotations: tails t against alpha from above
    and against reflect(alpha) from below, strict or weak.  (1)^inf is the
    base 2, which lies in U."""
    if set(w) == {"1"}:
        return "U"
    n = len(w)
    r = w.translate(str.maketrans("01", "10"))
    strict_up = weak_up = strict_lo = weak_lo = True
    for i in range(1, n + 1):
        t = w[i:] + w[:i]
        if t >= w:
            strict_up = False
        if t > w:
            weak_up = False
        if r >= t:
            strict_lo = False
        if r > t:
            weak_lo = False
    if strict_up and strict_lo:
        return "U"
    if weak_up and strict_lo:
        return "Ubar\\U"
    if weak_up and weak_lo:
        return "V\\Ubar"
    return "not-V"


def thue_morse(n: int) -> str:
    """First n digits of the Thue-Morse sequence, 1-indexed."""
    return "".join(str(bin(i).count("1") & 1) for i in range(1, n + 1))


def log_count_bound(counts: list, lower: Fraction) -> bool:
    """Entropy h satisfies h <= log(W_n)/n for every n, so a certified lower
    bound may not exceed any of these; checked in floating point with a
    small allowance."""
    return all(float(lower) <= math.log(c) / n + 1e-12
               for n, c in enumerate(counts, start=1) if c > 0)


def count_alive_words(alpha_digits: str, n: int) -> int:
    """Number of length-n words in which no tail, reflected when it follows
    a 1, exceeds the matching prefix of alpha at its first disagreement.
    Exhaustive over all 2^n words; alpha_digits needs at least n digits."""
    total = 0
    for x in range(1 << n):
        bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
        alive = True
        for i in range(n):
            flip = bits[i]
            for t in range(n - i - 1):
                e = bits[i + 1 + t] ^ flip
                a = int(alpha_digits[t])
                if e != a:
                    alive = e < a
                    break
            if not alive:
                break
        total += alive
    return total
