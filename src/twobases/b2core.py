"""Locating bases that give some point exactly two expansions.

A base q carries a point with exactly two expansions precisely when the
defect function

    f(q) = (1c)_q + (1d)_q - (1^inf)_q

vanishes for a pair of tail sequences c, d drawn from the zero-leading
unique-expansion sequences of q.  This module evaluates f exactly, clears
its denominators into an integer polynomial with the same roots inside
(1, 2], isolates and certifies those roots, and spells the block words
from which the enumeration layer assembles its candidate sequences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import polys
from .bases import AlgBase, base_from_alpha, real_roots
from .classify import in_A_prime, in_Vq_seq
from .errors import DomainError, NoRootByCaseError
from .words import (
    EPSeq,
    ComponentSpec,
    _check_seq,
    _tail_numerator,
    eval_seq,
    format_epseq,
    from_word,
    lex_cmp,
    prepend,
    reflect,
    word_dec,
)

__all__ = [
    "MonotoneCase",
    "monotone_case",
    "f_eval",
    "f_minpoly",
    "f_sign",
    "solve_qcd",
    "B2Witness",
    "certify_b2",
    "witness_for_V_base",
    "prop62_pair",
    "q_f_base",
]


# ---------------------------------------------------------------------------
# the defect function


def f_eval(c: EPSeq, d: EPSeq, q):
    """Exact value of (1c)_q + (1d)_q - (1^inf)_q.

    q may be a rational in (1, 2] (Fraction result) or an AlgBase (FieldElem
    result in the field generated by its minimal polynomial).
    """
    _check_seq(c, d)
    tc, td = prepend("1", c), prepend("1", d)
    if isinstance(q, AlgBase):
        if q.exact_rational is not None:
            q = q.exact_rational
        else:
            return eval_seq(tc, q) + eval_seq(td, q) - q.field().series_den_inv(0, 1)
    q = Fraction(q)
    if not (1 < q <= 2):
        raise DomainError(f"base must lie in (1,2], got {q}")
    return eval_seq(tc, q) + eval_seq(td, q) - Fraction(1) / (q - 1)


def f_minpoly(c: EPSeq, d: EPSeq) -> tuple:
    """Monic integer polynomial whose roots in (1, 2] are exactly the roots
    of the defect function for the pair (c, d).

    All three terms of f are put over the common denominator q^M (q^P - 1),
    which is positive throughout (1, 2], so no roots are gained or lost
    there.  The result may factor; certification re-checks each root.
    """
    tc, td = prepend("1", c), prepend("1", d)
    nc, mc, pc = _tail_numerator(tc)
    nd, md, pd = _tail_numerator(td)
    M = max(mc, md)
    P = math.lcm(pc, pd)

    def lifted(num, m, p):
        # multiply by q^(M-m) * (q^P - 1)/(q^p - 1)
        geom = polys.trim(
            1 if i % p == 0 else 0 for i in range(P - p + 1)
        )
        return polys.shift(polys.mul(num, geom), M - m)

    ones = polys.shift(tuple([1] * P), M)
    F = polys.sub(polys.add(lifted(nc, mc, pc), lifted(nd, md, pd)), ones)
    F = polys.trim(F)
    if polys.degree(F) != M + P - 1 or F[-1] != 1:
        raise DomainError("defect numerator must be monic of degree M + P - 1")
    return F


class MonotoneCase(Enum):
    """Shape classification of a sequence pair, deciding the behaviour of the
    defect function on the right part of the base interval."""

    POSITIVE_I = "positive-i"        # one tail >= 010^inf: f > 0 from q_f on
    POSITIVE_II = "positive-ii"      # (>= 0^3 1, >= 0^2 1) split: f > 0 from q_f on
    INCREASING_III = "increasing-iii"  # strictly increasing from q_f on


_T1 = from_word("01")
_T2 = from_word("001")
_T3 = from_word("0001")


def monotone_case(c: EPSeq, d: EPSeq) -> MonotoneCase:
    if lex_cmp(c, _T1) >= 0 or lex_cmp(d, _T1) >= 0:
        return MonotoneCase.POSITIVE_I
    if (lex_cmp(c, _T3) >= 0 and lex_cmp(d, _T2) >= 0) or (
        lex_cmp(c, _T2) >= 0 and lex_cmp(d, _T3) >= 0
    ):
        return MonotoneCase.POSITIVE_II
    return MonotoneCase.INCREASING_III


@functools.cache
def q_f_base() -> AlgBase:
    """Smallest accumulation point of the two-expansion bases: the root of
    q^3 - 2q^2 + q - 1 in (1, 2)."""
    return AlgBase.from_poly((-1, 1, -2, 1), Fraction(7, 4), Fraction(9, 5))


def f_sign(c: EPSeq, d: EPSeq, q: AlgBase) -> int:
    """Certified sign of the defect function at q."""
    return sign_at(f_minpoly(c, d), q)


def sign_at(F, q: AlgBase) -> int:
    """Certified sign of the integer polynomial F at the algebraic point q,
    from q's power table (`AlgBase.sign_of`) after an exact zero test
    (`AlgBase.is_root_of`); UnsupportedBaseError when
    bases.SIGN_REFINE_BUDGET halvings of q's working bracket leave it
    undecided.  What q prints does not move."""
    F = polys.trim(F)
    # exact-zero test first: the table separates only a nonzero F(q) from zero
    if q.is_root_of(F):
        return 0
    return q.sign_of(F)


# ---------------------------------------------------------------------------
# root isolation and certification


def solve_qcd(c: EPSeq, d: EPSeq, lo, hi) -> AlgBase | None:
    """The root of the defect function for (c, d) inside [lo, hi], if any.

    Raises NoRootByCaseError when the pair falls in a guaranteed-positive
    shape class and the whole bracket sits at or above q_f; raises
    DomainError when the bracket holds more than one root.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not (1 < lo < hi <= 2):
        raise DomainError("bracket must satisfy 1 < lo < hi <= 2")
    case = monotone_case(c, d)
    if case is not MonotoneCase.INCREASING_III and q_f_base().cmp_rational(lo) <= 0:
        raise NoRootByCaseError(
            f"pair of shape {case.value} has no zero at or above q_f"
        )
    # f_minpoly is monic, so a rational root is an integer and cannot sit at
    # lo in (1, 2): the half-open (lo, hi] misses no root of [lo, hi]
    found = real_roots(f_minpoly(c, d), lo, hi)
    if not found:
        return None
    if len(found) > 1:
        raise DomainError(
            f"{len(found)} defect roots in [{lo}, {hi}]; shrink the bracket"
        )
    return found[0]


@dataclass(frozen=True)
class B2Witness:
    """A certified root of a defect function, with its admissibility verdict
    and whatever structured representations are known for the pair."""

    c: EPSeq
    d: EPSeq
    root: AlgBase
    minpoly: tuple
    admissible: bool
    repr_vectors: tuple = ()
    derived_order: int | None = None

    def to_json(self, digits: int = 14) -> dict:
        out = {
            "c": format_epseq(self.c),
            "d": format_epseq(self.d),
            "minpoly": list(self.minpoly),
            "root": self.root.decimal(digits),
            "admissible": self.admissible,
            "derived_order": self.derived_order,
        }
        if self.repr_vectors:
            out["repr_vectors"] = [
                [v.to_json() for v in pair] for pair in self.repr_vectors
            ]
        return out


def _witness(c: EPSeq, d: EPSeq, root: AlgBase, F) -> B2Witness:
    """Certify a root of F = f_minpoly(c, d): the root's minimal polynomial
    must divide F (`AlgBase.is_root_of`), and both sequences are tested for
    membership in the zero-leading unique-expansion set of the root."""
    minpoly = root.minpoly()  # first, so that the zero test is the division
    if not root.is_root_of(F):
        raise DomainError("root fails the exact defect residual")
    admissible = in_A_prime(c, root) and in_A_prime(d, root)
    return B2Witness(c, d, root, minpoly, admissible)


def certify_b2(c: EPSeq, d: EPSeq, lo, hi) -> B2Witness | None:
    """Isolate the defect root of (c, d) in [lo, hi] and certify it
    (`_witness`)."""
    root = solve_qcd(c, d, lo, hi)
    return None if root is None else _witness(c, d, root, f_minpoly(c, d))


# ---------------------------------------------------------------------------
# hand-built witnesses


def witness_for_V_base(gen: str) -> B2Witness:
    """Two-expansion witness at the base whose quasi-greedy expansion of 1 is
    (a+ reflect(a+))^inf, where a = gen ends in 0.

    The pair is c = reflect(a+) a^inf and d = 0^(2|a|) reflect(a)^inf.
    """
    if not gen or gen[-1] != "0" or set(gen) - {"0", "1"}:
        raise DomainError("generator word must be binary and end in 0")
    a = gen
    aplus = a[:-1] + "1"
    per = aplus + reflect(aplus)
    alpha = EPSeq("", per)
    root = base_from_alpha(alpha)
    if not in_Vq_seq(alpha, root):
        raise DomainError("constructed expansion fails the weak shift condition")
    c = EPSeq(reflect(aplus), a)
    d = EPSeq("0" * (2 * len(a)), reflect(a))
    return _witness(c, d, root, f_minpoly(c, d))


def prop62_pair(comp: ComponentSpec, n: int) -> tuple:
    """Pair whose defect root lies strictly between the n-th and (n+1)-th
    ladder bases of the component and realises derived order n.  Needs n >= 2.
    """
    if n < 2:
        raise DomainError("construction needs n >= 2")
    w0 = comp.omega(0)
    m = len(w0)
    blocks = "".join(_block(comp, i) for i in range(n - 2))
    c = EPSeq("0" * (2**n * m) + reflect(w0) + word_dec(w0), _block(comp, 0))
    d = EPSeq(reflect(w0) + word_dec(w0) + blocks, _block(comp, n - 2))
    return c, d


# ---------------------------------------------------------------------------
# block words


def _block(comp: ComponentSpec, k: int) -> str:
    w = comp.omega(k)
    return w + reflect(w)


def _bridge(comp: ComponentSpec, k_from: int, k_to: int) -> str:
    return comp.omega(k_from) + reflect(comp.omega(k_to))
