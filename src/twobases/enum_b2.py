"""Enumerating two-expansion bases interval by interval.

The accumulation ladder q_1 < q_2 < ... splits the component below the
Thue-Morse limit base into half-open intervals (q_n, q_{n+1}].  Inside each
interval the zero-leading unique-expansion sequences are exactly the block
profiles handled by `udiff_generate`, so pairing profiles and isolating the
defect roots enumerates every two-expansion base of the interval, complete
up to the repetition bound Jmax.

Derived orders follow the counting rule: a representation pair whose top
block levels are k and k' certifies order 2n - (k+1) - (k'+1) relative to
the interval, a right endpoint inherits one order more than the families
converging down to it, and the explicit deep pairs of `prop62_pair` give an
order-n point strictly inside (q_n, q_{n+1}).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .bases import AlgBase, base_from_alpha, real_roots, _tail_numerator
from .b2core import (
    B2Witness,
    MonotoneCase,
    f_minpoly,
    monotone_case,
    prop62_pair,
    q_f_base,
    _assemble,
    _check_profile,
    _residual_check,
)
from .classify import in_A_prime
from .errors import DomainError, NotFoundWithinBoundsError
from .words import EPSeq, ComponentSpec, GEN0, lex_cmp, prepend, word_dec

__all__ = [
    "ReprVector",
    "LadderEntry",
    "qn_ladder",
    "repr_to_seq",
    "enum_reprs",
    "enum_B2",
    "derived_order_bound",
    "min_derived",
]


@dataclass(frozen=True)
class ReprVector:
    """Block profile (k, s, j) of a zero-leading unique-expansion sequence:
    level tuple k, bridge indicators s, repetition counts j ending in inf."""

    k: tuple
    s: tuple
    j: tuple

    def __post_init__(self):
        k, s, j = tuple(self.k), tuple(self.s), tuple(self.j)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "j", j)
        _check_profile(k, s, j)

    @property
    def m(self) -> int:
        return len(self.k)

    @property
    def top_k(self) -> int:
        """Highest block level; -1 for the all-zero profile."""
        return self.k[-1] if self.k else -1

    def to_json(self) -> dict:
        return {
            "k": list(self.k),
            "s": list(self.s),
            "j": [x if x is not math.inf else "inf" for x in self.j],
        }


def pair_weight(vc: ReprVector, vd: ReprVector) -> int:
    """(top levels + 1) summed; the counting weight of a representation."""
    return (vc.top_k + 1) + (vd.top_k + 1)


def repr_to_seq(v: ReprVector, comp: ComponentSpec = GEN0, initial: str = "") -> EPSeq:
    if initial == "" and v.m >= 1 and v.j[0] < 1:
        raise DomainError("leading generator run must be nonempty")
    # the profile was checked when v was built; EPSeq checks the initial word
    return _assemble(comp, initial, v.k, v.s, v.j)


# ---------------------------------------------------------------------------
# the accumulation ladder


@dataclass(frozen=True)
class LadderEntry:
    n: int
    base: AlgBase
    alpha: EPSeq
    beta_word: str


def qn_ladder(comp: ComponentSpec, N: int) -> list:
    """Ladder bases q_1 < ... < q_N of the component: q_n has quasi-greedy
    expansion (omega_n minus)^inf and greedy expansion omega_n 0^inf."""
    if N < 1:
        raise DomainError("need N >= 1")
    out = []
    for n in range(1, N + 1):
        w = comp.omega(n)
        out.append(LadderEntry(n, base_from_alpha(EPSeq("", word_dec(w))), EPSeq("", word_dec(w)), w))
    return out


# ---------------------------------------------------------------------------
# profile enumeration


def enum_reprs(n: int, Jmax: int) -> list:
    """All block profiles valid in the interval (q_n, q_{n+1}], with finite
    repetition counts bounded by Jmax.  Deterministic order: graded by the
    length of the assembled sequence description, then lexicographic."""
    if n < 0 or Jmax < 1:
        raise DomainError("need n >= 0 and Jmax >= 1")
    out = list(_profiles(n, Jmax))

    def key(v):
        seq = repr_to_seq(v)
        return (len(seq.pre) + len(seq.per), seq.pre + "(" + seq.per + ")",
                v.k, v.s, v.j[:-1])

    out.sort(key=key)
    return out


def _profiles(top: int, Jmax: int):
    """Every block profile with levels below `top` and finite repetition
    counts at most Jmax (a nonempty leading run), the all-zero one first."""
    yield ReprVector((), (), (math.inf,))
    for m in range(1, top + 1):
        for k in itertools.combinations(range(top), m):
            for s in itertools.product((0, 1), repeat=m - 1):
                for j0 in range(1, Jmax + 1):
                    for mids in itertools.product(range(Jmax + 1), repeat=m - 1):
                        yield ReprVector(k, s, (j0, *mids, math.inf))


def _roots_in_interval(F, lo_base, hi_base) -> list:
    """Certified roots of the integer polynomial F inside (lo, hi], where lo
    may be None for an interval starting at 1 (exclusive)."""
    lo_r = Fraction(1) if lo_base is None else lo_base.bracket()[0]
    hi_r = hi_base.bracket()[1]
    return [root for root in real_roots(F, lo_r, hi_r)
            if (lo_base is None or root.cmp(lo_base) > 0) and root.cmp(hi_base) <= 0]


def _seq_pairs(comp, vectors):
    """Group unordered vector pairs by their assembled sequence pair."""
    seqs = [(v, repr_to_seq(v, comp)) for v in vectors]
    grouped = {}
    for (vc, c), (vd, d) in itertools.combinations_with_replacement(seqs, 2):
        if vc.m == 0 and vd.m == 0:
            continue  # the defect of (0^inf, 0^inf) vanishes only at 2
        if lex_cmp(c, d) <= 0:
            key, pair = (c, d), (vc, vd)
        else:
            key, pair = (d, c), (vd, vc)
        grouped.setdefault(key, []).append(pair)
    return sorted(
        ((c, d, tuple(pairs)) for (c, d), pairs in grouped.items()),
        key=lambda t: (len(t[0].pre) + len(t[0].per) + len(t[1].pre) + len(t[1].per),
                       str(t[0]), str(t[1])),
    )


def enum_B2(n: int, Jmax: int, comp: ComponentSpec = GEN0) -> list:
    """All two-expansion bases in (q_n, q_{n+1}] witnessed by profile pairs
    with repetition counts at most Jmax, sorted increasingly.

    Complete only up to Jmax: deeper witnesses need longer generator runs.
    """
    ladder = qn_ladder(comp, n + 1)
    lo_base = ladder[n - 1].base if n >= 1 else None
    hi_base = ladder[n].base
    above_qf = n >= 2  # for the zero component the interval sits above q_f
    by_minpoly = {}
    for c, d, pairs in _seq_pairs(comp, enum_reprs(n, Jmax)):
        if above_qf and monotone_case(c, d) is not MonotoneCase.INCREASING_III:
            continue  # guaranteed positive on the whole interval
        for root in _roots_in_interval(f_minpoly(c, d), lo_base, hi_base):
            _residual_check(c, d, root)
            ok = in_A_prime(c, root) and in_A_prime(d, root)
            key = tuple(root.minpoly())
            if key in by_minpoly:
                prev = by_minpoly[key]
                prev["pairs"].extend(pairs)
                prev["admissible"] = prev["admissible"] or ok
            else:
                by_minpoly[key] = {
                    "root": root, "pairs": list(pairs), "admissible": ok,
                }
    out = []
    for key, data in by_minpoly.items():
        pairs = sorted(
            set(data["pairs"]),
            key=lambda p: (pair_weight(*p), p[0].k, p[0].s, p[0].j[:-1],
                           p[1].k, p[1].s, p[1].j[:-1]),
        )
        vc, vd = pairs[0]
        w = B2Witness(
            c=repr_to_seq(vc, comp),
            d=repr_to_seq(vd, comp),
            root=data["root"],
            minpoly=key,
            admissible=data["admissible"],
            repr_vectors=tuple(pairs),
        )
        order = derived_order_bound(w, n)
        out.append(B2Witness(w.c, w.d, w.root, w.minpoly, w.admissible,
                             w.repr_vectors, order))
    out.sort(key=functools.cmp_to_key(lambda a, b: a.root.cmp(b.root)))
    return out


def derived_order_bound(w: B2Witness, n: int) -> int:
    """Largest derived order certified by the recorded representations of w
    relative to the interval (q_n, q_{n+1}]: max of 2n - weight, floored at 0."""
    if not w.repr_vectors:
        raise DomainError("witness carries no structured representations")
    best = max(2 * n - pair_weight(vc, vd) for vc, vd in w.repr_vectors)
    return max(best, 0)


# ---------------------------------------------------------------------------
# smallest element of a derived set


def min_derived(j: int, Jmax: int = 6, Nmax: int = 6, comp: ComponentSpec = GEN0) -> AlgBase:
    """Smallest two-expansion base certified to lie in the j-th derived set,
    scanning the ladder intervals up to Nmax with profile counts up to Jmax.

    Certificates, in scan order per interval: the right endpoint q_n carries
    order 2n - S whenever it roots a weight-S pair of the previous interval
    and the appended one-parameter family of roots decreases to it strictly;
    an interior root of a weight-S pair carries order 2n - S; the explicit
    deep pair of `prop62_pair` carries order n strictly inside its interval.
    """
    if j < 0:
        raise DomainError("need j >= 0")
    if Jmax < 1 or Nmax < 1:
        raise DomainError("need Jmax >= 1 and Nmax >= 1")
    ladder = qn_ladder(comp, Nmax + 1)
    n_min = max(1, (j + 2) // 2)
    for n in range(n_min, Nmax + 1):
        if n >= 2:
            cand = _endpoint_certificate(comp, ladder, n, j, Jmax)
            if cand is not None:
                return cand
        cands = _interior_candidates(comp, ladder, n, j, Jmax)
        if n == j and j >= 2:
            cands.append(_prop62_root(comp, ladder, j))
        if cands:
            best = cands[0]
            for c in cands[1:]:
                if c.cmp(best) < 0:
                    best = c
            return best
    raise NotFoundWithinBoundsError(
        f"no derived-order-{j} certificate with Jmax={Jmax}, Nmax={Nmax}"
    )


def _weight_graded_seqs(comp, n, Jmax, maxweight):
    """Distinct assembled sequences of interval n with a representation of
    weight <= maxweight, grouped by the weight of their lightest one.

    Only block levels below maxweight can appear, which prunes the profile
    space hard when maxweight < n.
    """
    lightest = {}

    def note(v):
        w = v.top_k + 1
        s = repr_to_seq(v, comp)
        cur = lightest.get(s)
        if cur is None or w < cur[0]:
            lightest[s] = (w, v)

    # levels stay below min(n, maxweight): top_k + 1 <= maxweight, top_k < n
    for v in _profiles(min(n, maxweight), Jmax):
        note(v)
    grades = {}
    for s, (w, v) in lightest.items():
        grades.setdefault(w, []).append((s, v))
    for bucket in grades.values():
        bucket.sort(key=lambda t: (len(t[0].pre) + len(t[0].per), str(t[0])))
    return grades


def _graded_pairs(grades, maxweight):
    """Unordered sequence pairs from the weight grading, total weight capped.

    Pairing bucket by bucket keeps heavy-by-heavy products out entirely.
    """
    weights = sorted(grades)
    for w1 in weights:
        for w2 in weights:
            if w2 < w1 or w1 + w2 > maxweight:
                continue
            if w1 == w2:
                it = itertools.combinations_with_replacement(grades[w1], 2)
            else:
                it = itertools.product(grades[w1], grades[w2])
            for (c, vc), (d, vd) in it:
                if vc.m == 0 and vd.m == 0:
                    continue  # the defect of (0^inf, 0^inf) vanishes only at 2
                yield c, d, vc, vd


def _tail_value(fld, t: EPSeq):
    """Value of the eventually periodic sequence t at the field's base.

    Works modulo the minimal polynomial: reduce the cleared numerator and
    multiply by the cached inverse of q^m (q^p - 1)."""
    num, m, p = _tail_numerator(t)
    cache = getattr(fld, "_tail_den_inv", None)
    if cache is None:
        cache = {}
        fld._tail_den_inv = cache
    inv = cache.get((m, p))
    if inv is None:
        den = polys.shift(polys.add(polys.shift((1,), p), (-1,)), m)
        inv = fld.elem(den).inv()
        cache[(m, p)] = inv
    return fld.elem(num) * inv


def _endpoint_certificate(comp, ladder, n, j, Jmax):
    """If the ladder base q_n roots a previous-interval pair of weight S with
    2n - S >= j, and the appended family strictly decreases to q_n through
    admissible roots, return q_n.

    Rooted pairs are found by a hash join on exact field values: (c, d) is
    rooted at q_n iff value(1c) + value(1d) = 1/(q_n - 1) in Q(q_n)."""
    maxweight = 2 * n - j
    if maxweight < 1:
        return None
    qn = ladder[n - 1].base
    fld = qn.field()
    ones = (fld.base_elem() - fld.one()).inv()
    entries = []
    for w, bucket in sorted(_weight_graded_seqs(comp, n - 1, Jmax, maxweight).items()):
        for s, v in bucket:
            entries.append((w, s, v, _tail_value(fld, prepend("1", s))))
    by_value = {}
    for w, s, v, val in entries:
        cur = by_value.get(val)
        if cur is None or w < cur[0]:
            by_value[val] = (w, s, v)
    best = None
    for w, s, v, val in entries:
        hit = by_value.get(ones - val)
        if hit is None:
            continue
        w2, s2, v2 = hit
        if v.m == 0 and v2.m == 0:
            continue
        if w + w2 > maxweight:
            continue
        if best is None or w + w2 < best[0]:
            best = (w + w2, (v, v2), (s, s2))
    if best is None or 2 * n - best[0] < j:
        return None
    S, pair, (c, d) = best
    if not (in_A_prime(c, qn) and in_A_prime(d, qn)):
        raise DomainError("endpoint pair must be admissible at its root")
    if not _family_decreases_to(comp, ladder, n, pair):
        raise DomainError("endpoint family certificate failed")
    return qn


def _family_decreases_to(comp, ladder, n, pair) -> bool:
    """Append one block level to the heavier side of the pair and check that
    the resulting roots are admissible and strictly decrease inside
    (q_n, q_{n+1}) as the new repetition count grows."""
    vc, vd = pair
    if vc.m >= 1:
        side, other = vc, vd
    else:
        side, other = vd, vc
    other_seq = repr_to_seq(other, comp)
    k_new = side.top_k + 1
    roots = []
    for u in (1, 2, 3):
        v_u = ReprVector(side.k + (k_new,), side.s + (1,), side.j[:-1] + (u, math.inf))
        seq_u = repr_to_seq(v_u, comp)
        rs = _roots_in_interval(f_minpoly(seq_u, other_seq),
                               ladder[n - 1].base, ladder[n].base)
        if len(rs) != 1:
            return False
        if not (in_A_prime(seq_u, rs[0]) and in_A_prime(other_seq, rs[0])):
            return False
        roots.append(rs[0])
    return roots[0].cmp(roots[1]) > 0 and roots[1].cmp(roots[2]) > 0


def _interior_candidates(comp, ladder, n, j, Jmax):
    """Interior roots of interval n certified with order >= j by weight."""
    maxweight = 2 * n - j
    if maxweight < 1:
        return []
    if n >= 3:
        return _interior_fast(comp, ladder, n, Jmax, maxweight)
    lo_base = ladder[n - 1].base if n >= 1 else None
    hi_base = ladder[n].base
    above_qf = n >= 2
    out = []
    grades = _weight_graded_seqs(comp, n, Jmax, maxweight)
    for c, d, vc, vd in _graded_pairs(grades, maxweight):
        if above_qf and monotone_case(c, d) is not MonotoneCase.INCREASING_III:
            continue
        for root in _roots_in_interval(f_minpoly(c, d), lo_base, hi_base):
            _residual_check(c, d, root)
            if in_A_prime(c, root) and in_A_prime(d, root):
                out.append(root)
    return out


def _interior_fast(comp, ladder, n, Jmax, maxweight):
    """Interval n >= 3 sits above the strict-monotonicity threshold, so the
    remaining pairs all have strictly increasing defects there: four exact
    signs at tight rational brackets around the interval ends decide root
    existence, and only survivors pay for isolation."""
    qa, qb = ladder[n - 1].base, ladder[n].base
    eps = Fraction(1, 10 ** 30)
    qa.refine(eps)
    qb.refine(eps)
    a0, a1 = qa.bracket()
    b0, b1 = qb.bracket()
    if not q_f_base().cmp_rational(a0) < 0:
        raise DomainError("interval must sit above the monotonicity threshold")
    out = []
    grades = _weight_graded_seqs(comp, n, Jmax, maxweight)
    for c, d, vc, vd in _graded_pairs(grades, maxweight):
        if monotone_case(c, d) is not MonotoneCase.INCREASING_III:
            continue  # guaranteed positive on the whole interval
        F = f_minpoly(c, d)
        if polys.sign_at_rational(F, a0) >= 0:
            continue  # increasing and already nonnegative below q_n
        roots = []
        if polys.sign_at_rational(F, a1) >= 0:
            # root pinned inside the left bracket; keep it only above q_n
            roots = [r for r in real_roots(F, a0, a1) if r.cmp(qa) > 0]
        else:
            sb0 = polys.sign_at_rational(F, b0)
            if sb0 > 0:
                roots = real_roots(F, a1, b0)
            elif sb0 == 0:
                roots = [AlgBase.from_rational(b0)]
            else:
                if polys.sign_at_rational(F, b1) >= 0:
                    # root inside the right bracket; keep it only up to q_{n+1}
                    roots = [r for r in real_roots(F, b0, b1) if r.cmp(qb) <= 0]
                # still negative at b1: the root lies beyond the interval
        for root in roots:
            _residual_check(c, d, root)
            if in_A_prime(c, root) and in_A_prime(d, root):
                out.append(root)
    return out


def _prop62_root(comp, ladder, n) -> AlgBase:
    """Certified root of the deep pair strictly inside (q_n, q_{n+1})."""
    c, d = prop62_pair(comp, n)
    F = f_minpoly(c, d)
    qa, qb = ladder[n - 1].base, ladder[n].base
    while polys.sign_at_rational(F, qa.bracket()[1]) >= 0:
        lo, hi = qa.bracket()
        qa.refine((hi - lo) / 4)
    while polys.sign_at_rational(F, qb.bracket()[0]) <= 0:
        lo, hi = qb.bracket()
        qb.refine((hi - lo) / 4)
    roots = real_roots(F, qa.bracket()[1], qb.bracket()[0])
    if len(roots) != 1:
        raise DomainError("deep pair must have a unique root in the open interval")
    root = roots[0]
    _residual_check(c, d, root)
    if not (in_A_prime(c, root) and in_A_prime(d, root)):
        raise DomainError("deep pair root must be admissible")
    return root
