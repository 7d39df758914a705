"""Enumerating two-expansion bases interval by interval.

The accumulation ladder q_1 < q_2 < ... splits the component generated by
0, from the golden ratio up to the Komornik-Loreti constant, into half-open
intervals (q_n, q_{n+1}].  Inside each interval the zero-leading
unique-expansion sequences are exactly the block profiles that
`repr_to_seq` assembles, so pairing profiles and isolating the defect roots
enumerates every two-expansion base of the interval, complete up to the
repetition bound Jmax.  The ladder itself, and the deep pair of
`prop62_witness`, take any generator; the deep pair's root is certified by
the same interval scan (`_interval`, `_pair_roots`) as every other root, so
`witness --prop62` and the deep rule of `min_derived` print one root.

Derived orders follow the counting rule: a representation pair whose top
block levels are k and k' certifies order 2n - (k+1) - (k'+1) relative to
the interval, a right endpoint inherits one order more than the families
converging down to it, and the explicit deep pairs of `prop62_pair` give an
order-n point strictly inside (q_n, q_{n+1}).  Both counting rules take
their pairs from one band scan, `_tail_pairs`: interior roots with its keys
at the ends of the interval's fixed ladder cells, a rooted endpoint q_n with
keys at q_n's cell over the tails of the interval below.

A derived-order scan caps the weight (k+1) + (k'+1) of its pairs, so every
pair it wants joins a light sequence (weight at most half the cap) to one of
any weight.  Its profile walk therefore keeps every light sequence, then
walks the heavy ones with bounds on the enclosure keys of each subtree and
keeps only the leaves that some light sequence can partner; uncapped scans
store the whole walk.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import polys
from .bases import AlgBase, base_from_alpha, cmp_seq_alpha, real_roots
from .b2core import (
    B2Witness,
    MonotoneCase,
    f_minpoly,
    f_sign,
    monotone_case,
    prop62_pair,
    q_f_base,
    _block,
    _bridge,
    _witness,
)
from .classify import in_A_prime
from .errors import DomainError, NotFoundWithinBoundsError
from .words import (
    EPSeq, ComponentSpec, GEN0, SeriesEnclosure, lex_cmp, word_dec,
    _primitive, _shortest,
)

__all__ = [
    "ReprVector",
    "LadderEntry",
    "qn_ladder",
    "prop62_witness",
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
        if len(j) != len(k) + 1 or len(s) != max(len(k) - 1, 0):
            raise DomainError("profile shapes must satisfy |j| = |k|+1, |s| = |k|-1")
        if not j or j[-1] is not math.inf:
            raise DomainError("final repetition count must be math.inf")
        if any(not isinstance(x, int) or x < 0 for x in j[:-1]):
            raise DomainError("interior repetition counts must be integers >= 0")
        if any(k[i] >= k[i + 1] for i in range(len(k) - 1)) or (k and k[0] < 0):
            raise DomainError("block levels must be strictly increasing and >= 0")
        if any(x not in (0, 1) for x in s):
            raise DomainError("bridge indicators must be 0 or 1")

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


def _vector_key(v: ReprVector) -> tuple:
    return v.k, v.s, v.j[:-1]


def _walk_key(v: ReprVector) -> tuple:
    """The order in which `_walk` visits profiles: levels, then the rest."""
    return v.m, *_vector_key(v)


def pair_weight(vc: ReprVector, vd: ReprVector) -> int:
    """(top levels + 1) summed; the counting weight of a representation."""
    return (vc.top_k + 1) + (vd.top_k + 1)


def repr_to_seq(v: ReprVector) -> EPSeq:
    """The sequence of profile v (checked when v was built):

        0^j0 [B(k1)]^j1 (bridge?) ... [B(k_m)]^inf

    where B(k) = omega_k reflect(omega_k) and, for s_i = 1, the bridge
    omega_{k_i} reflect(omega_{k_{i+1}}) sits between the k_i and k_{i+1}
    runs; the zero profile gives 0^inf."""
    k, s, j = v.k, v.s, v.j
    if not k:
        return EPSeq("", "0")
    if j[0] < 1:
        raise DomainError("leading generator run must be nonempty")
    pre = GEN0.generator * j[0]
    for i in range(len(k) - 1):
        pre += _block(GEN0, k[i]) * j[i + 1]
        if s[i]:
            pre += _bridge(GEN0, k[i], k[i + 1])
    return EPSeq(pre, _block(GEN0, k[-1]))


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
    expansion (omega_n minus)^inf and greedy expansion omega_n 0^inf.  Each
    q_n is built once per process and shared by every call.  What a call
    prints or scans reads fixed cells of it (`AlgBase.bracket` with a
    width), so no call sees how far an earlier one refined it."""
    if N < 1:
        raise DomainError("need N >= 1")
    out = []
    for n in range(1, N + 1):
        base = _ladder_base(comp.generator, n)
        out.append(LadderEntry(n, base, base.alpha_hint, comp.omega(n)))
    return out


@functools.cache
def _ladder_base(gen: str, n: int) -> AlgBase:
    """q_n of the component generated by gen, for `qn_ladder`."""
    return base_from_alpha(EPSeq("", word_dec(ComponentSpec(gen).omega(n))))


# ---------------------------------------------------------------------------
# profile enumeration


def enum_reprs(n: int, Jmax: int) -> list:
    """All block profiles valid in the interval (q_n, q_{n+1}], with finite
    repetition counts bounded by Jmax.  Deterministic order: graded by the
    length of the assembled sequence description, then lexicographic."""
    if n < 0 or Jmax < 1:
        raise DomainError("need n >= 0 and Jmax >= 1")
    rows = [(_text_key(text), ReprVector(*_profile(n, Jmax, i)))
            for text, (_, *ids) in _walk(n, Jmax).items() for i in ids]
    rows.sort(key=lambda r: (*r[0], *_vector_key(r[1])))
    return [v for _, v in rows]


def _text_key(text) -> tuple:
    """(length, text) of the sequence pre (per)^inf; (0) alone has length 1."""
    pre, per = text
    return len(pre) + len(per), pre + "(" + per + ")"


def _walk(top, Jmax, encs=(), weights=None) -> dict:
    """Every block profile with levels below `top` and finite repetition
    counts at most Jmax (a nonempty leading run), by the sequence it
    assembles: {(pre, per): (weight, *bounds, *ids)}, with the canonical
    text of each sequence, the least top_k + 1 of its profiles, the
    enclosure (lo, hi) of (1t) at each SeriesEnclosure of `encs` in turn,
    and the places of its profiles in the walk (see `_profile`).

    The walk goes depth first through the zero profile, then the number of
    levels, the levels k, the bridges s and the counts j0, j1, ... in turn,
    extending the raw preperiod one run at a time.  It carries the digit
    sums of the lead 1 and the raw preperiod at every enclosure, flattened
    to (lo, hi, lo, hi, ...); a run's sums depend only on its word and its
    position, so each is computed once.  The canonical preperiod is a
    prefix of the raw one, so the bounds are exactly
    `enc.enclose(EPSeq(pre, per), "1")`.  Entries are flat tuples of
    numbers, which the garbage collector stops tracking at once.

    A sequence's weight is fixed by its period: the period is a turn of the
    primitive period of block k[-1], and these have distinct lengths, so
    every profile of a sequence has the same top level.  `weights` maps the
    weights to walk, each to a `_Reach` that skips the subtrees and drops
    the leaves that cannot pair, or to None, which keeps every leaf; by
    default every weight is walked and kept.  Profiles left out still count
    their places, so ids are those of the full walk.
    """
    periods = [_primitive(_block(GEN0, k)) for k in range(top)]
    tails = {}
    runs = {}
    strips = {}
    count = 0

    def run(word, at):
        # the digit sums of word at positions at, at + 1, ...
        d = runs.get((word, at))
        if d is None:
            d = runs[word, at] = tuple(x for enc in encs for x in enc.digit_sums(word, at))
        return d

    def leaf(pre, per, weight, sums, start=0, reach=None):
        nonlocal count
        text = _shortest_memo(strips, pre, per, start)
        seen = tails.get(text)
        if seen is not None:
            tails[text] = (min(seen[0], weight), *seen[1:], count)
        else:
            cut = len(text[0])
            if cut < len(pre):
                sums = tuple(map(operator.sub, sums, run(pre[cut:], cut + 2)))
            entry = [weight]
            for i, enc in enumerate(encs):
                entry += enc.with_period(sums[2 * i], sums[2 * i + 1], text[1], cut + 1)
            if reach is None or reach.leaf(entry):
                entry.append(count)
                tails[text] = tuple(entry)
        count += 1

    def grow(k, s, i, pre, sums, reach):
        # the run of stage i: the generator (i = 0, nonempty), or block
        # k[i - 1] and then the bridge to k[i] where s[i - 1] is set; the
        # last stage ends in the periodic tail of block k[-1]
        nonlocal count
        if i == 0:
            block, bridge = GEN0.generator, ""
        else:
            block = _block(GEN0, k[i - 1])
            bridge = _bridge(GEN0, k[i - 1], k[i]) if s[i - 1] else ""
        last = i + 1 == len(k)
        below = (Jmax + 1) ** (len(k) - 1 - i)  # leaves below each count
        start = len(pre)
        for c in range(Jmax + 1):
            if c:
                sums = tuple(map(operator.add, sums, run(block, len(pre) + 2)))
                pre += block
            elif i == 0:
                continue
            if reach is not None and not reach.lo_allows(pre, sums):
                # more blocks only raise the lo sum: no later count pairs
                count += (Jmax + 1 - c) * below
                break
            child, child_sums = pre, sums
            if bridge:
                child += bridge
                child_sums = tuple(map(operator.add, sums, run(bridge, len(pre) + 2)))
            if last:
                leaf(child, periods[k[-1]], k[-1] + 1, child_sums, start, reach)
            elif reach is None or reach.node(child, child_sums):
                grow(k, s, i + 1, child, child_sums, reach)
            else:
                count += below

    # digit i of the raw preperiod sits at position i + 2, after the lead 1
    ones = run("1", 1)
    if weights is None or 0 in weights:
        leaf("", "0", 0, ones)
    else:
        count += 1
    for m in range(1, top + 1):
        for k in itertools.combinations(range(top), m):
            if weights is not None and k[-1] + 1 not in weights:
                count += Jmax * (Jmax + 1) ** (m - 1) << (m - 1)
                continue
            reach = None if weights is None else weights[k[-1] + 1]
            for s in itertools.product((0, 1), repeat=m - 1):
                grow(k, s, 0, "", ones, reach)
    return tails


def _shortest_memo(strips, pre, per, start) -> tuple:
    """`_shortest(pre, per)`, with the cut memoised in `strips` by the last
    run pre[start:] and the period.  While the strip stays inside the run it
    reads only the run's digits, so the cut and the turned period depend on
    (run, per) alone; a strip that takes the whole run may go on into the
    digits before it, so there the character loop runs on pre."""
    key = (pre[start:], per)
    cut = strips.get(key)
    if cut is None:
        head, turned = _shortest(*key)
        cut = strips[key] = (len(key[0]) - len(head), turned) if head else ()
    if not cut:
        return _shortest(pre, per)
    return pre[:len(pre) - cut[0]], cut[1]


def _profile(top, Jmax, i) -> tuple:
    """The profile (k, s, j) that `_walk` with these bounds visits i-th."""
    if i == 0:
        return (), (), (math.inf,)
    i -= 1
    for m in range(1, top + 1):
        size = Jmax * (Jmax + 1) ** (m - 1)
        groups = math.comb(top, m) << (m - 1)
        if i >= groups * size:
            i -= groups * size
            continue
        g, i = divmod(i, size)
        ki, si = divmod(g, 1 << (m - 1))
        k = next(itertools.islice(itertools.combinations(range(top), m), ki, None))
        s = tuple((si >> b) & 1 for b in range(m - 2, -1, -1))
        mids = []
        for _ in range(m - 1):
            i, c = divmod(i, Jmax + 1)
            mids.append(c)
        return k, s, (i + 1, *reversed(mids), math.inf)
    raise DomainError("no such profile")


def _graded_tails(n, Jmax, cap=math.inf, encs=(), ends=None) -> dict:
    """Distinct assembled sequences of interval n as (text, ids, bounds),
    grouped by the weight of the lightest profile; each group in (length,
    text) order.  `ids` are `_profile` places and `bounds` the enclosures
    at `encs`, flattened to (lo, hi, lo, hi, ...); see `_walk`.

    A weight cap enumerates only block levels below it (top_k + 1 <= cap),
    which prunes the profile space hard when cap < n.

    With `ends` = (floor, ceil), the pairs wanted are those of weight at most
    cap whose keys pass the band test of `_Band` (lo at encs[0], hi at
    encs[1]).  Such a pair joins a light sequence (weight <= cap / 2) to one
    of weight at most cap minus its own, so the light weights are walked and
    kept first.  The heavy ones are walked next, skipping every subtree and
    dropping every leaf that no light sequence of a weight it may pair with
    can partner (`_Reach`); a heavy group holds only the sequences kept, in
    the same order.
    """
    top = min(n, cap)
    if ends is None or 2 * top <= cap:
        tails = _walk(top, Jmax, encs)
    else:
        half = cap // 2
        tails = _walk(top, Jmax, encs, dict.fromkeys(range(half + 1)))
        end = _longest_pre(top, Jmax) + 1
        reach = {}
        for w in range(half + 1, top + 1):
            light = [e for e in tails.values() if e[0] <= cap - w]
            band = _Band([e[1] for e in light], [e[4] for e in light], *ends)
            reach[w] = _Reach(band, _primitive(_block(GEN0, w - 1)), encs[1], end)
        tails.update(_walk(top, Jmax, encs, reach))
    grades = {}
    ids = 1 + 2 * len(encs)
    for text, entry in tails.items():
        grades.setdefault(entry[0], []).append((text, entry[ids:], entry[1:ids]))
    for bucket in grades.values():
        bucket.sort(key=lambda t: _text_key(t[0]))
    return grades


def _longest_pre(top, Jmax) -> int:
    """A bound on the raw preperiod length of the profiles below `top`:
    Jmax runs of the generator and of every block, and a bridge, shorter
    than the top block, into each level but the first."""
    return (Jmax * (len(GEN0.generator) + sum(len(_block(GEN0, k)) for k in range(top)))
            + (top - 1) * len(_block(GEN0, top - 1)))


class _Reach:
    """Which leaves of one heavy weight can still pair with a light tail of
    `band`, judged at every node of `_walk` from its raw preperiod N (of
    length L) and the digit sums of 1N.

    Every leaf below the node is a sequence N ... per^inf, p = |per|, and
    its keys come from its canonical text.  The canonical preperiod can cut
    into N only by a suffix that per^inf repeats.  While that suffix is at
    most p long, the leaf's period starts at some m >= L + 1 - p, so its
    first repetition, summed digit by digit, covers position L + 1.  Its lo
    is then at least the lo digit sum of 1N, as the geometric rest adds at
    least 0, and its hi at most the hi digit sum plus
    `SeriesEnclosure.hi_growth`, and at most 1^inf's.  A node whose last
    p + 1 digits per^inf repeats has no such bounds and is kept; that is
    checked only where the bounds would drop the node.
    """

    def __init__(self, band, per, hi_enc, end):
        # hi_enc: the SeriesEnclosure of the hi key; end: 1 + the longest
        # raw preperiod below
        self.band = band
        self._p, self._twice = len(per), per + per
        self._ceil = hi_enc.ones[1]
        self._growth = hi_enc.hi_growth(len(per), end)

    def bounds(self, pre, sums) -> tuple:
        """(least lo, greatest hi) of the leaves below the node, unless
        `cuts_deep(pre)`."""
        return sums[0], min(self._ceil, sums[3] + self._growth[len(pre)])

    def cuts_deep(self, pre) -> bool:
        """Whether a canonical cut may take more than p digits of pre."""
        return len(pre) > self._p and pre[-self._p - 1:] in self._twice

    def lo_allows(self, pre, sums) -> bool:
        """Whether a leaf below this node, or below any longer run of its
        last block, can have a lo that some light partner allows."""
        return self.band.reaches(sums[0], math.inf) or self.cuts_deep(pre)

    def node(self, pre, sums) -> bool:
        """Whether a leaf below this node can pair."""
        return self.band.reaches(*self.bounds(pre, sums)) or self.cuts_deep(pre)

    def leaf(self, entry) -> bool:
        """Whether the leaf with this `_walk` entry pairs."""
        return self.band.reaches(entry[1], entry[4])


def _tail_pairs(n, Jmax, cap=math.inf, iv=None, keys=None):
    """Unordered pairs of distinct sequences of interval n, as (c, d, pairs)
    with c <= d lexicographically and `pairs` every profile pair (vc, vd)
    assembling them; a sequence paired with itself gets its profile pairs in
    `enum_reprs` order.

    Sequences are paired grade by grade, lightest first: grades (w1, w2)
    with w1 <= w2 in turn, and within them the first member in its grade's
    order, then the second.  A cap keeps only pairs whose lightest weights
    sum to at most it, so heavy-by-heavy products are never formed.
    (0^inf, 0^inf) is left out: its defect vanishes only at 2.

    With keys = (points, ends), only the pairs that pass the band test of
    `_Band` are formed, in the same order: the lower ends of the integer
    enclosures of (1c) and (1d) at points[0] sum to at most ends[0], and
    the upper ends at points[1] to at least ends[1].  On a monotone
    interval iv the keys default to points (a0, b1), the outer ends of its
    fixed ladder cells (`_Interval.ends`), with ends the floor of
    1/(a0 - 1) and the ceiling of 1/(b1 - 1): a pair is dropped when its
    defect is decided positive at a0 or negative at b1.  Shape-III defects
    increase on [a0, b1], the other shapes are positive there, and
    `_pair_roots` isolates inside [a0, b1], so it returns [] for every
    dropped pair.  Under a cap, a sequence heavier than cap / 2 can pair
    only with a lighter one, so the walk stores the light grades whole and,
    of the heavy ones, only the sequences that pass that test with some
    light sequence; whole heavy subtrees are skipped on bounds of their keys
    (`_graded_tails`).
    Positions, pairs and profile ids are those of the full walk.

    EPSeqs and ReprVectors are built only for the sequences of the pairs
    formed, and their enclosures at the points are kept in iv.
    """
    if keys is None and iv is not None and iv.monotone:
        a0, _, _, b1 = iv.ends
        keys = (a0, b1), (iv.ones(a0)[0], iv.ones(b1)[1])
    bands = None
    if keys is not None:
        points, ends = keys
        grades = _graded_tails(n, Jmax, cap, iv.enclosures(points), ends)
        # bounds are (lo, hi) at points[0], then (lo, hi) at points[1]
        bands = {w: _Band([b[0] for _, _, b in bucket], [b[3] for _, _, b in bucket], *ends)
                 for w, bucket in grades.items()}
    else:
        grades = _graded_tails(n, Jmax, cap)
    built = {}

    def tail(w, x):
        got = built.get((w, x))
        if got is None:
            text, ids, bounds = grades[w][x]
            t = EPSeq(*text)
            if keys is not None:
                iv.record(t, points, bounds)
            got = built[w, x] = (t, [ReprVector(*_profile(min(n, cap), Jmax, i))
                                     for i in ids])
        return got

    weights = sorted(grades)
    for i, w1 in enumerate(weights):
        for w2 in weights[i:]:
            if w1 + w2 > cap:
                break
            g1, g2 = grades[w1], grades[w2]
            if bands is not None:
                idx = bands[w2].pairs(bands[w1])
            elif w1 == w2:
                idx = itertools.combinations_with_replacement(range(len(g1)), 2)
            else:
                idx = itertools.product(range(len(g1)), range(len(g2)))
            for x, y in idx:
                (c, vcs), (d, vds) = tail(w1, x), tail(w2, y)
                if c == d:
                    if not c.is_zero():
                        vs = sorted(vcs, key=_vector_key)
                        yield c, d, tuple(itertools.combinations_with_replacement(vs, 2))
                    continue
                if lex_cmp(c, d) > 0:
                    c, d, vcs, vds = d, c, vds, vcs
                yield c, d, tuple(itertools.product(vcs, vds))


class _Band:
    """Tails sorted by a lower key, to find for a tail c every partner d with
    lo[c] + lo[d] <= floor and hi[c] + hi[d] >= ceil: the pairs that two
    enclosure tests cannot rule out, in O(log N + partners) per tail.

    Bisecting on hi needs hi nondecreasing along the lo order.  That is
    checked once with exact integers; where it fails, a partner still has
    lo >= hi - G >= need - G, with G the band's largest gap hi - lo, so
    only that window of the lo prefix is tested tail by tail.
    """

    def __init__(self, lo: list, hi: list, floor: int, ceil: int):
        self.lo, self.hi, self.floor, self.ceil = lo, hi, floor, ceil
        self._order = sorted(range(len(lo)), key=lambda i: (lo[i], hi[i]))
        self._lo = [lo[i] for i in self._order]
        self._hi = [hi[i] for i in self._order]
        self._hi_sorted = all(map(operator.le, self._hi, self._hi[1:]))
        if not self._hi_sorted:
            self._gap = max(map(operator.sub, hi, lo))

    def partners(self, lc: int, hc: int) -> list:
        """Positions of the partners of a tail with keys (lc, hc), increasing."""
        end = bisect.bisect_right(self._lo, self.floor - lc)
        need = self.ceil - hc
        if self._hi_sorted:
            return sorted(self._order[bisect.bisect_left(self._hi, need, 0, end):end])
        start = bisect.bisect_left(self._lo, need - self._gap, 0, end)
        return sorted(i for i, h in zip(self._order[start:end], self._hi[start:end])
                      if h >= need)

    def reaches(self, lc: int, hc: int) -> bool:
        """Whether a tail with keys (lc, hc) has a partner here: one
        bisection on the lo order and the greatest hi of that prefix."""
        end = bisect.bisect_right(self._lo, self.floor - lc)
        return end > 0 and self._most_hi[end - 1] >= self.ceil - hc

    @functools.cached_property
    def _most_hi(self) -> list:
        # the greatest hi of each prefix of the lo order
        return list(itertools.accumulate(self._hi, max))

    def pairs(self, first: "_Band"):
        """(x, y) for each tail x of `first` and each partner y of it here, in
        (x, y) order; when first is this band, only y >= x."""
        same = first is self
        for x, (lc, hc) in enumerate(zip(first.lo, first.hi)):
            for y in self.partners(lc, hc):
                if y >= x or not same:
                    yield x, y


@dataclass(frozen=True)
class _Interval:
    """The ladder interval (lo, hi] = (q_n, q_{n+1}]; lo is None for n = 0,
    the interval (1, q_1].

    ends: (a0, a1, b0, b1), the fixed cells of q_n and q_{n+1} that
    `_interval` picks (a0 = a1 = 1 for n = 0).  Scans read the ladder bases'
    values only through these cells, never through their working brackets,
    so no answer depends on how far earlier work narrowed them.
    shaped: q_f <= q_n, so pairs of shape I or II are positive throughout.
    monotone: q_f lies below a0, so shape-III defects increase strictly on
    [a0, b1] and four signs locate each root.
    """

    lo: AlgBase | None
    hi: AlgBase
    ends: tuple
    shaped: bool
    monotone: bool
    # per point, by exact value: its enclosure table and the enclosure of
    # each (1t) there
    _tables: dict = field(default_factory=dict, compare=False, repr=False)

    def ones(self, e: Fraction) -> tuple:
        """(floor, ceil) of 2^K/(e - 1)."""
        return self._table(e)[0].ones

    def enclosures(self, points) -> list:
        """The SeriesEnclosure of each point, for `_walk`."""
        return [self._table(e)[0] for e in points]

    def record(self, t: EPSeq, points, bounds) -> None:
        """Keep the enclosures of (1t) at the points, flattened to
        (lo, hi, lo, hi, ...), for `bounds`."""
        for i, e in enumerate(points):
            self._table(e)[1][t] = bounds[2 * i:2 * i + 2]

    def bounds(self, t: EPSeq, e: Fraction) -> tuple:
        """(lo, hi) around 2^K (1t)_e, enclosed once per tail and end."""
        enc, tails = self._table(e)
        b = tails.get(t)
        if b is None:
            b = tails[t] = enc.enclose(t, "1")
        return b

    def _table(self, e: Fraction) -> tuple:
        table = self._tables.get(e)
        if table is None:
            table = self._tables[e] = (SeriesEnclosure(e), {})
        return table

    def end_sign(self, c: EPSeq, d: EPSeq, e: Fraction) -> int | None:
        """Sign of the defect of (c, d) at e, decided from enclosures of
        (1c)_e + (1d)_e against 1/(e - 1); None when the sum straddles it."""
        (lc, hc), (ld, hd) = self.bounds(c, e), self.bounds(d, e)
        floor, ceil = self.ones(e)
        if lc + ld > floor:
            return 1
        if hc + hd < ceil:
            return -1
        return None


def _interval(ladder, n) -> _Interval:
    lo, hi = (ladder[n - 1].base if n >= 1 else None), ladder[n].base
    # cells of width 10^-30, narrowed from n = 6 on to 2^-(2^(n+1)): the gap
    # q_{n+1} - q_n is about 2^-(0.85 * 2^n) (2^-109 at n = 7), and a cell
    # narrower than the next gap keeps q_n, q_{n+1} and the roots just
    # above q_{n+1} apart, so that fewer pairs are isolated only to be cut
    eps = min(Fraction(1, 10 ** 30), Fraction(1, 1 << (2 << n)))
    a0, a1 = (1, 1) if lo is None else lo.bracket(eps)
    # sign of q_n - q_f, read off the quasi-greedy expansions, which grow
    # strictly with the base: exact, with no isolation of q_f
    side = -1 if lo is None else cmp_seq_alpha(ladder[n - 1].alpha, q_f_base())
    monotone = side > 0 and q_f_base().cmp_rational(a0) < 0
    return _Interval(lo, hi, (a0, a1, *hi.bracket(eps)), side >= 0, monotone)


def _pair_roots(c: EPSeq, d: EPSeq, iv: _Interval) -> list:
    """Certified defect roots of the pair (c, d) in the interval, as
    `B2Witness`es (`b2core._witness`) carrying the root and its
    admissibility verdict."""
    if iv.shaped and monotone_case(c, d) is not MonotoneCase.INCREASING_III:
        return []  # positive on the whole interval
    F = None
    a0, a1, b0, b1 = ends = iv.ends
    lo, hi = a0, b1  # isolate in (lo, hi]
    if iv.monotone:
        # F increases strictly from a0 to b1, so its one root there lies in
        # the window ending at the first cell end where F is nonnegative;
        # the exact sign is taken only where the enclosures straddle
        k = 0
        for i, e in enumerate(ends):
            s = iv.end_sign(c, d, e)
            if s is None:
                if F is None:
                    F = f_minpoly(c, d)
                s = polys.sign_at_rational(F, e)
            if s >= 0:
                k = i
                break
        if k == 0:
            return []  # nonnegative from a0 on, or still negative at b1
        lo, hi = ends[k - 1], ends[k]
    if F is None:
        F = f_minpoly(c, d)
    # windows reaching into a ladder cell are cut at its base
    return [_witness(c, d, root, F) for root in real_roots(F, lo, hi)
            if (lo >= a1 or root.cmp(iv.lo) > 0) and (hi <= b0 or root.cmp(iv.hi) <= 0)]


def enum_B2(n: int, Jmax: int) -> list:
    """All two-expansion bases in (q_n, q_{n+1}] witnessed by profile pairs
    with repetition counts at most Jmax, sorted increasingly; q_n is the
    ladder of the component generated by 0.

    Complete only up to Jmax: deeper witnesses need longer generator runs.
    """
    if n < 0 or Jmax < 1:
        raise DomainError("need n >= 0 and Jmax >= 1")
    iv = _interval(qn_ladder(GEN0, n + 1), n)
    by_minpoly = {}
    for c, d, pairs in _tail_pairs(n, Jmax, iv=iv):
        for w in _pair_roots(c, d, iv):
            key = tuple(w.minpoly)
            if key in by_minpoly:
                prev = by_minpoly[key]
                prev["pairs"].extend(pairs)
                prev["admissible"] = prev["admissible"] or w.admissible
            else:
                by_minpoly[key] = {
                    "root": w.root, "pairs": list(pairs), "admissible": w.admissible,
                }
    out = []
    for key, data in by_minpoly.items():
        pairs = sorted(
            set(data["pairs"]),
            key=lambda p: (pair_weight(*p), *_vector_key(p[0]), *_vector_key(p[1])),
        )
        vc, vd = pairs[0]
        w = B2Witness(
            c=repr_to_seq(vc),
            d=repr_to_seq(vd),
            root=data["root"],
            minpoly=key,
            admissible=data["admissible"],
            repr_vectors=tuple(pairs),
        )
        out.append(replace(w, derived_order=derived_order_bound(w, n)))
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


def min_derived(j: int, Jmax: int = 6, Nmax: int = 6) -> AlgBase:
    """Smallest two-expansion base certified to lie in the j-th derived set,
    scanning the intervals of the ladder of the component generated by 0 up
    to Nmax with profile counts up to Jmax.

    Certificates, in scan order per interval: the right endpoint q_n carries
    order 2n - S whenever it roots a weight-S pair of the previous interval
    and the appended one-parameter family of roots decreases to it strictly;
    an interior root of a weight-S pair carries order 2n - S; at n = j the
    root of the deep pair of `prop62_pair`, the one of the cached
    `prop62_witness` of generator 0, carries order n strictly inside its
    interval.
    """
    if j < 0:
        raise DomainError("need j >= 0")
    if Jmax < 1 or Nmax < 1:
        raise DomainError("need Jmax >= 1 and Nmax >= 1")
    ladder = qn_ladder(GEN0, Nmax + 1)
    n_min = max(1, (j + 2) // 2)
    for n in range(n_min, Nmax + 1):
        iv = _interval(ladder, n)
        cand = _endpoint_certificate(iv, n, j, Jmax)
        if cand is not None:
            return cand
        cands = _interior_candidates(iv, n, j, Jmax)
        if n == j and j >= 2:
            w = prop62_witness(GEN0.generator, j)[2]
            if w is None or not w.admissible:
                raise DomainError("deep pair must have an admissible root in the open interval")
            cands.append(w.root)
        if cands:
            return min(cands, key=functools.cmp_to_key(AlgBase.cmp))
    raise NotFoundWithinBoundsError(
        f"no derived-order-{j} certificate with Jmax={Jmax}, Nmax={Nmax}"
    )


def _endpoint_certificate(iv, n, j, Jmax):
    """If the ladder base q_n roots a previous-interval pair of weight S with
    2n - S >= j, and the appended family strictly decreases to q_n through
    admissible roots, return q_n.

    (c, d) is rooted at q_n iff (1c) + (1d) = 1/(q_n - 1).  Both sides
    decrease in q, so on q_n's fixed cell [a0, a1] (`_Interval.ends`) such
    a pair has (1c) + (1d) at most 1/(a0 - 1) at a1 and at least
    1/(a1 - 1) at a0: `_tail_pairs` with those keys forms every pair that
    can root there (and skips the heavy subtrees that cannot), and each
    pair lighter than the best so far is tested exactly by the one zero
    test `AlgBase.is_root_of` on its defect polynomial f_minpoly(c, d).
    The first rooted pair of least weight the scan meets is certified.
    Its members go to `_family_decreases_to` in `_graded_tails` order, each
    standing for itself through its first profile in walk order."""
    cap = 2 * n - j
    if cap < 1:
        return None
    qn = iv.lo
    a0, a1 = iv.ends[:2]
    keys = (a1, a0), (iv.ones(a0)[0], iv.ones(a1)[1])
    best = None
    for c, d, pairs in _tail_pairs(n - 1, Jmax, cap, iv, keys):
        S = pair_weight(*pairs[0])
        if (best is None or S < best[0]) and qn.is_root_of(f_minpoly(c, d)):
            best = S, c, d, pairs
    if best is None:
        return None
    _, c, d, pairs = best
    # from lexicographic back to `_graded_tails` order
    vc = min((p[0] for p in pairs), key=_walk_key)
    vd = min((p[1] for p in pairs), key=_walk_key)
    if (vd.top_k, _text_key((d.pre, d.per))) < (vc.top_k, _text_key((c.pre, c.per))):
        c, d, vc, vd = d, c, vd, vc
    if not (in_A_prime(c, qn) and in_A_prime(d, qn)):
        raise DomainError("endpoint pair must be admissible at its root")
    if not _family_decreases_to(iv, (vc, vd)):
        raise DomainError("endpoint family certificate failed")
    return qn


def _family_decreases_to(iv, pair) -> bool:
    """Append one block level to the heavier side of the pair and check that
    the resulting roots are admissible and strictly decrease inside the
    interval as the new repetition count grows."""
    vc, vd = pair
    if vc.m >= 1:
        side, other = vc, vd
    else:
        side, other = vd, vc
    other_seq = repr_to_seq(other)
    k_new = side.top_k + 1
    roots = []
    for u in (1, 2, 3):
        v_u = ReprVector(side.k + (k_new,), side.s + (1,), side.j[:-1] + (u, math.inf))
        rs = _pair_roots(repr_to_seq(v_u), other_seq, iv)
        if len(rs) != 1 or not rs[0].admissible:
            return False
        roots.append(rs[0].root)
    return roots[0].cmp(roots[1]) > 0 and roots[1].cmp(roots[2]) > 0


def _interior_candidates(iv, n, j, Jmax):
    """Admissible interior roots of interval n certified with order >= j by
    weight."""
    maxweight = 2 * n - j
    if maxweight < 1:
        return []
    return [w.root for c, d, _ in _tail_pairs(n, Jmax, maxweight, iv)
            for w in _pair_roots(c, d, iv) if w.admissible]


@functools.cache
def prop62_witness(gen: str, n: int) -> tuple:
    """The deep pair (c, d) of `prop62_pair` for the component generated by
    gen, its witness strictly inside (q_n, q_{n+1}) (None when there is no
    root there) and the defect's exact signs at q_n and at q_{n+1}; built
    once per process.  The witness is the one root of `_pair_roots` on
    `_interval`'s fixed ladder cells strictly below q_{n+1}; DomainError
    when there are more."""
    comp = ComponentSpec(gen)
    c, d = prop62_pair(comp, n)
    iv = _interval(qn_ladder(comp, n + 1), n)
    # strictly below q_{n+1}: q_{n+1} against the upper end of r's working
    # bracket decides first, and r is refined only when that end reaches
    # past q_{n+1}; either way an exact decision, which prints nothing
    found = [w for w in _pair_roots(c, d, iv)
             if iv.hi.cmp_rational(w.root.bracket()[1]) > 0 or w.root.cmp(iv.hi) < 0]
    if len(found) > 1:
        raise DomainError("deep pair must have at most one root in the open interval")
    w = found[0] if found else None
    return c, d, w, f_sign(c, d, iv.lo), f_sign(c, d, iv.hi)
