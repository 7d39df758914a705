"""Size of the unique-expansion language, and local smallness of the
two-expansion spectrum.

For a base q in (1, 2] whose quasi-greedy expansion alpha of 1 is eventually
periodic, the words with no visible tail violation form a regular language:
a state remembers, for every comparison opened at an earlier digit, how far
the stream has agreed with alpha (against the reflected digits when the
opening digit was a one).  Wrapping the agreement length into alpha's
preperiod-plus-period window keeps the state space finite.

Path counts, cycle structure and the Perron root of the transition matrix
then give exact word counts, a zero-entropy certificate, and certified
two-sided entropy bounds.  The language is closed under subwords, so the
count W_n of length-n words is submultiplicative and (log W_n)/n is a
certified upper bound for the entropy at every single n; dividing entropy by
log q turns it into an enclosure for the Hausdorff dimension of the set of
uniquely expandable points.  The counted language exceeds the
unique-expansion sequences only by the countably many streams whose tail
agrees with alpha forever, so no growth rate changes.

The local bound for the two-expansion spectrum rests on monotonicity of the
language in the base: any larger base with a manageable automaton bounds the
entropy on a whole neighbourhood, and a two-expansion base is pinned down by
a pair of unique-expansion tails, which costs at most twice the entropy per
log of the contraction.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .bases import AlgBase, alpha_epseq, base_from_alpha, parry_check, real_roots
from .classify import _sccs
from .enum_b2 import qn_ladder
from .errors import DomainError, UnsupportedBaseError
from .words import EPSeq, GEN0, thue_morse

__all__ = [
    "UqAutomaton",
    "uq_automaton",
    "build_automaton",
    "path_counts",
    "brute_count_words",
    "EntropyResult",
    "entropy",
    "dim_U",
    "overapprox_pool",
    "b2_local_bound",
]

STATE_CAP = 4096
# Automata with at most this many states get their exact Perron root from
# the characteristic polynomial in `entropy`; larger ones get word counts.
EXACT_CAP = 64


@dataclass(frozen=True)
class UqAutomaton:
    """Transition structure of the no-visible-violation words for one alpha.

    states[i] is the pair of frozen agreement-length sets (opened by zeros,
    opened by ones); edges[i] lists (digit, target) moves that stay alive.
    Index 0 is the start state with nothing pending."""

    alpha: EPSeq
    states: tuple
    edges: tuple

    @property
    def size(self) -> int:
        return len(self.states)

    def matrix(self) -> list:
        A = [[0] * self.size for _ in range(self.size)]
        for s, es in enumerate(self.edges):
            for _b, t in es:
                A[s][t] += 1
        return A


def uq_automaton(alpha: EPSeq) -> UqAutomaton:
    """Subset automaton tracking every unresolved comparison against alpha;
    refused beyond STATE_CAP states."""
    if alpha.digit(0) != 1:
        raise DomainError("alpha must start with digit one")
    if alpha.per == "0":
        raise DomainError("alpha must carry infinitely many ones")
    m, p = len(alpha.pre), len(alpha.per)

    def wrap(l):
        return l if l < m + p else m + ((l - m) % p)

    def step(state, b):
        P0, P1 = state
        n0, n1 = set(), set()
        for l in P0:
            a = alpha.digit(l)
            if b > a:
                return None
            if b == a:
                n0.add(wrap(l + 1))
        for l in P1:
            a = alpha.digit(l)
            e = 1 - b
            if e > a:
                return None
            if e == a:
                n1.add(wrap(l + 1))
        (n0 if b == 0 else n1).add(0)
        return frozenset(n0), frozenset(n1)

    start = (frozenset(), frozenset())
    index = {start: 0}
    order = [start]
    edges = []
    queue = deque([start])
    while queue:
        s = queue.popleft()
        out = []
        for b in (0, 1):
            t = step(s, b)
            if t is None:
                continue
            if t not in index:
                if len(index) >= STATE_CAP:
                    raise UnsupportedBaseError("automaton exceeded the state cap")
                index[t] = len(order)
                order.append(t)
                queue.append(t)
            out.append((b, index[t]))
        edges.append(tuple(out))
    return UqAutomaton(alpha, tuple(order), tuple(edges))


def build_automaton(q: AlgBase) -> UqAutomaton:
    """Automaton of the unique-expansion words of base q.  Needs the
    quasi-greedy expansion of 1 to be eventually periodic."""
    return uq_automaton(alpha_epseq(q))


def path_counts(aut: UqAutomaton, n: int) -> list:
    """Numbers of alive words of lengths 1..n, counted along automaton paths."""
    if n < 1:
        raise DomainError("need n >= 1")
    vec = [0] * aut.size
    vec[0] = 1
    out = []
    for _ in range(n):
        vec = _matvec(aut.edges, vec)
        out.append(sum(vec))
    return out


def brute_count_words(alpha: EPSeq, n: int) -> int:
    """Reference count of the length-n alive words, checked window by window.

    A word dies when some tail, reflected if it follows a one, exceeds the
    visible prefix of alpha at the first disagreeing digit.  No automaton."""
    if n < 1:
        raise DomainError("need n >= 1")
    apre = [alpha.digit(i) for i in range(n)]
    total = 0
    for bits in itertools.product((0, 1), repeat=n):
        ok = True
        for i in range(n):
            b = bits[i]
            for t in range(n - i - 1):
                e = bits[i + 1 + t] if b == 0 else 1 - bits[i + 1 + t]
                if e != apre[t]:
                    if e > apre[t]:
                        ok = False
                    break
            if not ok:
                break
        total += ok
    return total


# ---------------------------------------------------------------------------
# entropy


@dataclass(frozen=True)
class EntropyResult:
    """Certified natural-log entropy data of the alive-word language.

    lower and upper enclose the entropy; n_bound is the single-length bound
    (log W_nmax)/nmax, always an upper bound on its own."""

    states: int
    lower: Fraction
    upper: Fraction
    n_bound: Fraction
    nmax: int
    zero: bool = False
    growth: AlgBase | None = None
    charpoly: tuple = ()

    def to_json(self) -> dict:
        out = {
            "states": self.states,
            "entropy_log": [str(self.lower), str(self.upper)],
            "n_bound": str(self.n_bound),
            "nmax": self.nmax,
            "zero": self.zero,
        }
        if self.growth is not None:
            out["growth"] = self.growth.to_json()
        if self.charpoly:
            out["charpoly"] = list(self.charpoly)
        return out


def _cycles_only(aut: UqAutomaton) -> bool:
    """True when every strongly connected piece is a lone state or one simple
    cycle; path counts then grow at most polynomially."""
    graph = {s: [t for _b, t in es] for s, es in enumerate(aut.edges)}
    for comp in _sccs(graph):
        members = set(comp)
        for s in comp:
            inside = sum(1 for _b, t in aut.edges[s] if t in members)
            if inside > 1:
                return False
    return True


def _charpoly(aut: UqAutomaton) -> tuple:
    """det(xI - A) of the transition matrix A, ascending, by Berkowitz's
    division-free algorithm on A's sparse rows.

    With A_i the trailing block of A from row and column i on, split as
    [[a, R], [C, M]], the characteristic polynomial of A_i is the Toeplitz
    product of (1, -a, -RC, -RMC, ..., -RM^(k-1)C), k = n - 1 - i, with that
    of M = A_(i+1).  Each state has at most two out-edges, so M^j C is a
    walk over two target lists; a missing edge points at the extra slot n,
    which stays zero, and the vector is zero at the states before i + 1."""
    n = aut.size
    pairs = [tuple(t for _b, t in es) + (n,) * (2 - len(es)) for es in aut.edges]
    # descending coefficients of det(xI - A_(n-1))
    cp = [1, -pairs[n - 1].count(n - 1)]
    for i in range(n - 2, -1, -1):
        ra, rb = (t if t > i else n for t in pairs[i])
        v = [0] * (i + 1) + [pairs[s].count(i) for s in range(i + 1, n)] + [0]
        col = [1, -pairs[i].count(i)]
        for _ in range(n - 1 - i):
            col.append(-v[ra] - v[rb])
            v[i + 1:n] = [v[a] + v[b] for a, b in pairs[i + 1:]]
        new = [0] * len(col)
        for l, c in enumerate(cp):
            if c:
                new[l:] = [x + c * y for x, y in zip(new[l:], col)]
        cp = new
    return polys.trim(reversed(cp))


def _perron_root(cp) -> AlgBase:
    """Largest real root of the characteristic polynomial in (1, 2]."""
    best = None
    for cand in real_roots(cp, 1, 2):
        if best is None or cand.cmp(best) > 0:
            best = cand
    if best is None:
        raise DomainError("no growth root in (1, 2] despite branching cycles")
    return best


# Guard bits of `_log_ends`' first try, 8 times more per retry: speed, not bounds.
LOG_GUARD_BITS = 32


def _atanh_floor(a: int, b: int, w: int) -> tuple:
    """(s, e) with s <= 2^w atanh(a/b) < s + e, for 0 <= a/b <= 1/3.

    The powers u_j = floor(u_{j-1} a^2 / b^2), u_0 = floor(2^w a / b), fall
    short of 2^w (a/b)^(2j+1) by less than 1 / (1 - (a/b)^2) <= 9/8, so each
    term u_j // (2j + 1) by less than 3, and the terms after the last (u_n = 0)
    sum to less than 2.  Each u_j <= u_{j-1} / 9: at most w / 3 + 1 steps."""
    u, a2, b2 = (a << w) // b, a * a, b * b
    s = n = 0
    while u:
        s += u // (2 * n + 1)
        u = u * a2 // b2
        n += 1
    return s, 3 * n + 2


def _float_ends(n: int, w: int) -> tuple:
    """The largest 120-bit float at or below n 2^-w and the least one at or
    above it, each as (m, e) for m 2^e with |m| <= 2^120."""
    s = max(n.bit_length() - 120, 0)
    return (n >> s, s - w), (-(-n >> s), s - w)


def _log_ends(m: int, s: int) -> tuple:
    """`_float_ends` of log x, for x = m 2^s with m > 0.

    With B the bit length of m, y = m / 2^(B-1) in [1, 2) and k = s + B - 1,
    log x = 2 atanh((y - 1)/(y + 1)) + 2k atanh(1/3), both series enclosed by
    `_atanh_floor` in units of 2^-w.  As |log x| >= |x - 1| / max(x, 1) >= 2^-e,
    w = 120 + e + guard bits puts the enclosure well inside one unit in the
    last place.  When its ends round apart, it retries with 8 times the guard
    bits, at most three times, then rounds the enclosure outward: still
    bounds, at most two units apart."""
    p, q = m << max(s, 0), 1 << max(-s, 0)
    if p == q:
        return (0, 0), (0, 0)
    b, k = 1 << m.bit_length() - 1, s + m.bit_length() - 1
    e = max(p, q).bit_length() - abs(p - q).bit_length() + 1
    for i in range(4):
        w = 120 + e + k.bit_length() + (LOG_GUARD_BITS << 3 * i)
        s2, e2 = _atanh_floor(1, 3, w)
        sy, ey = _atanh_floor(m - b, m + b, w)
        lo = 2 * (sy + k * (s2 + (e2 if k < 0 else 0)))
        ends = _float_ends(lo, w), _float_ends(lo + 2 * (ey + abs(k) * e2), w)
        if ends[0] == ends[1]:
            break
    return ends[0][0], ends[1][1]


def _log_bounds(x: Fraction) -> tuple:
    """Certified rational bounds around log x for a positive rational x: x
    rounded outward to 120-bit floats, and the log of each end rounded
    outward to 120 bits.  Printed dimension bounds depend on these ends."""
    if x <= 0:
        raise DomainError("log needs a positive argument")
    w = 121 + x.denominator.bit_length() - x.numerator.bit_length()
    n, r = divmod(x.numerator << max(w, 0), x.denominator << max(-w, 0))
    lo = _log_ends(*_float_ends(n, w)[0])[0]
    hi = _log_ends(*_float_ends(n + (r > 0), w)[1])[1]
    return tuple(Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e) for m, e in (lo, hi))


def _log_bracket(q: AlgBase) -> tuple:
    """Certified rational bounds around log q, from q's bracket refined to
    width 10^-25."""
    qlo, qhi = q.bracket(Fraction(1, 10 ** 25))
    log_lo = _log_bounds(qlo)[0]
    if log_lo <= 0:
        raise DomainError("base bracket must stay above 1")
    return log_lo, _log_bounds(qhi)[1]


def _matvec(edges, vec) -> list:
    out = [0] * len(edges)
    for s, es in enumerate(edges):
        x = vec[s]
        if x:
            for _b, t in es:
                out[t] += x
    return out


def entropy(target, nmax: int = 24) -> EntropyResult:
    """Certified entropy of the alive-word language of a base or an alpha.

    Simple-cycle structure certifies zero exactly.  Automata of at most
    EXACT_CAP states get the exact Perron root from the characteristic
    polynomial; larger ones fall back on word counts: (log W_n)/n from above
    at n = 4*nmax, a diagonal return count of the transition matrix from
    below.  n_bound always
    reports the word-count bound at nmax itself.
    """
    if nmax < 1:
        raise DomainError("need nmax >= 1")
    alpha = target if isinstance(target, EPSeq) else alpha_epseq(target)
    aut = uq_automaton(alpha)
    counts = path_counts(aut, 4 * nmax)
    n_bound = _log_bounds(Fraction(counts[nmax - 1]))[1] / nmax
    if _cycles_only(aut):
        return EntropyResult(aut.size, Fraction(0), Fraction(0), n_bound,
                             nmax, zero=True)
    if aut.size <= EXACT_CAP:
        cp = _charpoly(aut)
        lam = _perron_root(cp)
        lo, hi = lam.bracket(Fraction(1, 10 ** 25))
        lo = max(lo, Fraction(1))
        return EntropyResult(aut.size, max(_log_bounds(lo)[0], Fraction(0)),
                             _log_bounds(hi)[1], n_bound, nmax,
                             growth=lam, charpoly=cp)
    upper = _log_bounds(Fraction(counts[4 * nmax - 1]))[1] / (4 * nmax)
    # a state reachable with many paths is a good bet for the dominant piece
    fwd = [0] * aut.size
    fwd[0] = 1
    for _ in range(8):
        fwd = _matvec(aut.edges, fwd)
    s_star = max(range(aut.size), key=lambda s: (fwd[s], -s))
    basis = [0] * aut.size
    basis[s_star] = 1
    for _ in range(4 * nmax):
        basis = _matvec(aut.edges, basis)
    lower = Fraction(0)
    if basis[s_star] > 1:
        lower = max(_log_bounds(Fraction(basis[s_star]))[0] / (4 * nmax),
                    Fraction(0))
    return EntropyResult(aut.size, lower, upper, n_bound, nmax)


# ---------------------------------------------------------------------------
# over-approximant pool and dimension


@functools.cache
def overapprox_pool() -> tuple:
    """Bases with eventually periodic alpha that sandwich entropy targets:
    the ladder q_1..q_6, the bases whose alpha repeats one of the first 48
    prefixes of the generator limit word (on both sides of q_KL), and 2.
    Increasing, without duplicates; built once per process."""
    pool = [e.base for e in qn_ladder(GEN0, 6)]
    tau = thue_morse(4 * 48)
    for m in range(1, 49):
        s = EPSeq("", tau[:m])
        if parry_check(s):
            pool.append(base_from_alpha(s))
    pool.append(AlgBase.from_rational(2))
    pool.sort(key=functools.cmp_to_key(lambda a, b: a.cmp(b)))
    out = [pool[0]]
    for b in pool[1:]:
        if b.cmp(out[-1]) != 0:
            out.append(b)
    return tuple(out)


def _sandwich(q: AlgBase, delta: Fraction, nmax: int) -> tuple:
    """Entropy per log of contraction near q, between pool neighbours (the
    language only grows with the base): (h_lo / log(q_hi - delta),
    h_hi / log(q_lo - delta)), from the last pool base at most q and the
    first at least q_hi + delta, or the last, 2, which is at least q + delta
    as both callers require; q's bracket at width 10^-25."""
    qlo, qhi = q.bracket(Fraction(1, 10 ** 25))
    below = None
    for i, r in enumerate(overapprox_pool()):
        if r.cmp(q) <= 0:
            below = i
        if r.cmp_rational(qhi + delta) >= 0:
            break
    log_lo = _log_bounds(qlo - delta)[0]
    if log_lo <= 0:
        raise DomainError("q - delta must stay above 1")
    lower = Fraction(0)
    if below is not None:
        lower = max(_pool_entropy(below, nmax)[0] / _log_bounds(qhi - delta)[1], Fraction(0))
    return lower, _pool_entropy(i, nmax)[1] / log_lo


@functools.cache
def _pool_entropy(i: int, nmax: int) -> tuple:
    """The entropy bounds (lower, upper) of the i-th pool base at nmax,
    once per process: both come from printed cells."""
    ent = entropy(overapprox_pool()[i], nmax)
    return ent.lower, ent.upper


# A rational just below q_6, so below the Komornik-Loreti constant q_KL:
# dim_H U_q = 0 for every q <= q_KL (Glendinning-Sidorov 2001).
BELOW_KL = Fraction(1787231650182965, 10**15)


def dim_U(q: AlgBase) -> tuple:
    """Certified rational enclosure of the Hausdorff dimension of the set of
    points with a unique expansion in base q: zero below BELOW_KL, else
    from the entropy of q's language, or the pool sandwich when q's
    quasi-greedy expansion of 1 is not found eventually periodic."""
    if q.cmp_rational(BELOW_KL) < 0:
        return Fraction(0), Fraction(0)
    try:
        ent = entropy(q)
    except UnsupportedBaseError:
        lower, upper = _sandwich(q, Fraction(0), 24)
        return lower, min(upper, Fraction(1))
    return _dim_of(q, ent)


def _dim_of(q: AlgBase, ent: EntropyResult) -> tuple:
    """The dimension enclosure of `dim_U` from the entropy ent of q's
    language: zero for zero entropy, one when the growth rate is q, else
    the entropy over a bracket of log q."""
    if ent.zero:
        return Fraction(0), Fraction(0)
    if ent.growth is not None and ent.growth.cmp(q) == 0:
        return Fraction(1), Fraction(1)
    log_lo, log_hi = _log_bracket(q)
    lower = max(ent.lower / log_hi, Fraction(0))
    upper = min(ent.upper / log_lo, Fraction(1))
    return lower, upper


# ---------------------------------------------------------------------------
# local bound for the two-expansion spectrum


def b2_local_bound(q: AlgBase, delta, nmax: int = 24) -> tuple:
    """Certified enclosure of the dimension bound for two-expansion bases
    within distance delta of q, for 0 < delta < (2 - q)/3 and q - delta > 1:
    twice `_sandwich`, as each such base is pinned down by a pair of tails
    alive in every base up to q + delta.  The upper end is the bound."""
    delta = Fraction(delta)
    if delta <= 0:
        raise DomainError("delta must be positive")
    if q.cmp_rational(2 - 3 * delta) >= 0:
        raise DomainError("delta must stay below (2 - q) / 3")
    if q.cmp_rational(1 + delta) <= 0:
        raise DomainError("q - delta must stay above 1")
    lo, hi = _sandwich(q, delta, nmax)
    return 2 * lo, 2 * hi
