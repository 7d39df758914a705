"""Membership tests against the quasi-greedy expansion, and the four-way
classification of bases.

The sequence-level tests compare shifted tails with alpha(q) through the
certified streaming comparator, so they work even when alpha(q) is not
eventually periodic (e.g. at the smallest two-expansion base).  The base
classifier itself inspects shifts of alpha(q) and therefore does require an
eventually periodic alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import bases
from .bases import AlgBase, alpha_epseq, cmp_seq_alpha
from .errors import DomainError, UnsupportedBaseError
from .words import EPSeq, _check_seq, eval_seq, lex_cmp, parse_epseq, reflect, shift


class BaseTag(Enum):
    IN_U = "U"
    UBAR_MINUS_U = "Ubar\\U"
    V_MINUS_UBAR = "V\\Ubar"
    NOT_V = "not-V"


@dataclass(frozen=True)
class BaseClass:
    tag: BaseTag
    evidence: dict
    alpha: EPSeq | None = None

    def to_json(self) -> dict:
        out = {"class": self.tag.value, "evidence": self.evidence}
        if self.alpha is not None:
            out["alpha"] = str(self.alpha)
        return out


def is_univoque_seq(s: EPSeq, q: AlgBase) -> bool:
    """Does s encode a uniquely-expandable point of base q?

    Tail after each 0 must stay strictly below alpha(q); reflected tail
    after each 1 likewise.  One period window of shifts suffices.
    """
    return _tails_below_alpha(s, q, strict=True)


def in_Vq_seq(s: EPSeq, q: AlgBase) -> bool:
    """Weak variant: tails may touch alpha(q) but not exceed it."""
    return _tails_below_alpha(s, q, strict=False)


def _tails_below_alpha(s: EPSeq, q: AlgBase, strict: bool) -> bool:
    """Every tail after a 0, and every reflected tail after a 1, stays below
    alpha(q): strictly, or with equality allowed.  Stops at the first
    failing shift."""
    _check_seq(s)
    for i in range(len(s.pre) + len(s.per)):
        t = shift(s, i + 1)
        if s.digit(i) == 1:
            t = reflect(t)
        c = cmp_seq_alpha(t, q)
        if c > 0 or (strict and c == 0):
            return False
    return True


def in_A_prime(s: EPSeq, q: AlgBase) -> bool:
    """Member of the zero-leading half of the unique-expansion sequences."""
    _check_seq(s)
    return s.digit(0) == 0 and is_univoque_seq(s, q)


def classify_base(q: AlgBase, max_steps: int = 4096) -> BaseClass:
    """Placement of q among the univoque set, its closure, and the
    uniquely-doubly-expandable set, per the nested shift conditions."""
    if q.exact_rational == 2:
        return BaseClass(BaseTag.IN_U, {"special": "q=2"}, EPSeq("", "1"))
    alpha = alpha_epseq(q, max_steps)
    ralpha = reflect(alpha)
    window = len(alpha.pre) + len(alpha.per)
    tails = (shift(alpha, n) for n in range(1, window + 1))
    fails = _first_fails((lex_cmp(t, alpha), lex_cmp(ralpha, t)) for t in tails)
    evidence = {"window": window, "first_fail": fails}
    return BaseClass(_tag_from_fails(fails), evidence, alpha)


def _first_fails(orders) -> dict:
    """The first shift n >= 1 at which each of the four shift conditions
    on alpha fails (None: it never does), from the pairs (up, lo) for
    n = 1, 2, ...: up orders the n-th tail of alpha against alpha, and lo
    the reflected alpha against that tail, as -1, 0 or 1."""
    fails = dict.fromkeys(("strict_upper", "weak_upper", "strict_lower", "weak_lower"))
    for n, (up, lo) in enumerate(orders, 1):
        for key, hit in (("strict_upper", up >= 0), ("weak_upper", up > 0),
                         ("strict_lower", lo >= 0), ("weak_lower", lo > 0)):
            if fails[key] is None and hit:
                fails[key] = n
    return fails


def _tag_from_fails(fails: dict) -> BaseTag:
    """Placement from the first failing shift of each of the four shift
    conditions on alpha (None: the condition never fails)."""
    if fails["strict_upper"] is None and fails["strict_lower"] is None:
        return BaseTag.IN_U
    if fails["weak_upper"] is None and fails["strict_lower"] is None:
        return BaseTag.UBAR_MINUS_U
    if fails["weak_upper"] is None and fails["weak_lower"] is None:
        return BaseTag.V_MINUS_UBAR
    return BaseTag.NOT_V


# ---------------------------------------------------------------------------
# expansion counting for a single point


@dataclass(frozen=True)
class CountResult:
    """Number of expansions of a point: pinned down, or bounded from below."""

    value: int
    exact: bool = True

    def __repr__(self):
        return f"{'Exact' if self.exact else 'AtLeast'}({self.value})"


def count_expansions(x, q: AlgBase, cap: int = 8, max_states: int = 4096) -> CountResult:
    """How many digit sequences over {0, 1} evaluate to x in base q.

    x may be an eventually periodic sequence (or its string form), whose value
    is taken at q, or a rational.  Remainders are tracked exactly in Q(q), so
    the branching graph is finite, or UnsupportedBaseError: proved infinite
    by an escaping state (`_remainder_graph`), or past the state budget.  A
    reachable cycle that touches a branching state certifies infinitely many
    expansions, reported as the lower bound cap + 1.
    """
    if cap < 1:
        raise DomainError("need cap >= 1")
    if isinstance(x, str):
        x = parse_epseq(x)
    fld = q.field()
    # a rational base gives a Fraction value: move it into Q(q) too
    val = fld.zero() + (eval_seq(x, q) if isinstance(x, EPSeq) else Fraction(x))
    # lim = 1 / (q - 1), the value of 1^inf
    lim = fld.series_den_inv(0, 1)
    if val.sign() < 0 or (lim - val).sign() < 0:
        return CountResult(0)
    children, _ = _remainder_graph(val, lim, max_states)
    cyclic = {s for comp in _sccs(children)
              if len(comp) > 1 or comp[0] in children[comp[0]]
              for s in comp}
    if any(len(children[s]) > 1 for s in cyclic):
        return CountResult(cap + 1, exact=False)
    # remaining graph: cycles are exit-free, everything else is acyclic
    counts = {s: 1 for s in cyclic}
    seen = set(cyclic)
    stack = [(0, False)]
    while stack:  # post-order over the acyclic part, from the start state 0
        s, expanded = stack.pop()
        if s in seen:
            continue
        if expanded:
            seen.add(s)
            counts[s] = sum(counts[c] for c in children[s])
        else:
            stack.append((s, True))
            stack.extend((c, False) for c in children[s] if c not in seen)
    return CountResult(counts[0])


def _remainder_graph(val, lim, max_states: int) -> tuple:
    """(children, w): the remainders reachable from val in [0, lim],
    lim = 1 / (q - 1), as the states of one walk w (`bases._Walk`, val
    its state 0), each stepped one mapped to its children: q r - d for the
    digits d = 0 then 1, where that lies in [0, lim].  UnsupportedBaseError
    past max_states, or sooner when the newest state at 64, 128, 256, ...
    states escapes (`conjugates.escapes`): no path from it meets a state
    twice, and every r in [0, lim] has a child, so the graph is infinite.

    val and lim are FieldElems.  A child equal to a state met before is
    that state (`_Walk.add`).  Each step is `bases._orbit`'s.  Whether
    q r <= lim is read off the enclosures of q r and of lim; only where
    they overlap is lim - q r signed exactly, as the integer vector
    Ln D - t Ld for lim = Ln(q) / Ld and q r = t(q) / D."""
    fld = val.field
    w = bases._Walk(fld)
    P, qlo, qhi, one, wide = w.qenc
    lnum, lden = lim.num, lim.den
    lim_lo, lim_hi = fld.enclose(lnum, lden)
    w.add(*fld.enclose(val.num, val.den), 0, 0, (val.num, val.den), 0)
    states, add, children, stack, check = w.states, w.add, {}, [0], 64
    while stack:
        i = stack.pop()
        lo, hi, _, _, _ = states[i]
        lo = (lo * (qlo if lo >= 0 else qhi) >> P) - one
        hi = -(-hi * (qhi if hi >= 0 else qlo) >> P) - one
        # the exact q r - 1, once a decision needs it
        t = None
        if hi - lo >= wide:
            t = w.child(i, 1)
            lo, hi = fld.enclose(*t)
        ok0 = hi + one <= lim_lo
        if not ok0 and lo + one <= lim_hi:
            t = t or w.child(i, 1)
            num, den = bases._plus_one(t)
            ok0 = fld.sign([a * den - b * lden for a, b in zip(lnum, num)]) >= 0
        ok1 = lo >= 0
        if not ok1 and hi >= 0:
            t = t or w.child(i, 1)
            ok1 = fld.sign(t[0]) >= 0
        n = len(states)
        kids = ()
        if ok0:
            k = add(lo + one, hi + one, i, 0, t and bases._plus_one(t), 0)
            kids = (k,)
            if k == n:
                stack.append(k)
        if ok1:
            k = add(lo, hi, i, 1, t, 0)
            kids += (k,)
            if k >= n:
                stack.append(k)
        children[i] = kids
        if len(states) >= check:
            check *= 2
            from .conjugates import escapes  # compiled only by a walk that gets here
            why = escapes(w, len(states) - 1)
            if why:
                raise UnsupportedBaseError(
                    f"remainder graph is infinite: state {len(states) - 1} escapes: {why}, "
                    "so no path from it meets a state twice, and every state has a child")
        if len(children) > max_states:
            raise UnsupportedBaseError("remainder graph exceeded the state budget")
    return children, w


def _sccs(graph) -> list:
    """Strongly connected components of the digraph mapping each node to its
    successors, in Tarjan's order (iterative, so deep graphs are fine)."""
    index, low, on, stack, comps = {}, {}, set(), [], []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(graph[w])))
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps
