"""Sequence membership tests, four-way base classification, and exact
expansion counting."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twobases import bases, classify, conjugates
from twobases.bases import AlgBase, base_from_alpha, parry_check
from twobases.classify import (
    BaseTag, CountResult, classify_base, count_expansions, in_A_prime,
    in_Vq_seq, is_univoque_seq, _sccs,
)
from twobases.enum_b2 import enum_reprs, qn_ladder, repr_to_seq
from twobases.errors import DomainError, UnsupportedBaseError
from twobases.words import ComponentSpec, EPSeq, eval_seq, parse_epseq, reflect

GEN0 = ComponentSpec("0")
PHI = AlgBase.from_poly((-1, -1, 1), Fraction(3, 2), Fraction(17, 10))
Q_S = AlgBase.from_poly((-1, -1, -2, 0, 1), Fraction(17, 10), Fraction(9, 5))
Q_F = AlgBase.from_poly((-1, 1, -2, 1), Fraction(17, 10), Fraction(9, 5))
PHI3 = base_from_alpha(EPSeq("", "110"))
FAT4 = base_from_alpha(EPSeq("", "1110"))
TWO = AlgBase.from_rational(2)
# irrational bases with minimal polynomials that are not monic: the roots
# of 2x^2 - 2x - 1 (~1.366) and of 3x^3 - 3x^2 - 2 (~1.36)
NON_MONIC = (AlgBase.from_poly((-1, -2, 2), Fraction(13, 10), Fraction(7, 5)),
             AlgBase.from_poly((-2, 0, -3, 3), Fraction(13, 10), Fraction(7, 5)))


def test_membership_examples():
    assert in_A_prime(parse_epseq("0*"), AlgBase.from_rational(Fraction(3, 2)))
    assert in_A_prime(parse_epseq("0(10)"), Q_S)
    assert in_A_prime(parse_epseq("00(10)"), Q_S)
    assert not in_A_prime(parse_epseq("(10)"), Q_S)   # leading digit 1
    assert is_univoque_seq(parse_epseq("(10)"), Q_S)
    # at the golden ratio nothing with mixed digits survives
    assert not is_univoque_seq(parse_epseq("0(10)"), PHI)
    assert is_univoque_seq(parse_epseq("0*"), PHI)
    assert is_univoque_seq(parse_epseq("(1)"), PHI)


def test_membership_refuses_text():
    for member in (is_univoque_seq, in_Vq_seq, in_A_prime):
        with pytest.raises(DomainError, match="EPSeq"):
            member("0(01)", Q_S)


def test_weak_vs_strict_membership():
    # alpha itself touches the bound: weak holds, strict fails
    a = parse_epseq("(1100)")
    assert in_Vq_seq(a, Q_F) and not is_univoque_seq(a, Q_F)
    rng = random.Random(5001)
    for _ in range(200):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 4)))
        per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        s = EPSeq(pre, per)
        q = rng.choice((PHI, Q_F, PHI3, FAT4, TWO))
        if is_univoque_seq(s, q):
            assert in_Vq_seq(s, q)


def test_reflection_closure():
    rng = random.Random(5002)
    bases = (PHI, Q_F, PHI3, FAT4, TWO, Q_S)
    hits = 0
    for _ in range(500):
        pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 6)))
        s = EPSeq(pre, per)
        q = rng.choice(bases)
        lhs = is_univoque_seq(s, q)
        assert lhs == is_univoque_seq(reflect(s), q)
        hits += lhs
    assert hits > 0   # the suite exercised both outcomes


def test_membership_monotone_in_base():
    # unique-expansion sequences persist in every larger base
    pool = [repr_to_seq(v) for v in enum_reprs(1, 4)]
    pool += [parse_epseq("0" * j + "(10)") for j in range(1, 6)]
    small = [s for s in pool if in_A_prime(s, Q_S)]
    assert len(small) >= 4
    for s in small:
        for q in (Q_F, PHI3, FAT4, TWO):
            assert is_univoque_seq(s, q)


def test_classify_frozen_tags():
    assert classify_base(TWO).tag is BaseTag.IN_U
    assert classify_base(PHI).tag is BaseTag.V_MINUS_UBAR
    assert classify_base(Q_F).tag is BaseTag.V_MINUS_UBAR
    assert classify_base(PHI3).tag is BaseTag.UBAR_MINUS_U
    assert classify_base(FAT4).tag is BaseTag.UBAR_MINUS_U
    low = base_from_alpha(EPSeq("", "100"))
    assert classify_base(low).tag is BaseTag.NOT_V
    assert BaseTag.UBAR_MINUS_U.value == "Ubar\\U"


def test_classify_evidence_flags_monotone():
    # a strict condition failing no later than its weak partner, for every
    # supported base in the battery
    battery = [PHI, Q_F, PHI3, FAT4,
               base_from_alpha(EPSeq("", "100")),
               base_from_alpha(EPSeq("", "10")),
               base_from_alpha(EPSeq("", "111000"))]
    battery += [e.base for e in qn_ladder(GEN0, 4)]
    for q in battery:
        fails = classify_base(q).evidence["first_fail"]
        for kind in ("upper", "lower"):
            s, w = fails[f"strict_{kind}"], fails[f"weak_{kind}"]
            if w is not None:
                assert s is not None and s <= w


def test_classify_ladder_bases():
    for entry in qn_ladder(GEN0, 6):
        cls = classify_base(entry.base)
        assert cls.tag is BaseTag.V_MINUS_UBAR
        assert cls.tag is not BaseTag.NOT_V


def test_classify_unsupported():
    with pytest.raises(UnsupportedBaseError):
        classify_base(Q_S)
    with pytest.raises(UnsupportedBaseError):
        classify_base(AlgBase.from_rational(Fraction(3, 2)), max_steps=300)


def _brute_count(x, q, cap, depth):
    """Digit-tree count of the expansions of x in the rational base q: the
    length-`depth` digit prefixes whose remainder stays in [0, 1/(q - 1)].
    Each extends to an expansion, and distinct ones to distinct expansions.
    Returns cap + 1 as soon as there are more than cap."""
    lim = 1 / (q - 1)
    alive = [x] if 0 <= x <= lim else []
    for _ in range(depth):
        alive = [t for r in alive for t in (q * r, q * r - 1) if 0 <= t <= lim]
        if len(alive) > cap:
            return cap + 1
    return len(alive)


@st.composite
def finite_tree_point(draw):
    """(x, q): a rational base q in (1, 2] and a point x whose expansions
    all end in 0^inf or 1^inf, so its remainder graph is small.

    x is built backward from r = 0 or 1/(q - 1), whose only expansions are
    0^inf and 1^inf; each step r -> (r + d)/q puts the digit d in front.
    The new state's other child is r + 2d - 1, and d is drawn only where
    that child is outside [0, 1/(q - 1)] or is 0 or 1/(q - 1) itself.  So
    the remainder graph of x is its path back to the start and the loops at
    0 and 1/(q - 1): at most 10 states."""
    q = draw(st.fractions(1, 2, max_denominator=7).filter(lambda q: q > 1))
    lim = 1 / (q - 1)
    tail = draw(st.sampled_from("01"))
    r = lim if tail == "1" else Fraction(0)
    word = ""
    for _ in range(draw(st.integers(0, 8))):
        ok = [d for d in (0, 1)
              if r + 2 * d - 1 in (0, lim) or not 0 <= r + 2 * d - 1 <= lim]
        if not ok:
            break
        d = draw(st.sampled_from(ok))
        r = (r + d) / q
        word = str(d) + word
    return (EPSeq(word, tail) if draw(st.booleans()) else r), q


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(finite_tree_point(), st.integers(1, 4))
@example((EPSeq("1", "0"), Fraction(2)), 3)            # 1/2: two expansions
@example((EPSeq("", "01"), Fraction(2)), 3)            # 1/3: one
@example((EPSeq("1", "0"), Fraction(3, 2)), 3)         # below the golden ratio
@example((EPSeq("11", "0"), Fraction(7, 4)), 1)
@example((Fraction(5, 2), Fraction(7, 4)), 1)        # above 1/(q - 1): none
def test_count_expansions_matches_digit_tree(case, cap):
    x, q = case
    # with at most S remainder states and no branching cycle, every branch
    # happens within S digits; a branching cycle of length <= S yields a new
    # expansion every S digits after the first S.  So (cap + 1) S digits of
    # the brute tree settle both kinds of answer.
    states = 24
    try:
        got = count_expansions(x, AlgBase.from_rational(q), cap=cap, max_states=states)
    except UnsupportedBaseError:
        return  # remainder graph too large: nothing to compare
    value = eval_seq(x, q) if isinstance(x, EPSeq) else x
    want = _brute_count(value, q, cap, (cap + 1) * (states + 1))
    assert min(got.value, cap + 1) == want
    assert got.exact or got.value == cap + 1


def test_count_expansions_frozen():
    assert count_expansions("100(10)", Q_S, cap=3) == CountResult(2)
    assert count_expansions(Fraction(1, 2), TWO) == CountResult(2)
    assert count_expansions(Fraction(1, 3), TWO) == CountResult(1)
    assert count_expansions(Fraction(1), TWO) == CountResult(1)   # only 1^inf
    assert count_expansions(Fraction(1), PHI, cap=5) == CountResult(6, exact=False)
    assert count_expansions(Fraction(3), TWO) == CountResult(0)
    assert count_expansions(Fraction(-1, 7), TWO) == CountResult(0)


def test_count_expansions_sequence_input():
    # string and parsed inputs agree; the counted point is the value
    s = parse_epseq("0(10)")
    assert count_expansions(s, Q_S, cap=3) == count_expansions("0(10)", Q_S, cap=3)
    # a uniquely expandable point of q_s
    assert count_expansions("0(10)", Q_S, cap=3) == CountResult(1)


def test_count_respects_cap():
    r = count_expansions(Fraction(1), PHI, cap=2)
    assert r == CountResult(3, exact=False) and not r.exact


def test_scc_cyclic_states_match_reachability():
    rng = random.Random(4011)
    for _ in range(200):
        n = rng.randint(1, 8)
        graph = {v: tuple(w for w in range(n) if rng.random() < 0.2)
                 for v in range(n)}
        comps = _sccs(graph)
        assert sorted(v for c in comps for v in c) == list(range(n))
        cyclic = {v for c in comps if len(c) > 1 or c[0] in graph[c[0]]
                  for v in c}

        def reaches_itself(v):
            seen, todo = set(), list(graph[v])
            while todo:
                w = todo.pop()
                if w == v:
                    return True
                if w not in seen:
                    seen.add(w)
                    todo.extend(graph[w])
            return False

        assert cyclic == {v for v in graph if reaches_itself(v)}


# ---------------------------------------------------------------------------
# the remainder graph against the exact step


def exact_remainder_graph(val, lim, max_states):
    """Oracle: the closure of the remainder graph with q r - 1 made by the
    general field multiply, and it and lim - (q r) signed exactly, no
    enclosure carried.  Its nodes are FieldElems."""
    fld = val.field
    q = fld.base_elem()
    children, queue = {}, [val]
    while queue:
        r = queue.pop()
        if r in children:
            continue
        t1 = r * q - 1
        t = t1 + 1
        outs = []
        if (lim - t).sign() >= 0:
            outs.append(t)
        if t1.sign() >= 0:
            outs.append(t1)
        children[r] = tuple(outs)
        if len(children) > max_states:
            raise UnsupportedBaseError("remainder graph exceeded the state budget")
        queue.extend(c for c in outs if c not in children)
    return children


def _or_refusal(fn, *args):
    try:
        return fn(*args)
    except UnsupportedBaseError:
        return "refused"


def vector_graph(fld, graph):
    """A remainder graph of `classify._remainder_graph`, (children, w),
    with each state id mapped to the FieldElem num(q) / den of its vector,
    materialised by the walk w from the last state back to the first.
    Distinct ids must stay distinct values: the walk keeps one state per
    value."""
    if graph == "refused":
        return graph
    children, w = graph
    elem = {i: bases.FieldElem(fld, *w.exact(i)) for i in sorted(children, reverse=True)}
    assert len(set(elem.values())) == len(elem)
    return {elem[i]: tuple(elem[c] for c in cs) for i, cs in children.items()}


def exact_id_graph(val, lim, max_states):
    """The exact oracle's graph in the form `_remainder_graph` returns,
    with its states numbered from val = 0 on and no walk."""
    graph = exact_remainder_graph(val, lim, max_states)
    ids = {r: i for i, r in enumerate([val] + [r for r in graph if r != val])}
    return {ids[r]: tuple(ids[c] for c in cs) for r, cs in graph.items()}, None


@st.composite
def count_case(draw):
    """(x, q): a point given by a word, and a base built from a quasi-greedy
    word or one of q_s, q_f and the golden ratio."""
    x = EPSeq(draw(st.text("01", max_size=6)), draw(st.text("01", min_size=1, max_size=5)))
    pre = draw(st.text("01", max_size=4))
    s = EPSeq("1" + pre, draw(st.text("01", min_size=1, max_size=6).filter(lambda w: "1" in w)))
    assume(parry_check(s))
    return x, draw(st.sampled_from((base_from_alpha(s), Q_S, Q_F, PHI) + NON_MONIC))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(count_case(), st.sampled_from((8, 24, 128)))
@example((EPSeq("1", "100"), base_from_alpha(EPSeq("", "1100010"))), 8)
@example((EPSeq("1000", "01"), Q_S), 128)
def test_remainder_graph_matches_the_exact_step(case, bits):
    x, q = case
    fld = q.field()
    val = fld.zero() + eval_seq(x, q)
    lim = fld.series_den_inv(0, 1)
    assume(val.sign() >= 0 and (lim - val).sign() >= 0)
    want = _or_refusal(exact_remainder_graph, val, lim, 300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bases, "WALK_BITS", bits)
        assert vector_graph(fld, _or_refusal(classify._remainder_graph, val, lim, 300)) == want
        got = _or_refusal(count_expansions, x, q, 3, 300)
        mp.setattr(classify, "_remainder_graph", exact_id_graph)
        assert _or_refusal(count_expansions, x, q, 3, 300) == got


@pytest.mark.parametrize("bits", [8, 24, 128])
def test_remainder_graph_near_the_upper_end(bits, monkeypatch):
    """Remainders r with q r just above and just below lim = 1 / (q - 1),
    some within a few units of the enclosures' last bit: the digit 0 keeps
    q r in [0, lim] only for the second, as the exact step says."""
    monkeypatch.setattr(bases, "WALK_BITS", bits)
    for q in (Q_S, Q_F, PHI):
        fld = q.field()
        x, lim = fld.base_elem(), fld.series_den_inv(0, 1)
        gaps = [x ** -k for k in (4, 12, 20, 40, 80, 160)]
        gaps += [Fraction(j, 2**bits) for j in range(1, 5)]
        for g in gaps:
            for gap in (g, -g):
                val = (lim + gap) / x
                want = _or_refusal(exact_remainder_graph, val, lim, 40)
                got = _or_refusal(classify._remainder_graph, val, lim, 40)
                assert vector_graph(fld, got) == want


def _graph_or_refusal(val, lim, max_states):
    """(children, w) of `classify._remainder_graph`, or the refusal's
    message."""
    try:
        return classify._remainder_graph(val, lim, max_states)
    except UnsupportedBaseError as e:
        return str(e)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(count_case())
@example((EPSeq("1", "100"), base_from_alpha(EPSeq("", "1100010"))))
@example((EPSeq("110", "100"), base_from_alpha(EPSeq("", "100000"))))
@example((EPSeq("100", "10"), Q_S))
def test_escape_refuses_only_infinite_graphs(case):
    """With the escape test on, with it off (the budget route), and by the
    exact step (`exact_remainder_graph`), a remainder graph is refused or
    counted alike, at a budget of 600 states; no state of a finite graph
    escapes."""
    x, q = case
    fld = q.field()
    val = fld.zero() + eval_seq(x, q)
    lim = fld.series_den_inv(0, 1)
    assume(val.sign() >= 0 and (lim - val).sign() >= 0)
    got = _graph_or_refusal(val, lim, 600)
    want = _or_refusal(exact_remainder_graph, val, lim, 600)
    if isinstance(got, str):
        assert want == "refused"
    else:
        children, w = got
        assert all(conjugates.escapes(w, i) is None for i in children)
        assert vector_graph(fld, got) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjugates, "escapes", lambda w, i: None)
        budget = _graph_or_refusal(val, lim, 600)
        assert isinstance(budget, str) == isinstance(got, str)
        off = _or_refusal(count_expansions, x, q, 3, 600)
    assert _or_refusal(count_expansions, x, q, 3, 600) == off
