"""Ladder bases, block-profile enumeration, interval sweeps for
two-expansion bases, and derived-order certification."""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twobases import enum_b2, words
from twobases.b2core import (
    MonotoneCase, certify_b2, f_eval, f_minpoly, monotone_case, solve_qcd,
    B2Witness, _block, _bridge,
)
from twobases.bases import AlgBase, base_from_alpha, beta_digits, real_roots
from twobases.classify import CountResult, count_expansions, is_univoque_seq
from twobases.classify import in_A_prime
from twobases.enum_b2 import (
    LadderEntry, ReprVector, derived_order_bound, enum_B2, enum_reprs,
    min_derived, pair_weight, prop62_witness, qn_ladder, repr_to_seq,
    _Interval, _endpoint_certificate, _interval, _pair_roots, _tail_pairs,
)
from twobases.errors import DomainError, NotFoundWithinBoundsError
from twobases.words import (
    ComponentSpec, EPSeq, format_epseq, lex_cmp, parse_epseq, prepend, word_dec,
)

GEN0 = ComponentSpec("0")
INF = math.inf

LADDER_DECIMALS = ["1.6180339887", "1.7548776662", "1.7845989334",
                   "1.7872069628", "1.7872316479"]


def test_ladder_frozen():
    lad = qn_ladder(GEN0, 5)
    assert [e.n for e in lad] == [1, 2, 3, 4, 5]
    assert [e.base.decimal(10) for e in lad] == LADDER_DECIMALS
    assert lad[0].base.minpoly() == (-1, -1, 1)
    assert lad[1].base.minpoly() == (-1, 1, -2, 1)
    for a, b in zip(lad, lad[1:]):
        assert a.base.cmp(b.base) < 0


def test_ladder_expansions_consistent():
    for e in qn_ladder(GEN0, 5):
        w = GEN0.omega(e.n)
        assert e.beta_word == w
        assert e.alpha == EPSeq("", word_dec(w))
        assert beta_digits(e.base, len(w) + 4) == (w, True)
    with pytest.raises(DomainError):
        qn_ladder(GEN0, 0)


def test_ladder_calls_share_one_base_per_n():
    """Every call hands out the same q_n, built once per process for each
    generator and n, and it prints what a base built afresh prints however
    far it has been refined."""
    first = qn_ladder(GEN0, 3)[2].base
    assert all(a.base is b.base for a, b in zip(qn_ladder(GEN0, 5), qn_ladder(GEN0, 3)))
    assert qn_ladder(ComponentSpec("10"), 3)[2].base is not first
    fresh = base_from_alpha(first.alpha_hint).to_json(20)
    first.refine(Fraction(1, 10 ** 40))
    again = qn_ladder(GEN0, 3)[2].base
    assert again is first and again.to_json(20) == fresh


def test_min_derived_does_not_depend_on_history(capsys):
    """In one process, the least bases of orders 2-4 print the same before
    and after ladder, witness and dim-bound requests have used the ladder
    bases, their minimal polynomials and the pool."""
    from twobases.cli import run

    def answers():
        return [min_derived(j, 4, 5).to_json() for j in (2, 3, 4)]

    before = answers()
    for argv in (["ladder", "--gen", "0", "--N", "6"],
                 ["witness", "--gen", "0", "--prop62", "4"],
                 ["dim-bound", "--delta", "1/1000000", "alpha:(11010011001011010010)"]):
        assert run(["--format", "json", *argv]) == 0
    capsys.readouterr()
    assert answers() == before


# the least bases of orders 0-5 printed by a fresh interpreter, after a
# history given as its argument: "fresh" (none), "refined" (every ladder
# base q_1..q_7 refined to 2^-2000 and compared with each other by cmp) or
# "deep-first" (the deep-pair witnesses of intervals 2-5 built first)
_HISTORY = """
import itertools, json, sys
from fractions import Fraction
from twobases.enum_b2 import GEN0, min_derived, prop62_witness, qn_ladder
ladder = [e.base for e in qn_ladder(GEN0, 7)]
if sys.argv[1] == "refined":
    for q in ladder:
        q.refine(Fraction(1, 2 ** 2000))
    for a, b in itertools.combinations(ladder, 2):
        a.cmp(b)
elif sys.argv[1] == "deep-first":
    for n in range(2, 6):
        prop62_witness("0", n)
print(json.dumps([min_derived(j).to_json() for j in range(5)]
                 + [min_derived(5, 6, 5).to_json()]))
"""


def test_min_derived_prints_the_same_after_any_ladder_history():
    """The scans read the shared ladder bases only through fixed cells, so
    narrowing their working brackets first, by refinement and comparison or
    by building the deep-pair witnesses and their signs, moves no printed
    byte."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(enum_b2.__file__).parent.parent))
    out = {}
    for history in ("fresh", "refined", "deep-first"):
        proc = subprocess.run([sys.executable, "-c", _HISTORY, history], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out[history] = json.loads(proc.stdout)
    assert out["refined"] == out["fresh"] and out["deep-first"] == out["fresh"]


def _certified_between_cells(gen, n, width):
    """`certify_b2` on the deep pair of generator gen and interval n, over
    (upper end of q_n's cell, lower end of q_{n+1}'s cell] at this width:
    an isolation that shares no window with the interval scan."""
    comp = ComponentSpec(gen)
    c, d = enum_b2.prop62_pair(comp, n)
    ladder = qn_ladder(comp, n + 1)
    return certify_b2(c, d, ladder[n - 1].base.bracket(width)[1],
                      ladder[n].base.bracket(width)[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_prop62_witness_matches_the_deep_pair_root(n):
    """The deep-pair witness of the component generated by 0, certified on
    the interval scan's fixed ladder cells, against `certify_b2` between
    the 10^-30 cells of q_n and q_{n+1}."""
    c, d, w, s_n, s_n1 = prop62_witness("0", n)
    assert (c, d) == enum_b2.prop62_pair(GEN0, n)
    assert (s_n, s_n1) == (-1, 1) and w.admissible
    ref = _certified_between_cells("0", n, Fraction(1, 10 ** 30))
    assert w.minpoly == ref.minpoly
    assert w.root.decimal(30) == ref.root.decimal(30)


@pytest.mark.parametrize("j, Jmax, Nmax", [(3, 6, 5), (4, 4, 5), (5, 6, 5)])
def test_min_derived_takes_the_deep_root_of_prop62_witness(j, Jmax, Nmax):
    """Orders 3 to 5 are decided by the deep pair of interval j, and the
    answer is the very root that `witness --prop62 j` prints."""
    assert min_derived(j, Jmax, Nmax) is prop62_witness("0", j)[2].root


# deep-pair roots within 10^-12 of q_n, or in intervals where q_{n+1} is
# that close to q_n: (generator, n, the root to 30 decimals)
DEEP_ROOTS_NEAR_Q_N = [
    ("0", 6, "1.787231650182965914716041215246"),
    ("0", 7, "1.787231650182965933013274890337"),
    ("1100", 3, "1.787231647905808691324490689623"),
    ("1110", 3, "1.933579278388521224521711436041"),
    ("110", 4, "1.870643591303705088390494833031"),
    ("1100", 4, "1.787231650182965913620230882529"),
    ("1110", 4, "1.933579278440980794360745714614"),
]


@pytest.mark.parametrize("gen, n, root", DEEP_ROOTS_NEAR_Q_N,
                         ids=[f"{g}-{n}" for g, n, _ in DEEP_ROOTS_NEAR_Q_N])
def test_prop62_witness_close_to_q_n(gen, n, root):
    """Signs (-1, +1) and an admissible root, which `certify_b2` between
    fixed cells of q_n and q_{n+1} finds too: at 10^-30, and at 10^-40 for
    n = 7, where q_7 and q_8 lie about 2^-109 apart, inside one 10^-30
    cell."""
    c, d, w, s_n, s_n1 = prop62_witness(gen, n)
    assert (s_n, s_n1) == (-1, 1)
    assert w is not None and w.admissible and w.root.decimal(30) == root
    ref = _certified_between_cells(gen, n, Fraction(1, 10 ** (40 if n == 7 else 30)))
    assert ref.minpoly == w.minpoly and ref.root.decimal(30) == root


@pytest.mark.parametrize("j, Jmax", [(6, 4), (7, 2)])
def test_witness_prop62_prints_the_least_base_of_the_deep_orders(capsys, j, Jmax):
    """`witness --prop62 6` and `7` answer with the root and minimal
    polynomial of `min_derived(j, Jmax, j)`."""
    from twobases.cli import run

    assert run(["--precision", "30", "witness", "--gen", "0", "--prop62", str(j)]) == 0
    out = json.loads(capsys.readouterr().out)
    want = min_derived(j, Jmax, j)
    assert (out["sign_at_qn"], out["sign_at_qn1"], out["admissible"]) == (-1, 1, True)
    assert out["root"] == want.decimal(30) and out["minpoly"] == list(want.minpoly())


def test_prop62_signs_imply_a_root_between_the_ladder_bases():
    """For every generator of at most 4 letters and n = 2..4, signs (-1, +1)
    at q_n and q_{n+1} come with a witness strictly between them, compared
    exactly.  "1" passes `check_generator`, but the ladder words are built
    from a generator ending in 0, so its deep pairs are refused."""
    gens = [w for size in range(1, 5) for w in map("".join, itertools.product("01", repeat=size))
            if words.check_generator(w)]
    assert gens == ["0", "1", "10", "110", "1100", "1110"]
    with pytest.raises(DomainError):
        prop62_witness("1", 2)
    for gen in (g for g in gens if g != "1"):
        ladder = qn_ladder(ComponentSpec(gen), 5)
        for n in (2, 3, 4):
            c, d, w, s_n, s_n1 = prop62_witness(gen, n)
            if (s_n, s_n1) == (-1, 1):
                assert w is not None, (gen, n)
                assert ladder[n - 1].base.cmp(w.root) < 0 < ladder[n].base.cmp(w.root)


def test_prop62_witness_is_built_once():
    assert prop62_witness("0", 3) is prop62_witness("0", 3)


@pytest.mark.parametrize("gen, n", [("10", 2), ("10", 3), ("110", 2), ("110", 3)])
def test_prop62_witness_other_components(gen, n):
    """The deep pair of another component: certified and admissible, the
    defect's signs at q_n and q_{n+1} are (-1, +1), and the root lies
    strictly between them, compared exactly (at ("110", 3) the root and q_3
    print the same 10 digits)."""
    comp = ComponentSpec(gen)
    c, d, w, s_n, s_n1 = prop62_witness(gen, n)
    assert (c, d) == enum_b2.prop62_pair(comp, n)
    assert w is not None and w.admissible
    assert (s_n, s_n1) == (-1, 1)
    ladder = qn_ladder(comp, n + 1)
    assert ladder[n - 1].base.cmp(w.root) < 0 < ladder[n].base.cmp(w.root)


def test_ladder_other_component():
    lad = qn_ladder(ComponentSpec("110"), 2)
    assert lad[0].beta_word == "111001"
    assert lad[0].base.decimal(10) == "1.8667603992"


def test_enum_reprs_counts_and_shape():
    counts = {1: 5, 2: 49, 3: 533, 4: 5857}
    for n, want in counts.items():
        vs = enum_reprs(n, 4)
        assert len(vs) == want
        for v in vs:
            assert len(v.j) == len(v.k) + 1
            assert v.j[-1] is INF or v.j[-1] == INF
            assert len(v.s) == max(len(v.k) - 1, 0)
            assert all(kk < n for kk in v.k) or n == 1
    # deterministic ordering
    assert enum_reprs(2, 4) == enum_reprs(2, 4)


def test_repr_vector_validation():
    with pytest.raises(DomainError):
        ReprVector((0,), (), (2, 3))       # finite final count
    with pytest.raises(DomainError):
        repr_to_seq(ReprVector((0,), (), (0, INF)))
    v = ReprVector((0,), (), (2, INF))
    assert (v.m, v.top_k) == (1, 0)
    z = ReprVector((), (), (INF,))
    assert z.top_k == -1 and format_epseq(repr_to_seq(z)) == "0*"
    assert pair_weight(v, z) == 1 + 0


def test_udiff_assembly_examples():
    # 0^2 (10)^inf
    assert repr_to_seq(ReprVector((0,), (), (2, INF))) == parse_epseq("0(01)")
    # 0 (10)^0 (1 00) (1100)^inf, the bridge spelling
    assert repr_to_seq(ReprVector((0, 1), (1,), (1, 0, INF))) == parse_epseq("0(1001)")
    # 0 (1100)^inf
    assert repr_to_seq(ReprVector((1,), (), (1, INF))) == parse_epseq("(0110)")


def test_repr_sequences_admissible_above_interval():
    lad = qn_ladder(GEN0, 3)
    for n in (1, 2):
        for v in enum_reprs(n, 3):
            s = repr_to_seq(v)
            assert s.digit(0) == 0
            assert is_univoque_seq(s, lad[n].base)


def test_omega_never_a_factor():
    # the level word itself is excluded from every sequence of its interval;
    # its reflection is not, which is why only the word itself is tested
    reflected_hits = 0
    for n in (1, 2, 3):
        om = GEN0.omega(n)
        rom = om.translate(str.maketrans("01", "10"))
        for v in enum_reprs(n, 4):
            s = repr_to_seq(v)
            horizon = len(s.pre) + 2 * len(s.per) + len(om)
            w = "".join(str(s.digit(i)) for i in range(horizon))
            assert om not in w
            reflected_hits += rom in w
    assert reflected_hits > 0


def _profiles_oracle(top, Jmax):
    """Every block profile with levels below `top` and finite counts at most
    Jmax (a nonempty leading run), the all-zero one first: the generation
    order that `enum_b2._walk` follows."""
    yield ReprVector((), (), (INF,))
    for m in range(1, top + 1):
        for k in itertools.combinations(range(top), m):
            for s in itertools.product((0, 1), repeat=m - 1):
                for j0 in range(1, Jmax + 1):
                    for mids in itertools.product(range(Jmax + 1), repeat=m - 1):
                        yield ReprVector(k, s, (j0, *mids, INF))


def _graded_oracle(n, Jmax, cap=INF):
    """Grades built profile by profile through repr_to_seq and EPSeq."""
    profiles = {}
    for v in _profiles_oracle(min(n, cap), Jmax):
        profiles.setdefault(repr_to_seq(v), []).append(v)
    grades = {}
    for t, vs in profiles.items():
        grades.setdefault(min(v.top_k for v in vs) + 1, []).append((t, vs))
    for bucket in grades.values():
        bucket.sort(key=lambda b: (len(b[0].pre) + len(b[0].per), str(b[0])))
    return grades


def _ids(cases, at=0):
    """pytest's ids of the cases with the generator "0" inserted at place
    `at`, so that each scan case's id names the component it covers."""
    return ["-".join(map(str, (*c[:at], "0", *c[at:]))) for c in cases]


WALK_GRID = [
    (0, 3, INF), (1, 4, INF), (2, 3, INF), (3, 2, INF),
    (4, 2, INF), (3, 3, 2), (4, 2, 3), (4, 1, 1),
]


@pytest.mark.parametrize("n, Jmax, cap", WALK_GRID, ids=_ids(WALK_GRID))
def test_walk_matches_profile_route(n, Jmax, cap):
    # the same sequences with the same profiles in generation order, the
    # same lightest weights, in the same order; the text is canonical
    walked = enum_b2._graded_tails(n, Jmax, cap)
    top = min(n, cap)
    got = {w: [(EPSeq(*text), [ReprVector(*enum_b2._profile(top, Jmax, i)) for i in ids])
               for text, ids, _ in bucket]
           for w, bucket in walked.items()}
    assert got == _graded_oracle(n, Jmax, cap)
    for bucket in walked.values():
        for text, _, _ in bucket:
            t = EPSeq(*text)
            assert (t.pre, t.per) == text


@pytest.mark.parametrize("n, Jmax, cap", WALK_GRID, ids=_ids(WALK_GRID))
def test_text_weight_fixed_by_period(n, Jmax, cap):
    # capped scans split the walk by weight, which rests on every profile of
    # a sequence having the same top level: it is read off the period length
    weight_of = {}
    for v in _profiles_oracle(min(n, cap), Jmax):
        t = repr_to_seq(v)
        assert weight_of.setdefault(len(t.per), v.top_k + 1) == v.top_k + 1
    assert len(weight_of) == min(n, cap) + 1


@pytest.mark.parametrize("n, Jmax", [(0, 1), (1, 4), (2, 4), (3, 3), (4, 4)])
def test_enum_reprs_matches_profile_route(n, Jmax):
    def key(v):
        t = repr_to_seq(v)
        return (len(t.pre) + len(t.per), t.pre + "(" + t.per + ")",
                v.k, v.s, v.j[:-1])
    assert enum_reprs(n, Jmax) == sorted(_profiles_oracle(n, Jmax), key=key)


WORDS = st.text("01", max_size=12)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(WORDS, st.text("01", min_size=1, max_size=6), st.lists(WORDS, min_size=1, max_size=4))
@example("011", "01", ["0101", "", "11"])    # the strip ends inside the run
@example("01", "01", ["0101", "1"])          # it takes the whole run
def test_shortest_memo_matches_shortest(run, per, heads):
    # one memo shared by preperiods that end in the same run, each asked
    # twice, so both the first computation and the memoised cut are checked
    strips = {}
    for head in heads + heads:
        pre = head + run
        assert enum_b2._shortest_memo(strips, pre, per, len(head)) == words._shortest(pre, per)


POINTS = st.fractions(1, 3, max_denominator=10**30).filter(lambda e: e > 1)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(POINTS, POINTS, st.sampled_from([4, 128]),
       st.sampled_from([(3, 2), (2, 4)]))
@example(Fraction(3, 2), Fraction(2), 4, (3, 2))
def test_walk_enclosures_match_enclose(e1, e2, bits, slice_):
    # the running digit sums and the cached periods give bit for bit what
    # enclosing each canonical sequence afresh gives
    n, Jmax = slice_
    saved = words.ENCLOSE_BITS
    words.ENCLOSE_BITS = bits
    try:
        walked = enum_b2._walk(n, Jmax, [words.SeriesEnclosure(e1), words.SeriesEnclosure(e2)])
        fresh = words.SeriesEnclosure(e1), words.SeriesEnclosure(e2)
        for text, entry in walked.items():
            t = EPSeq(*text)
            assert entry[1:5] == (*fresh[0].enclose(t, "1"), *fresh[1].enclose(t, "1"))
    finally:
        words.ENCLOSE_BITS = saved


def _brute_vector_pairs(n, Jmax):
    """Every unordered pair of enum_reprs profiles as (c, d, vc, vd) with
    c <= d lexicographically, (0^inf, 0^inf) left out."""
    seqs = [(v, repr_to_seq(v)) for v in enum_reprs(n, Jmax)]
    out = set()
    for (vc, c), (vd, d) in itertools.combinations_with_replacement(seqs, 2):
        if vc.m == 0 and vd.m == 0:
            continue
        if lex_cmp(c, d) > 0:
            c, d, vc, vd = d, c, vd, vc
        out.add((c, d, vc, vd))
    return out


PAIR_GRID = [(1, 4), (2, 4), (3, 2), (4, 1)]


@pytest.mark.parametrize("n, Jmax", PAIR_GRID, ids=_ids(PAIR_GRID, 2))
def test_tail_pairs_match_brute_pairing(n, Jmax):
    got = [(c, d, vc, vd) for c, d, pairs in _tail_pairs(n, Jmax)
           for vc, vd in pairs]
    assert len(got) == len(set(got))
    assert set(got) == _brute_vector_pairs(n, Jmax)


@pytest.mark.parametrize("n, Jmax, cap", [(3, 3, 3), (4, 1, 4), (4, 1, 2)])
def test_tail_pairs_weight_cap(n, Jmax, cap):
    # a capped pair's lightest profiles weigh at most cap in total
    lightest = {}
    for v in enum_reprs(n, Jmax):
        s = repr_to_seq(v)
        lightest[s] = min(lightest.get(s, math.inf), v.top_k + 1)
    want = {(c, d) for c, d, _, _ in _brute_vector_pairs(n, Jmax)
            if lightest[c] + lightest[d] <= cap}
    got = [(c, d) for c, d, _ in _tail_pairs(n, Jmax, cap)]
    assert len(got) == len(set(got))
    assert set(got) == want


def test_interval_flags_follow_q_f():
    # q_f = q_2 for the zero component, and q_1 for the component "10"
    for gen, shaped_from, monotone_from in (("0", 2, 3), ("10", 1, 2)):
        ladder = qn_ladder(ComponentSpec(gen), 5)
        for n in range(5):
            iv = _interval(ladder, n)
            assert (iv.shaped, iv.monotone) == (n >= shaped_from, n >= monotone_from)


def _isolation_slice():
    """Check every pair of the interval-3, Jmax-3, weight-3 slice against
    isolating over the whole interval with the ladder brackets, then
    filtering by cmp; return the pairs and the admissible roots found."""
    ladder = qn_ladder(GEN0, 4)
    iv = _interval(ladder, 3)
    assert iv.monotone
    q3, q4 = ladder[2].base, ladder[3].base
    pairs = list(_tail_pairs(3, 3, 3))
    found = []
    for c, d, _ in pairs:
        fast = [(w.root.minpoly(), w.admissible) for w in _pair_roots(c, d, iv)]
        slow = [(r.minpoly(), in_A_prime(c, r) and in_A_prime(d, r))
                for r in real_roots(f_minpoly(c, d), q3.bracket()[0], q4.bracket()[1])
                if r.cmp(q3) > 0 and r.cmp(q4) <= 0]
        assert fast == slow, (c, d)
        found += [key for key, ok in fast if ok]
    return pairs, found


def test_bracket_signs_match_isolation():
    # interval 3 is monotone: four bracket signs stand in for isolating over
    # the whole interval with the ladder brackets, then filtering by cmp
    pairs, found = _isolation_slice()
    assert len(pairs) == 309
    assert len(found) == 1


def test_bracket_signs_fall_back_to_exact_signs(monkeypatch):
    # at 2 bits every enclosure sum straddles 1/(e - 1), so each window sign
    # of the slice comes from f_minpoly, and the roots stay the same
    built = []

    def counted(c, d):
        built.append((c, d))
        return f_minpoly(c, d)
    monkeypatch.setattr(words, "ENCLOSE_BITS", 2)
    monkeypatch.setattr(enum_b2, "f_minpoly", counted)
    pairs, found = _isolation_slice()
    shape_iii = [(c, d) for c, d, _ in pairs
                 if monotone_case(c, d) is MonotoneCase.INCREASING_III]
    assert len(found) == 1
    assert len(shape_iii) > 100 and built == shape_iii


TAILS = st.builds(EPSeq, st.text("01", max_size=40), st.text("01", min_size=1, max_size=24))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(TAILS, TAILS, st.fractions(1, 2, max_denominator=10**30).filter(lambda q: q > 1))
@example(EPSeq("", "0"), EPSeq("", "0"), Fraction(2))          # f(2) = 0
@example(EPSeq("", "0"), EPSeq("", "0"), Fraction(3, 2))       # f < 0
@example(EPSeq("", "1"), EPSeq("", "1"), Fraction(3, 2))       # f > 0
@example(parse_epseq("000(01)"), parse_epseq("0(01)"), Fraction(17, 10))
@example(parse_epseq("000(01)"), parse_epseq("0(01)"), Fraction(9, 5))
def test_end_sign_agrees_with_exact_defect(c, d, e):
    # a decided window sign is the exact sign of f(e), and an exact zero
    # never decides; away from 1, any defect above 2^-100 in size decides
    iv = _Interval(AlgBase.from_rational(Fraction(3, 2)), AlgBase.from_rational(2),
                   (Fraction(3, 2),) * 2 + (Fraction(2),) * 2, False, True)
    s = iv.end_sign(c, d, e)
    exact = f_eval(c, d, e)
    if exact == 0:
        assert s is None
    elif s is not None:
        assert s == (1 if exact > 0 else -1)
    elif e >= Fraction(11, 10):
        assert abs(exact) <= Fraction(1, 2**100)
    # the defect is symmetric, and a second lookup reuses the tail table
    assert iv.end_sign(d, c, e) == s


def test_bracket_signs_at_interval_ends():
    # the defect of (000(01), 0(01)) crosses zero upwards at q_s; intervals
    # ending and starting at q_s put that root in the right and the left
    # bracket window, and only (.., q_s] keeps it
    c, d = parse_epseq("000(01)"), parse_epseq("0(01)")
    q_s = solve_qcd(c, d, Fraction(17, 10), Fraction(9, 5))
    cell = q_s.bracket(Fraction(1, 10**30))
    ending = _Interval(AlgBase.from_rational(Fraction(17, 10)), q_s,
                       (Fraction(17, 10),) * 2 + cell, False, True)
    [w] = _pair_roots(c, d, ending)
    assert w.root.same_value(q_s) and w.admissible
    starting = _Interval(q_s, AlgBase.from_rational(Fraction(9, 5)),
                         cell + (Fraction(9, 5),) * 2, False, True)
    assert _pair_roots(c, d, starting) == []


def _band_against_brute(n, Jmax, cap=INF):
    """Scan the monotone interval n with the enclosure band and by brute
    force over `_tail_pairs`.  The band's pairs must be the brute pairs it
    keeps, in brute order, and every pair with a root must be kept.  Returns
    the band and the brute pair counts and the rooted pairs with their
    admissibility verdicts."""
    iv = _interval(qn_ladder(GEN0, n + 1), n)
    assert iv.monotone
    band = list(_tail_pairs(n, Jmax, cap, iv))
    brute = list(_tail_pairs(n, Jmax, cap))
    kept = {(c, d) for c, d, _ in band}
    assert band == [t for t in brute if (t[0], t[1]) in kept]
    verdicts = {(c, d): [w.admissible for w in _pair_roots(c, d, iv)] for c, d, _ in brute}
    rooted = [(c, d, verdicts[c, d]) for c, d, _ in brute if verdicts[c, d]]
    assert [(c, d, verdicts[c, d]) for c, d, _ in band if verdicts[c, d]] == rooted
    return len(band), len(brute), rooted


BAND_GRID = [
    (3, 3, INF, 100),      # the scan of enum_B2(3, 3)
    (4, 3, 4, 0),
]


@pytest.mark.parametrize("n, Jmax, cap, roots", BAND_GRID, ids=_ids(BAND_GRID))
def test_band_keeps_every_rooted_pair(n, Jmax, cap, roots):
    kept, total, rooted = _band_against_brute(n, Jmax, cap)
    assert len(rooted) == roots
    assert kept * 20 < total


def test_band_falls_back_to_pairwise_tests(monkeypatch):
    # at 4 bits the hi enclosures of some grades are not sorted along the
    # lo order, so the band tests their lo prefix tail by tail;
    # the rooted pairs stay the same (at 2 bits the (lo, hi) sort still
    # leaves hi sorted on this slice)
    bands = []

    class Recorded(enum_b2._Band):
        def __init__(self, *args):
            super().__init__(*args)
            bands.append(self)
    monkeypatch.setattr(words, "ENCLOSE_BITS", 4)
    monkeypatch.setattr(enum_b2, "_Band", Recorded)
    _, _, rooted = _band_against_brute(3, 3, 3)
    assert len(rooted) == 1
    assert any(not b._hi_sorted for b in bands)


KEYS = st.lists(st.tuples(st.integers(0, 30), st.integers(-5, 30)), max_size=14)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(KEYS, KEYS, st.integers(0, 60), st.integers(0, 80), st.booleans())
@example([], [], 0, 0, False)
@example([(0, 0), (1, -5), (3, -2)], [(0, 0), (1, -5), (3, -2)], 10, 0, False)
@example([(2, -1), (3, -4)], [(0, -3), (1, -5)], 9, 0, False)
@example([(0, 2), (5, -1), (6, -4), (1, 9)], [(0, 2), (5, -1), (6, -4)], 12, 9, False)
def test_band_matches_pairwise_tests(keys, other, floor, ceil, sorted_hi):
    # partners and pairs against testing every pair; sorted_hi makes hi
    # nondecreasing along the lo order, so the bisection path runs too.
    # Unsorted bands test only lo >= need - G, G the largest hi - lo; the
    # examples draw the empty band and unsorted bands with G = 0 and G < 0
    def band(ks):
        lo = [a for a, _ in ks]
        hi = [3 * a for a in lo] if sorted_hi else [a + b for a, b in ks]
        return enum_b2._Band(lo, hi, floor, ceil)
    first, second = band(keys), band(other)
    assert second._hi_sorted or not sorted_hi

    def brute(a, b, same):
        idx = (itertools.combinations_with_replacement(range(len(a.lo)), 2) if same
               else itertools.product(range(len(a.lo)), range(len(b.lo))))
        return [(x, y) for x, y in idx
                if a.lo[x] + b.lo[y] <= floor and a.hi[x] + b.hi[y] >= ceil]
    want = brute(first, second, False)
    for x in range(len(keys)):
        assert second.partners(first.lo[x], first.hi[x]) == [y for x2, y in want if x2 == x]
    assert list(second.pairs(first)) == want
    assert list(first.pairs(first)) == brute(first, first, True)


class _EveryPair(enum_b2._Band):
    """A band that rules nothing out: the endpoint rule then tests every
    pair of the stored walk exactly (no subtree is pruned), and the interior
    scan forms every pair."""

    def partners(self, lc, hc):
        return list(range(len(self.lo)))

    def reaches(self, lc, hc):
        return True


def _counted_endpoint_tests(monkeypatch) -> list:
    """One entry per pair the endpoint rule tests exactly: the pairs of the
    `_tail_pairs` scans given band keys (its fifth argument)."""
    tested = []
    tail_pairs = enum_b2._tail_pairs

    def counted(*args):
        for t in tail_pairs(*args):
            if len(args) == 5:
                tested.append(t)
            yield t
    monkeypatch.setattr(enum_b2, "_tail_pairs", counted)
    return tested


@pytest.mark.parametrize("j, Jmax, saved", [(2, 5, 10), (2, 6, 10), (3, 4, 1), (4, 4, 1)])
def test_filtered_scans_match_exact_scans(monkeypatch, j, Jmax, saved):
    # the same base, bracket included; the endpoint rule tests exactly at
    # most 1/saved of the pairs it tests with no band (at j = 2 and Jmax 5
    # or 6 the band keeps one pair of interval 1 at q_2's cell, of 20 and
    # 27; at j = 3 and 4 it keeps none at q_2's and q_3's)
    tested = _counted_endpoint_tests(monkeypatch)
    fast, n_fast = min_derived(j, Jmax, 5).to_json(), len(tested)
    assert (n_fast > 0) == (j == 2)
    monkeypatch.setattr(enum_b2, "_Band", _EveryPair)
    assert min_derived(j, Jmax, 5).to_json() == fast
    assert len(tested) > n_fast and n_fast * saved <= len(tested) - n_fast


def _endpoint_join(iv, n, j, Jmax):
    """The endpoint rule as a hash join on exact values, the oracle of
    `_endpoint_certificate`: every tail of interval n - 1 with a partner in
    one band over all weights is evaluated in Q(q_n), and each is joined to
    the lightest tail (the first in `_graded_tails` order among equals) of
    value 1/(q_n - 1) minus its own.  Each sequence stands for itself
    through its first profile of least top_k."""
    maxweight = 2 * n - j
    if maxweight < 1:
        return None
    qn = iv.lo
    a0, a1 = iv.ends[:2]
    points = (a1, a0)
    ends = iv.ones(a0)[0], iv.ones(a1)[1]
    tails = [(w, text, ids, bounds)
             for w, bucket in sorted(enum_b2._graded_tails(
                 n - 1, Jmax, maxweight, iv.enclosures(points), ends).items())
             for text, ids, bounds in bucket]
    # lo at a1 and hi at a0, from bounds (lo, hi) at a1, then (lo, hi) at a0
    band = enum_b2._Band([b[0] for *_, b in tails], [b[3] for *_, b in tails], *ends)
    entries = []
    for (w, text, ids, bounds), lc, hc in zip(tails, band.lo, band.hi):
        if band.reaches(lc, hc):
            s = EPSeq(*text)
            iv.record(s, points, bounds)
            v = min((ReprVector(*enum_b2._profile(min(n - 1, maxweight), Jmax, i))
                     for i in ids), key=lambda v: v.top_k)
            entries.append((w, s, v, words.eval_seq(prepend("1", s), qn)))
    if not entries:
        return None
    ones = qn.field().series_den_inv(0, 1)
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
    if best is None:
        return None
    S, pair, (c, d) = best
    if not (in_A_prime(c, qn) and in_A_prime(d, qn)):
        raise DomainError("endpoint pair must be admissible at its root")
    if not enum_b2._family_decreases_to(iv, pair):
        raise DomainError("endpoint family certificate failed")
    return qn


def _min_derived_run(monkeypatch, rule, j, Jmax, Nmax) -> tuple:
    """min_derived with `rule` as the endpoint rule: its base (or the error
    it raises) and the pairs it hands `_family_decreases_to`, in order."""
    families = []
    family = enum_b2._family_decreases_to

    def recorded(iv, pair):
        families.append(pair)
        return family(iv, pair)
    with monkeypatch.context() as m:
        m.setattr(enum_b2, "_family_decreases_to", recorded)
        m.setattr(enum_b2, "_endpoint_certificate", rule)
        try:
            got = min_derived(j, Jmax, Nmax).to_json()
        except (DomainError, NotFoundWithinBoundsError) as e:
            got = type(e).__name__, str(e)
    return got, families


def test_endpoint_rule_matches_the_exact_join(monkeypatch):
    # the same base, and the same family checks on the same profile pairs
    # in the same order, as the hash join; only Jmax >= 5 reaches a family
    # check (q_2 from the pair of counts 2 and 5 of interval 1)
    checked = 0
    for j, Jmax, Nmax in itertools.product(range(1, 5), range(2, 7), (4, 5)):
        got = _min_derived_run(monkeypatch, enum_b2._endpoint_certificate, j, Jmax, Nmax)
        assert got == _min_derived_run(monkeypatch, _endpoint_join, j, Jmax, Nmax)
        checked += len(got[1])
    assert checked == 8


def _stored_walk(monkeypatch):
    """Switch subtree pruning off: capped scans then keep every heavy leaf,
    as the stored walk does, for the endpoint rule too; the pair band is
    left on."""
    monkeypatch.setattr(enum_b2._Band, "reaches", lambda self, lc, hc: True)


def _counted_leaves(monkeypatch) -> list:
    """One entry per leaf the walks build (each canonicalises its text once)."""
    built = []

    def counted(*args):
        built.append(args)
        return shortest_memo(*args)
    shortest_memo = enum_b2._shortest_memo
    monkeypatch.setattr(enum_b2, "_shortest_memo", counted)
    return built


PRUNE_GRID = [(3, 4), (4, 3), (5, 2)]


@pytest.mark.parametrize("n, Jmax", PRUNE_GRID, ids=_ids(PRUNE_GRID))
def test_pruned_scan_matches_stored_scan(monkeypatch, n, Jmax):
    # on a monotone interval, capped scans that prune heavy subtrees yield
    # the stored scan's (c, d, pairs) sequence, profile ids included, and
    # the endpoint rule returns the same result
    iv = _interval(qn_ladder(GEN0, n + 1), n)
    assert iv.monotone

    def scans():
        out = [list(_tail_pairs(n, Jmax, cap, iv)) for cap in (3, 4, 5, 6)]
        for j in range(1, 2 * n):
            try:
                got = _endpoint_certificate(iv, n, j, Jmax)
                out.append(None if got is None else got.to_json())
            except DomainError as e:
                out.append(str(e))
        return out
    built = _counted_leaves(monkeypatch)
    pruned, n_pruned = scans(), len(built)
    _stored_walk(monkeypatch)
    assert scans() == pruned
    assert n_pruned < len(built) - n_pruned


def test_pruned_walk_builds_few_leaves(monkeypatch):
    # min_derived(4, 4, 5) builds at most a fifth of the stored walk's leaves
    built = _counted_leaves(monkeypatch)
    fast, n_fast = min_derived(4, 4, 5).to_json(), len(built)
    _stored_walk(monkeypatch)
    assert min_derived(4, 4, 5).to_json() == fast
    assert n_fast * 5 <= len(built) - n_fast


def _raw_nodes(k, s, j):
    """The raw preperiod of profile (k, s, j) as `_walk` assembles it, and
    the nodes on the way: the preperiod after every run and bridge."""
    pre, nodes = "", []
    for _ in range(j[0]):
        pre += GEN0.generator
        nodes.append(pre)
    for i in range(1, len(k)):
        for _ in range(j[i]):
            pre += _block(GEN0, k[i - 1])
            nodes.append(pre)
        if s[i - 1]:
            pre += _bridge(GEN0, k[i - 1], k[i])
            nodes.append(pre)
    return pre, nodes


def _bound_misses(bits, slack=(0, 0)) -> int:
    """(node, leaf) pairs whose leaf keys fall outside the node's bounds,
    tightened by slack = (on lo, on hi), over two monotone intervals at
    ENCLOSE_BITS = bits.  Leaf keys are enclosed afresh from
    the leaf's canonical sequence, cut period included."""
    saved = words.ENCLOSE_BITS
    words.ENCLOSE_BITS = bits
    misses = 0
    try:
        for n, Jmax in ((3, 3), (4, 2)):
            iv = _interval(qn_ladder(GEN0, n + 1), n)
            at_lo = words.SeriesEnclosure(iv.lo.bracket()[0])
            at_hi = words.SeriesEnclosure(iv.hi.bracket()[1])
            end = enum_b2._longest_pre(n, Jmax) + 1
            for v in _profiles_oracle(n, Jmax):
                if not v.m:
                    continue
                per = words._primitive(_block(GEN0, v.k[-1]))
                reach = enum_b2._Reach(None, per, at_hi, end)
                raw, nodes = _raw_nodes(v.k, v.s, v.j)
                t = EPSeq(raw, per)
                assert t == repr_to_seq(v) and len(raw) < end
                lo, hi = at_lo.enclose(t, "1")[0], at_hi.enclose(t, "1")[1]
                for node in nodes:
                    if reach.cuts_deep(node):
                        continue  # no bounds claimed
                    sums = (*at_lo.digit_sums("1" + node), *at_hi.digit_sums("1" + node))
                    lmin, hmax = reach.bounds(node, sums)
                    misses += lo < lmin + slack[0] or hi > hmax - slack[1]
    finally:
        words.ENCLOSE_BITS = saved
    return misses


def test_subtree_bounds_hold_for_every_leaf():
    # every node's (least lo, greatest hi) holds for the integer keys of
    # every leaf below it, at a coarse and at the default precision; a bound
    # one unit tighter on either side fails
    assert _bound_misses(4) == 0 and _bound_misses(128) == 0
    for slack in ((1, 0), (0, 1)):
        assert _bound_misses(4, slack) + _bound_misses(128, slack) > 0


def test_enum_B2_first_interval():
    wits = enum_B2(1, 6)
    assert [w.root.decimal(10) for w in wits] == ["1.7106440950", "1.7548776662"]
    assert [w.minpoly for w in wits] == [(-1, -1, -2, 0, 1), (-1, 1, -2, 1)]
    assert all(w.admissible for w in wits)
    assert all(w.derived_order == 0 for w in wits)
    assert all(w.repr_vectors for w in wits)
    # deterministic output
    again = enum_B2(1, 6)
    assert [format_epseq(w.c) for w in wits] == [format_epseq(w.c) for w in again]


def test_enum_B2_second_interval():
    lad = qn_ladder(GEN0, 3)
    wits = enum_B2(2, 4)
    assert len(wits) == 45
    assert wits[0].root.decimal(10) == "1.7573507340"
    assert wits[-1].root.decimal(10) == "1.7840722141"
    for a, b in zip(wits, wits[1:]):
        assert a.root.cmp(b.root) < 0
    assert len({w.minpoly for w in wits}) == len(wits)
    assert all(w.admissible for w in wits)
    for w in wits:
        assert lad[1].base.cmp(w.root) < 0 and w.root.cmp(lad[2].base) <= 0
    # isolated witnesses are dense in the picture: order-0 ones show up here
    orders = {w.derived_order for w in wits}
    assert 0 in orders and max(orders) >= 2


def test_enum_B2_validates_bounds():
    for n, Jmax in ((1, 0), (1, -3), (-1, 3)):
        with pytest.raises(DomainError, match="need n >= 0 and Jmax >= 1"):
            enum_B2(n, Jmax)


def test_enum_B2_witnesses_count_two():
    for w in enum_B2(1, 6):
        assert count_expansions(prepend("1", w.c), w.root, cap=3) == CountResult(2)


def test_derived_order_bound():
    w = enum_B2(1, 6)[0]
    assert derived_order_bound(w, 1) == 0
    assert derived_order_bound(w, 3) == 4
    bare = B2Witness(parse_epseq("0*"), parse_epseq("0*"), None, (), False)
    with pytest.raises(DomainError):
        derived_order_bound(bare, 1)


def test_min_derived_small_orders():
    assert min_derived(0, 6, 5).minpoly() == (-1, -1, -2, 0, 1)
    assert min_derived(1, 6, 5).minpoly() == (-1, 1, -2, 1)
    assert min_derived(2, 6, 5).minpoly() == (-1, 1, -2, 1)
    q3 = min_derived(3, 6, 5)
    assert q3.decimal(10) == "1.7850659171"
    lad = qn_ladder(GEN0, 4)
    assert lad[2].base.cmp(q3) < 0 < lad[3].base.cmp(q3)
    with pytest.raises(DomainError):
        min_derived(-1)


# min_derived(5, 6, 5).to_json() at the default Jmax: the deep-pair root of
# interval 5 (no endpoint or interior certificate of order 5 up to Jmax 6)
MIN_DERIVED_5 = {
    "minpoly": [-1, -1, -1, -1, -1, -1, -1, -1, -2, -2, -2, -2, -2, -2, -2, -2,
                -2, -2, -1, -2, -4, -2, -2, -2, 0, -2, -3, -2, -2, -2, -2, -2,
                -2, -1, -1, -1, 0, -1, -1, -1, -2, 0, 1],
    "interval": [
        "76020426928648321548461755103538281821/"
        "42535295865117307932921825928971026432",
        "38010213464324162217685255813753884465/"
        "21267647932558653966460912964485513216",
    ],
    "approx": "1.78723164803449",
}


def test_min_derived_order_5_frozen():
    assert min_derived(5, 6, 5).to_json() == MIN_DERIVED_5


# min_derived(6, 4, 6).to_json(): the deep-pair root of interval 6, degree 82
MIN_DERIVED_6 = {
    "minpoly": [
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
        -2, -2, -3, -2, 0, -2, -2, -2, -4, -2, 0, -2, -4, -2, -2, -2,
        0, -2, -3, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
        -2, -1, 0, -1, -2, -1, -1, -1, 0, -1, -2, -1, 0, -1, -1, -1,
        -2, 0, 1,
    ],
    "interval": [
        "304081708080137171878324943922979848561/"
        "170141183460469231731687303715884105728",
        "1216326832320548700711533537032073477313/"
        "680564733841876926926749214863536422912",
    ],
    "approx": "1.78723165018297",
}


# min_derived(7, 2, 7).to_json(): the deep-pair root of interval 7, degree 162
MIN_DERIVED_7 = {
    "minpoly": [
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
        -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
        -2, -2, -1, -2, -4, -2, -2, -2, 0, -2, -4, -2, 0, -2, -2, -2,
        -4, -2, -2, -2, 0, -2, -2, -2, -4, -2, 0, -2, -4, -2, -2, -2,
        0, -2, -3, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
        -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
        -2, -1, -1, -1, 0, -1, -1, -1, -2, -1, 0, -1, -2, -1, -1, -1,
        0, -1, -1, -1, -2, -1, -1, -1, 0, -1, -2, -1, 0, -1, -1, -1,
        -2, 0, 1,
    ],
    "interval": [
        "413894573451483746322906327654809695866978355153342571327341294821680805843217/"
        "231584178474632390847141970017375815706539969331281128078915168015826259279872",
        "206947286725741873161453163827405010769731272910708560553855352193813221217653/"
        "115792089237316195423570985008687907853269984665640564039457584007913129639936",
    ],
    "approx": "1.78723165018297",
}


def _rules_seen(monkeypatch) -> dict:
    """What each of the three derived-order rules returns, call by call; for
    the deep rule, the root of the `prop62_witness` it reads."""
    seen = {"endpoint": [], "interior": [], "deep": []}

    def recorded(name, fn):
        def wrapper(*args):
            out = fn(*args)
            if name == "deep":
                seen[name].append(out[2].root)
            else:
                seen[name].append(list(out) if isinstance(out, list) else out)
            return out
        return wrapper
    for name, attr in (("endpoint", "_endpoint_certificate"),
                       ("interior", "_interior_candidates"), ("deep", "prop62_witness")):
        monkeypatch.setattr(enum_b2, attr, recorded(name, getattr(enum_b2, attr)))
    return seen


def test_min_derived_order_6_frozen_by_the_deep_pair(monkeypatch):
    """Order 6 at Jmax 4 (under a second): no endpoint certificate and no
    interior root of order 6 in intervals 4 to 6, so the deep pair of
    interval 6 decides."""
    seen = _rules_seen(monkeypatch)
    got = min_derived(6, 4, 6)
    assert got.to_json() == MIN_DERIVED_6
    assert seen["endpoint"] == [None] * 3 and seen["interior"] == [[]] * 3
    assert len(seen["deep"]) == 1 and seen["deep"][0] is got


def test_min_derived_order_7_frozen_by_the_deep_pair(monkeypatch):
    """Order 7 at Jmax 2: no endpoint certificate and no interior root of
    order 7 in intervals 4 to 7, so the deep pair of interval 7 decides."""
    seen = _rules_seen(monkeypatch)
    got = min_derived(7, 2, 7)
    assert got.to_json() == MIN_DERIVED_7
    assert seen["endpoint"] == [None] * 4 and seen["interior"] == [[]] * 4
    assert len(seen["deep"]) == 1 and seen["deep"][0] is got


@pytest.mark.parametrize("j, Jmax, frozen, scans", [(6, 6, MIN_DERIVED_6, 3),
                                                     (7, 3, MIN_DERIVED_7, 4)])
def test_deep_orders_at_larger_jmax_keep_the_deep_pair(monkeypatch, j, Jmax, frozen, scans):
    """(6, 6, 6) and (7, 3, 7), reachable since heavy subtrees are pruned
    (about 1 s and 5 s): still no endpoint certificate and no interior root
    of the order, so the same deep-pair root decides."""
    seen = _rules_seen(monkeypatch)
    got = min_derived(j, Jmax, j)
    assert got.to_json() == frozen
    assert seen["endpoint"] == [None] * scans and seen["interior"] == [[]] * scans
    assert len(seen["deep"]) == 1 and seen["deep"][0] is got


# The minimal polynomial of the deep-pair root of interval 8 (degree 322,
# from a defect of degree 385), frozen when the factoriser still worked on
# lists of residues mod p.  Intervals 6 to 8 agree to 16 digits, so the
# whole polynomial is compared, not the decimals.
DEEP_ROOT_8 = (
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
    -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
    -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
    -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
    -2, -2, -3, -2, 0, -2, -2, -2, -4, -2, 0, -2, -4, -2, -2, -2,
    0, -2, -2, -2, -4, -2, -2, -2, 0, -2, -4, -2, 0, -2, -2, -2,
    -4, -2, 0, -2, -4, -2, -2, -2, 0, -2, -4, -2, 0, -2, -2, -2,
    -4, -2, -2, -2, 0, -2, -2, -2, -4, -2, 0, -2, -4, -2, -2, -2,
    0, -2, -3, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
    -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
    -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
    -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2, -2,
    -2, -1, 0, -1, -2, -1, -1, -1, 0, -1, -2, -1, 0, -1, -1, -1,
    -2, -1, -1, -1, 0, -1, -1, -1, -2, -1, 0, -1, -2, -1, -1, -1,
    0, -1, -2, -1, 0, -1, -1, -1, -2, -1, 0, -1, -2, -1, -1, -1,
    0, -1, -1, -1, -2, -1, -1, -1, 0, -1, -2, -1, 0, -1, -1, -1,
    -2, 0, 1,
)


def test_deep_pair_root_of_interval_8_frozen():
    """The largest polynomial the degree analysis proves irreducible in the
    tests (about 15 s)."""
    assert prop62_witness("0", 8)[2].minpoly == DEEP_ROOT_8
