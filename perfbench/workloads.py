"""The three benchmark workloads and the answer check of every operation.

A workload is a list of operations.  Each operation has a ``run`` callable,
timed by the worker, that returns its answer as plain JSON data, and a
``check`` callable, run after the timed phase, that returns a list of
problems with that answer (empty when it is right).

Two workloads are fixed jobs chosen from the paper and ignore the seed;
``cli_queries`` draws the arguments of its requests from the seed, with the
number of requests of each kind fixed.  Why each workload exists is written
in perfbench/README.md.

Library functions are always looked up as attributes of the ``twobases``
package at call time, so a tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import twobases as tb
import twobases.cli  # noqa: F401  (binds tb.cli)

import oracles

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

WORKLOADS = ("derived_scan", "cli_queries", "field_orbits")

Q_S_POLY = (-1, -1, -2, 0, 1)
Q_F_POLY = [-1, 1, -2, 1]


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def build(workload: str, seed: int) -> list:
    """The operations of one workload, in the order they run."""
    if workload == "derived_scan":
        return _derived_scan()
    if workload == "cli_queries":
        return [_cli_op(req) for req in cli_requests(seed)]
    if workload == "field_orbits":
        return _field_orbits()
    raise ValueError(f"unknown workload {workload!r}")


def _refused(fn, exc_type):
    """Run fn; an expected refusal is a correct answer, reported by name."""
    try:
        return {"value": repr(fn())}
    except exc_type as e:
        return {"refused": type(e).__name__}


def _expect(cond: bool, what: str) -> list:
    return [] if cond else [what]


def _root_out(r) -> dict:
    return {"decimal": r.decimal(20), "minpoly": list(r.minpoly())}


def _root_checks(out: dict, decimal12: str, degree: int) -> list:
    poly = out["minpoly"]
    close = abs(Fraction(out["decimal"]) - Fraction(decimal12)) <= Fraction(1, 10**12)
    return (_expect(close, f"root {out['decimal']} != {decimal12}")
            + _expect(len(poly) - 1 == degree, f"degree {len(poly) - 1} != {degree}")
            + _expect(oracles.decimal_brackets_root(lambda x: oracles.horner(poly, x),
                                                    out["decimal"]),
                      "minpoly has no sign change across the printed root"))


# ---------------------------------------------------------------------------
# derived_scan: the two-expansion bases of interval 1, and the least base of
# each derived order, interval n <= 4


def _derived_scan() -> list:
    q3, q5 = (Fraction(REFERENCE["ladder_decimals"][i]) for i in (2, 4))
    ulp = Fraction(1, 10**20)

    def check_2(out):
        return (_expect(out["minpoly"] == Q_F_POLY, "min order-2 base is not q_f")
                + _root_checks(out, "1.754877666247", 3))

    def check_4(out):
        x = Fraction(out["decimal"])
        return (_root_checks(out, "1.787208599807", 22)
                + _expect(out == REFERENCE["min_derived_4_4_5"], "differs from frozen")
                + _expect(q3 + ulp <= x - ulp and x + ulp < q5 - ulp, "not in [q_3, q_5)"))

    def check_b2(out):
        want = [row for row in REFERENCE["witness_pool"] if row["source"] == "enum_B2(1,6)"]
        problems = _expect([r["minpoly"] for r in out] == [list(Q_S_POLY), Q_F_POLY],
                           "enum_B2(1,6) is not exactly q_s and q_f")
        for r, row in zip(out, want):
            problems += _root_checks(r, row["decimal"][:14], len(row["minpoly"]) - 1)
        return problems

    return [
        Op("enum_B2(1,6)", lambda: [_root_out(w.root) for w in tb.enum_B2(1, 6)], check_b2),
        Op("min_derived(2,6,5)", lambda: _root_out(tb.min_derived(2, 6, 5)), check_2),
        Op("min_derived(3,6,5)", lambda: _root_out(tb.min_derived(3, 6, 5)),
           lambda out: _root_checks(out, "1.785065917087", 12)),
        Op("min_derived(4,4,5)", lambda: _root_out(tb.min_derived(4, 4, 5)), check_4),
    ]


# ---------------------------------------------------------------------------
# field_orbits: the Q(q) orbit path


def _q_s():
    return tb.AlgBase.from_poly(Q_S_POLY, Fraction(17, 10), Fraction(9, 5))


def _frozen_base(row):
    return tb.AlgBase.from_poly(row["minpoly"], Fraction(row["lo"]), Fraction(row["hi"]))


def _field_orbits() -> list:
    unsupported = tb.UnsupportedBaseError
    refused = {"refused": "UnsupportedBaseError"}
    q_s_witness = REFERENCE["witness_pool"][0]
    ops = [
        Op("classify_base(q_s)", lambda: _refused(lambda: tb.classify_base(_q_s()), unsupported),
           lambda out: _expect(out == refused, f"expected a refusal, got {out}")),
        Op("dim_U(q_s)", lambda: [str(x) for x in tb.dim_U(_q_s())],
           lambda out: _expect(out == ["0", "0"], f"dim_U(q_s) = {out}, not (0, 0)")),
    ]
    for x, alpha in (("1(100)", "(1100010)"), ("110(100)", "(100000)")):
        ops.append(Op(
            f"count_expansions({x}, alpha:{alpha})",
            lambda x=x, alpha=alpha: _refused(lambda: tb.count_expansions(
                x, tb.base_from_alpha(tb.parse_epseq(alpha))), unsupported),
            lambda out: _expect(out == refused, f"expected a refusal, got {out}")))
    for i, row in enumerate(REFERENCE["alpha512"]):
        ops.append(Op(
            f"alpha_digits(enum_B2(2,4) root {i}, 512)",
            lambda row=row: tb.alpha_digits(_frozen_base(row), 512),
            lambda out, row=row: _expect(out == row["digits"], "alpha digits differ")))
    point = "1" + q_s_witness["c"]
    ops.append(Op(f"count_expansions({point}, q_s)",
                  lambda: repr(tb.count_expansions(point, _q_s(), cap=3)),
                  lambda out: _expect(out == "Exact(2)", f"{out} != Exact(2)")))
    return ops


# ---------------------------------------------------------------------------
# cli_queries: one closed-loop client issuing single-answer CLI requests

# Requests of each kind per run.  The seed draws arguments, never counts.
# The mix is synthetic: no record of real CLI use exists to base it on.  Cheap
# lookups outnumber certifications, and the counts were set by hand so that
# the 95th percentile falls inside one group of similar requests
# (witness --prop62 4, about the 10th to 15th slowest).  op_p95_ms therefore
# tracks that one request kind; a change to the latency of ladder or
# dim-bound requests alone shows in wall_s, and in op_p95_ms only when it
# moves them across that group.
CLI_KINDS = {"alpha": 60, "classify": 40, "count": 30, "solve": 40,
             "entropy": 30, "ladder": 18, "witness": 18, "dim-bound": 6}
# Thue-Morse prefix lengths whose periodic word is admissible; bases just
# above the Komornik-Loreti constant, used in turn.
DIM_BOUND_LENGTHS = (10, 12, 20, 24, 40)
DIM_BOUND_DELTAS = ("1/100000", "1/1000000", "1/10000000")


def _parry_word(rng, lo: int, hi: int) -> str:
    while True:
        w = "1" + "".join(rng.choice("01") for _ in range(rng.randint(lo, hi) - 1))
        if oracles.is_parry_periodic(w):
            return w


def _poly_spec(row) -> str:
    return f"poly:[{','.join(map(str, row['minpoly']))}]@[{row['lo']},{row['hi']}]"


def cli_requests(seed: int) -> list:
    """The request list of one cli_queries run: (kind, argv, meta) triples,
    where meta carries what the answer check needs.  Same seed, same list."""
    rng = random.Random(seed)
    witnesses = REFERENCE["witness_pool"]
    reqs = []
    for _ in range(CLI_KINDS["alpha"]):
        w = _parry_word(rng, 2, 9)
        n = rng.randint(16, 64)
        reqs.append(("alpha", ["alpha", f"alpha:({w})", "--digits", str(n)],
                     {"word": w, "digits": n}))
    for _ in range(CLI_KINDS["classify"]):
        w = _parry_word(rng, 3, 10)
        reqs.append(("classify", ["--precision", str(rng.randint(10, 30)),
                                  "classify", f"alpha:({w})"], {"word": w}))
    enumerated = [row for row in witnesses if row["source"].startswith("enum_B2")]
    for row in rng.sample(enumerated, CLI_KINDS["count"]):
        reqs.append(("count", ["--format", "plain", "count", "--x", "1" + row["c"],
                               "--base", _poly_spec(row)], {}))
    half = CLI_KINDS["solve"] // 2
    for row in rng.sample(witnesses, half):
        reqs.append(("solve", ["--format", "plain", "--precision", str(rng.randint(12, 20)),
                               "solve", "--c", row["c"], "--d", row["d"],
                               "--lo", row["solve_lo"], "--hi", row["solve_hi"]],
                     {"c": row["c"], "d": row["d"], "decimal": row["decimal"]}))
    for row in rng.sample(REFERENCE["tail_pool"], CLI_KINDS["solve"] - half):
        reqs.append(("solve", ["--format", "plain", "--precision", str(rng.randint(12, 20)),
                               "solve", "--c", row["c"], "--d", row["d"],
                               "--lo", "3/2", "--hi", "2"],
                     {"c": row["c"], "d": row["d"], "decimal": row["decimal"]}))
    for _ in range(CLI_KINDS["entropy"]):
        w = _parry_word(rng, 3, 8)
        reqs.append(("entropy", ["--precision", str(rng.randint(10, 30)),
                                 "entropy", f"alpha:({w})"], {"word": w}))
    for i in range(CLI_KINDS["ladder"]):
        k = 1 + i % 6
        reqs.append(("ladder", ["--format", rng.choice(("csv", "json")),
                                "--precision", str(rng.randint(10, 30)),
                                "ladder", "--gen", "0", "--N", str(k)], {"N": k}))
    for i in range(CLI_KINDS["witness"]):
        n = 2 + i % 3
        reqs.append(("witness", ["--precision", str(rng.randint(10, 30)),
                                 "witness", "--gen", "0", "--prop62", str(n)], {"n": n}))
    for i in range(CLI_KINDS["dim-bound"]):
        L = DIM_BOUND_LENGTHS[i % len(DIM_BOUND_LENGTHS)]
        reqs.append(("dim-bound", ["--format", "plain", "--precision", str(rng.randint(10, 20)),
                                   "dim-bound", "--delta", rng.choice(DIM_BOUND_DELTAS),
                                   f"alpha:({oracles.thue_morse(L)})"], {}))
    rng.shuffle(reqs)
    return reqs


def _run_cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tb.cli.run(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _cli_op(req) -> Op:
    kind, argv, meta = req
    checker = _CLI_CHECKS[kind]

    def check(out):
        if out.get("rc") != 0:
            return [f"{kind}: exit {out.get('rc')}: {out.get('err', out)!r}"[:300]]
        return checker(argv, meta, out["out"])

    return Op(f"{kind} {' '.join(argv)}", lambda: _run_cli(argv), check)


def _check_alpha(argv, meta, text):
    w, n = meta["word"], meta["digits"]
    want = (w * (n // len(w) + 1))[:n]
    return _expect(text.strip() == want, f"alpha digits {text.strip()} != {want}")


def _check_classify(argv, meta, text):
    got = json.loads(text)["class"]
    want = oracles.classify_periodic(meta["word"])
    return _expect(got == want, f"class {got} != {want} for ({meta['word']})")


def _check_count(argv, meta, text):
    return _expect(text.strip() == "Exact(2)", f"count {text.strip()} != Exact(2)")


def _check_solve(argv, meta, text):
    x = text.strip()
    c, d = meta["c"], meta["d"]
    return (_expect(oracles.decimal_brackets_root(lambda q: oracles.defect(c, d, q), x),
                    f"defect of ({c}, {d}) has no sign change across {x}")
            + _expect(abs(Fraction(x) - Fraction(meta["decimal"])) <= Fraction(1, 10 ** 12),
                      f"root {x} differs from frozen {meta['decimal']}"))


ENTROPY_WORD_LENGTH = 9


def _check_entropy(argv, meta, text):
    w = meta["word"]
    out = json.loads(text)
    lower, upper = (Fraction(s) for s in out["entropy_log"])
    digits = (w * (ENTROPY_WORD_LENGTH // len(w) + 1))[:ENTROPY_WORD_LENGTH]
    brute = [oracles.count_alive_words(digits, n) for n in range(1, ENTROPY_WORD_LENGTH + 1)]
    aut = tb.uq_automaton(tb.EPSeq("", w))
    return (_expect(lower <= upper, "entropy enclosure is empty")
            + _expect(oracles.log_count_bound(brute, lower),
                      f"entropy lower bound {float(lower)} above log(W_n)/n")
            + _expect(tb.path_counts(aut, ENTROPY_WORD_LENGTH) == brute,
                      f"path counts of ({w}) differ from the exhaustive count"))


def _check_ladder(argv, meta, text):
    if argv[1] == "json":
        rows = [(e["n"], e["root"], e["alpha"], e["beta_word"], e["minpoly"])
                for e in json.loads(text)]
    else:
        rows = [(int(n), root, alpha, beta, [int(c) for c in poly.split()])
                for n, root, alpha, beta, poly in
                (line.split(",") for line in text.strip().splitlines()[1:])]
    problems = _expect(len(rows) == meta["N"], f"{len(rows)} ladder rows, not {meta['N']}")
    for n, root, alpha, beta, poly in rows:
        tm = oracles.thue_morse(2 ** n)
        problems += _expect(beta == tm, f"q_{n} beta word")
        problems += _expect(alpha == f"({tm[:-1]}0)", f"q_{n} alpha")
        problems += _expect(poly == REFERENCE["ladder_minpolys"][n - 1], f"q_{n} minpoly")
        problems += _expect(oracles.decimal_brackets_root(
            lambda x, p=poly: oracles.horner(p, x), root), f"q_{n} root digits")
    return problems


def _check_witness(argv, meta, text):
    out = json.loads(text)
    ref = REFERENCE["prop62"][meta["n"] - 2]
    return (_expect(out.get("admissible") is True, "witness not admissible")
            + _expect(out.get("minpoly") == ref["minpoly"], "witness minpoly differs")
            + _expect((out.get("sign_at_qn"), out.get("sign_at_qn1")) == (-1, 1),
                      "defect signs at the ladder ends are not (-1, 1)")
            + _expect("root" in out and oracles.decimal_brackets_root(
                lambda x: oracles.horner(ref["minpoly"], x), out["root"]),
                "witness root digits"))


def _check_dim_bound(argv, meta, text):
    parts = text.split()
    if len(parts) != 3:
        return [f"dim-bound output {text!r}"]
    lo, hi = Fraction(parts[0]), Fraction(parts[1])
    return _expect(0 <= lo <= hi < 1 and parts[2] == "below-one",
                   f"dim-bound {text.strip()} not certified below one")


_CLI_CHECKS = {"alpha": _check_alpha, "classify": _check_classify, "count": _check_count,
               "solve": _check_solve, "entropy": _check_entropy, "ladder": _check_ladder,
               "witness": _check_witness, "dim-bound": _check_dim_bound}
