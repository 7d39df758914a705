"""Regenerate perfbench/reference.json, the frozen answers and argument pools
the benchmark checks against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/freeze.py

It takes about a minute.  The file it writes is committed; rerun it only when
a change to the library is meant to change an answer, and review the diff.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import twobases as tb  # noqa: E402
from twobases.errors import DomainError, NoRootByCaseError  # noqa: E402

# Width of the rational brackets written for frozen bases; any bracket that
# isolates the root works, a narrow one keeps every request cheap to parse.
BRACKET = Fraction(1, 10**12)
# Half-width of the `solve` brackets put around a witness root.
SOLVE_HALF = Fraction(1, 10**6)


def _bracket(root) -> tuple:
    lo, hi = root.bracket(BRACKET)
    return str(lo), str(hi)


def _solve_bracket(root) -> tuple:
    lo, hi = root.bracket(BRACKET)
    a = Fraction(int(lo / SOLVE_HALF) - 1) * SOLVE_HALF
    b = Fraction(int(hi / SOLVE_HALF) + 2) * SOLVE_HALF
    return a, b


def _witness_row(c, d, root, minpoly, source) -> dict:
    lo, hi = _bracket(root)
    slo, shi = _solve_bracket(root)
    check = tb.solve_qcd(c, d, slo, shi)
    if check is None or not check.same_value(root):
        raise RuntimeError(f"solve bracket does not isolate the root of {c}, {d}")
    count = tb.count_expansions(tb.prepend("1", c), root, cap=3)
    if count != tb.CountResult(2):
        raise RuntimeError(f"witness point 1{c} has {count!r} expansions")
    return {"source": source, "c": str(c), "d": str(d), "minpoly": list(minpoly),
            "lo": lo, "hi": hi, "solve_lo": str(slo), "solve_hi": str(shi),
            "decimal": root.decimal(20)}


def _random_tail(rng) -> tb.EPSeq:
    pre = "0" + "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
    per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
    return tb.EPSeq(pre, per)


def _tail_pool(size: int) -> list:
    """Random zero-leading tail pairs whose defect has exactly one root in
    [3/2, 2].  Pairs with none or several are invalid `solve` requests (exit
    3 or 2 by design), so they are left out of the pool."""
    rng = random.Random(20170502)
    out, seen = [], set()
    while len(out) < size:
        c, d = _random_tail(rng), _random_tail(rng)
        key = tuple(sorted((str(c), str(d))))
        if key in seen:
            continue
        seen.add(key)
        try:
            root = tb.solve_qcd(c, d, Fraction(3, 2), Fraction(2))
        except (DomainError, NoRootByCaseError):
            continue
        if root is None or root.exact_rational is not None:
            continue
        out.append({"c": str(c), "d": str(d), "decimal": root.decimal(20),
                    "degree": len(root.minpoly()) - 1})
    return out


def main() -> None:
    ref = {}
    table = tb.enum_B2(2, 4)
    ladder = tb.qn_ladder(tb.GEN0, 7)
    ref["ladder_minpolys"] = [list(e.base.minpoly()) for e in ladder]
    ref["ladder_decimals"] = [e.base.decimal(20) for e in ladder]
    prop = []
    for n in range(2, 6):
        c, d = tb.prop62_pair(tb.GEN0, n)
        lo = ladder[n - 1].base.bracket(BRACKET)[1]
        hi = ladder[n].base.bracket(BRACKET)[0]
        w = tb.certify_b2(c, d, lo, hi)
        prop.append({"n": n, "minpoly": list(w.minpoly), "admissible": w.admissible,
                     "decimal": w.root.decimal(20)})
    ref["prop62"] = prop
    md = tb.min_derived(4, 4, 5)
    ref["min_derived_4_4_5"] = {"minpoly": list(md.minpoly()), "decimal": md.decimal(20)}

    pool = []
    for w in tb.enum_B2(1, 6):
        pool.append(_witness_row(w.c, w.d, w.root, w.minpoly, "enum_B2(1,6)"))
    for w in table:
        pool.append(_witness_row(w.c, w.d, w.root, w.minpoly, "enum_B2(2,4)"))
    for n in range(2, 5):
        c, d = tb.prop62_pair(tb.GEN0, n)
        lo = ladder[n - 1].base.bracket(BRACKET)[1]
        hi = ladder[n].base.bracket(BRACKET)[0]
        w = tb.certify_b2(c, d, lo, hi)
        pool.append(_witness_row(c, d, w.root, w.minpoly, f"prop62_pair(GEN0,{n})"))
    ref["witness_pool"] = pool
    ref["tail_pool"] = _tail_pool(64)

    # two enum_B2(2,4) roots for the 512-digit alpha job: the least and the
    # greatest base of the interval
    alpha_roots = []
    for row in (ref["witness_pool"][2], ref["witness_pool"][2 + len(table) - 1]):
        q = tb.AlgBase.from_poly(row["minpoly"], Fraction(row["lo"]), Fraction(row["hi"]))
        alpha_roots.append({"minpoly": row["minpoly"], "lo": row["lo"], "hi": row["hi"],
                            "digits": tb.alpha_digits(q, 512)})
    ref["alpha512"] = alpha_roots

    path = HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
