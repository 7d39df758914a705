"""Batch command line for the library: every operation behind one entry
point, with deterministic output suitable for scripting.

Numbers are printed from certified brackets only, so a digit never claims
more than the interval supports.  Rational inputs are p/q strings; floats
are never parsed.  Output goes to stdout; notes and errors to stderr.

Exit codes: 0 success, 2 domain error, 3 nothing found within the stated
bounds, 64 malformed usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .bases import AlgBase, alpha_digits, base_from_alpha, _dec_str
from .b2core import solve_qcd, witness_for_V_base
from .classify import classify_base, count_expansions, _first_fails, _tag_from_fails
from .dimension import b2_local_bound, entropy, _dim_of
from .enum_b2 import enum_B2, min_derived, prop62_witness, qn_ladder
from .errors import DomainError, NotFoundWithinBoundsError
from .words import ComponentSpec, check_generator, parse_epseq

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational: {text!r}")


def _parse_base(spec: str) -> AlgBase:
    """poly:[c0,..,1]@[lo,hi] with ascending integer coefficients, or
    alpha:SEQ with SEQ in pre(per) text form, or a bare rational."""
    if spec.startswith("poly:"):
        body = spec[len("poly:"):]
        if "@" not in body:
            raise DomainError("poly base-spec needs @[lo,hi]")
        ctext, btext = body.split("@", 1)
        for part in (ctext, btext):
            if not (part.startswith("[") and part.endswith("]")):
                raise DomainError(f"malformed base-spec list {part!r}")
        try:
            coeffs = [int(t) for t in ctext[1:-1].split(",") if t.strip()]
        except ValueError:
            raise DomainError(f"poly coefficients must be integers: {ctext!r}") from None
        ends = btext[1:-1].split(",")
        if len(ends) != 2:
            raise DomainError(f"poly bracket needs exactly two ends: {btext!r}")
        return AlgBase.from_poly(coeffs, _rat(ends[0]), _rat(ends[1]))
    if spec.startswith("alpha:"):
        return base_from_alpha(parse_epseq(spec[len("alpha:"):]))
    return AlgBase.from_rational(_rat(spec))


def _parse_point(text: str):
    """A point to expand: a 0/1 sequence in EPSeq text form (left to the
    counter to evaluate in its base), or a rational p/q."""
    if any(ch in text for ch in "()*") or (text and set(text) <= {"0", "1"}):
        return text
    return _rat(text)


def _dec_outward(lo: Fraction, hi: Fraction, digits: int) -> list:
    """Decimal ends of [lo, hi], rounded outward."""
    return [_dec_str(lo, digits, math.floor), _dec_str(hi, digits, math.ceil)]


def _enclosure(lo: Fraction, hi: Fraction, digits: int) -> dict:
    return {"dec": _dec_outward(lo, hi, digits), "exact": [str(lo), str(hi)]}


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _emit_csv(header, rows) -> None:
    import csv

    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def _component(gen: str) -> ComponentSpec:
    if not check_generator(gen):
        raise DomainError(f"{gen!r} does not generate a component")
    return ComponentSpec(gen)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_alpha(args) -> int:
    q = _parse_base(args.base)
    digits = alpha_digits(q, args.digits)
    if (args.format or "plain") == "json":
        _emit_json({"base": q.to_json(args.precision), "alpha_digits": digits})
    else:
        print(digits)
    return 0


def _cmd_classify(args) -> int:
    q = _parse_base(args.base)
    if args.probable_depth:
        out = _probable_classify(q, args.probable_depth)
    else:
        out = classify_base(q, max_steps=max(args.depth, 64) * 64).to_json()
    if (args.format or "json") == "plain":
        print(out["class"])
    else:
        out["base"] = q.to_json(args.precision)
        _emit_json(out)
    return 0


def _probable_classify(q: AlgBase, depth: int) -> dict:
    """Depth-bounded verdict from a finite alpha prefix; never certified.
    Window ties count against the strict conditions only.  Only the shifts
    n <= depth / 2 are tested, so that every tail compared keeps at least
    half the prefix: a tie between a few end digits says nothing about
    the sequences."""
    def order(x, y):
        return (x > y) - (x < y)

    w = alpha_digits(q, depth)
    rw = w.translate(str.maketrans("01", "10"))
    # the n-th tail against the prefixes of alpha and of its reflection of
    # the same length
    fails = _first_fails((order(w[n:], w[:-n]), order(rw[:-n], w[n:]))
                         for n in range(1, len(w) // 2 + 1))
    return {"class": _tag_from_fails(fails).value, "probable": True,
            "depth": depth, "note": "finite-prefix verdict, not certified"}


def _cmd_omega(args) -> int:
    comp = _component(args.gen)
    w = comp.omega(args.n)
    if (args.format or "plain") == "json":
        _emit_json({"gen": args.gen, "n": args.n, "omega": w})
    else:
        print(w)
    return 0


def _cmd_ladder(args) -> int:
    comp = _component(args.gen)
    entries = qn_ladder(comp, args.N)
    fmt = args.format or "csv"
    if fmt == "json":
        _emit_json([
            {"n": e.n, "root": e.base.decimal(args.precision),
             "minpoly": list(e.base.minpoly()), "alpha": str(e.alpha),
             "beta_word": e.beta_word}
            for e in entries
        ])
    else:
        _emit_csv(["n", "root", "alpha", "beta_word", "minpoly"],
                  [[e.n, e.base.decimal(args.precision), str(e.alpha),
                    e.beta_word, " ".join(map(str, e.base.minpoly()))]
                   for e in entries])
    return 0


def _cmd_solve(args) -> int:
    c, d = parse_epseq(args.c), parse_epseq(args.d)
    root = solve_qcd(c, d, _rat(args.lo), _rat(args.hi))
    if root is None:
        raise NotFoundWithinBoundsError(
            "no defect-function root in the given interval")
    if (args.format or "json") == "plain":
        print(root.decimal(args.precision))
    else:
        _emit_json({"c": args.c, "d": args.d, "root": root.decimal(args.precision),
                    "minpoly": list(root.minpoly())})
    return 0


def _cmd_enum_b2(args) -> int:
    jmax = args.jmax_sub if args.jmax_sub is not None else args.jmax
    witnesses = enum_B2(args.n, jmax)
    note = (f"complete only for representation vectors with every "
            f"j <= {jmax}; larger j values exist")
    fmt = args.format or "csv"
    if fmt == "json":
        _emit_json({"n": args.n, "jmax": jmax, "jmax_bound_note": note,
                    "witnesses": [w.to_json(args.precision) for w in witnesses]})
    else:
        print(f"note: {note}", file=sys.stderr)
        _emit_csv(["root", "c", "d", "minpoly", "admissible"],
                  [[w.root.decimal(args.precision), str(w.c), str(w.d),
                    " ".join(map(str, w.minpoly)), int(w.admissible)]
                   for w in witnesses])
    return 0


def _cmd_derived(args) -> int:
    root = min_derived(args.min, args.jmax, args.nmax)
    if (args.format or "json") == "plain":
        print(root.decimal(args.precision))
    else:
        _emit_json({"j": args.min, "jmax": args.jmax, "nmax": args.nmax,
                    "root": root.decimal(args.precision),
                    "minpoly": list(root.minpoly())})
    return 0


def _cmd_entropy(args) -> int:
    q = _parse_base(args.base)
    ent = entropy(q, nmax=max(args.nmax, 4))
    lo, hi = _dim_of(q, ent)
    log_dec = _dec_outward(ent.lower, ent.upper, args.precision)
    if (args.format or "json") == "plain":
        print(*log_dec)
    else:
        out = ent.to_json()
        out["base"] = q.to_json(args.precision)
        out["entropy_log_dec"] = log_dec
        out["dim"] = [str(lo), str(hi)]
        out["dim_dec"] = _dec_outward(lo, hi, args.precision)
        _emit_json(out)
    return 0


def _cmd_dim_bound(args) -> int:
    q = _parse_base(args.base)
    delta = _rat(args.delta)
    lo, hi = b2_local_bound(q, delta, nmax=max(args.nmax, 4))
    certified = bool(hi < 1)
    bound = _enclosure(lo, hi, args.precision)
    if (args.format or "json") == "plain":
        print(*bound["dec"], "below-one" if certified else "inconclusive")
    else:
        _emit_json({"base": q.to_json(args.precision), "delta": str(delta),
                    "bound": bound, "certified_below_one": certified})
    return 0


def _cmd_count(args) -> int:
    q = _parse_base(args.base)
    x = _parse_point(args.x)
    res = count_expansions(x, q, cap=args.cap)
    if (args.format or "json") == "plain":
        print(repr(res))
    else:
        _emit_json({"x": args.x, "base": q.to_json(args.precision), "cap": args.cap,
                    "count": res.value, "exact": res.exact, "display": repr(res)})
    return 0


def _cmd_witness(args) -> int:
    comp = _component(args.gen)
    if args.prop62 is not None:
        n = args.prop62
        c, d, w, s_n, s_n1 = prop62_witness(comp.generator, n)
        out = {"gen": args.gen, "n": n, "c": str(c), "d": str(d),
               "sign_at_qn": s_n, "sign_at_qn1": s_n1}
        if w is not None:
            out["root"] = w.root.decimal(args.precision)
            out["minpoly"] = list(w.minpoly)
            out["admissible"] = w.admissible
        if (args.format or "json") == "plain" and "root" in out:
            print(out["root"])
        else:
            _emit_json(out)
        return 0
    w = witness_for_V_base(args.gen)
    if (args.format or "json") == "plain":
        print(w.root.decimal(args.precision))
    else:
        _emit_json(w.to_json(args.precision))
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args leaves it unchanged,
    and it writes usage and errors to the sys.stderr of the moment."""
    p = _Parser(prog="twobases", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--precision", type=int, default=30,
                   help="decimal digits for printed roots (default 30)")
    p.add_argument("--jmax", type=int, default=6,
                   help="bound on representation-vector j entries (default 6)")
    p.add_argument("--nmax", type=int, default=6,
                   help="interval/word-length horizon (default 6)")
    p.add_argument("--depth", type=int, default=64,
                   help="exploration depth for iterative searches (default 64)")
    p.add_argument("--format", choices=["json", "csv", "plain"], default=None,
                   help="output format (default depends on the subcommand)")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("alpha", help="quasi-greedy expansion digits of 1")
    s.add_argument("base")
    s.add_argument("--digits", type=int, default=16)
    s.set_defaults(fn=_cmd_alpha)

    s = sub.add_parser("classify", help="place a base among U, closure(U), V")
    s.add_argument("base")
    s.add_argument("--probable-depth", type=int, default=0,
                   help="depth-bounded verdict when alpha never cycles")
    s.set_defaults(fn=_cmd_classify)

    s = sub.add_parser("omega", help="generator ladder word")
    s.add_argument("--gen", required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(fn=_cmd_omega)

    s = sub.add_parser("ladder", help="accumulation ladder bases of a component")
    s.add_argument("--gen", required=True)
    s.add_argument("--N", type=int, required=True)
    s.set_defaults(fn=_cmd_ladder)

    s = sub.add_parser("solve", help="root of the defect function of (c, d)")
    s.add_argument("--c", required=True)
    s.add_argument("--d", required=True)
    s.add_argument("--lo", required=True)
    s.add_argument("--hi", required=True)
    s.set_defaults(fn=_cmd_solve)

    s = sub.add_parser("enum-b2", help="two-expansion bases in ladder interval n")
    s.add_argument("--n", type=int, required=True)
    # distinct dest: a subparser default would clobber the global --jmax
    s.add_argument("--jmax", type=int, default=None, dest="jmax_sub")
    s.set_defaults(fn=_cmd_enum_b2)

    s = sub.add_parser("derived", help="least base of derived-set order >= j")
    s.add_argument("--min", type=int, required=True)
    s.set_defaults(fn=_cmd_derived)

    s = sub.add_parser("entropy", help="unique-expansion entropy and dimension")
    s.add_argument("base")
    s.set_defaults(fn=_cmd_entropy)

    s = sub.add_parser("dim-bound", help="local dimension bound for the spectrum")
    s.add_argument("base")
    s.add_argument("--delta", required=True)
    s.set_defaults(fn=_cmd_dim_bound)

    s = sub.add_parser("count", help="number of expansions of a point")
    s.add_argument("--x", required=True)
    s.add_argument("--base", required=True)
    s.add_argument("--cap", type=int, default=3)
    s.set_defaults(fn=_cmd_count)

    s = sub.add_parser("witness", help="certified two-expansion witnesses")
    s.add_argument("--gen", required=True)
    s.add_argument("--prop62", type=int, default=None)
    s.set_defaults(fn=_cmd_witness)
    return p


def run(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if ns.precision < 8 or ns.jmax < 1 or ns.nmax < 1 or ns.depth < 1:
        print("error: precision >= 8, jmax/nmax/depth >= 1 required",
              file=sys.stderr)
        return 64
    try:
        return ns.fn(ns)
    except NotFoundWithinBoundsError as e:
        print(f"not found: {e}", file=sys.stderr)
        return 3
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
