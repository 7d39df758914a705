"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; a test keeps
the two in step.  Per-layer metrics come from a traced run: see tracer.py
for how spans are named and README.md for which end-to-end metric each one
should move.
"""

from __future__ import annotations

from tracer import MODULES

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)


def _layer_metrics() -> list:
    out = []

    def add(names, stats):
        for name in names:
            for stat in stats:
                out.append(f"{name}.{stat}")

    add(["polys.eval_at", "polys.factor_int"], ["calls", "self_s", "max_degree"])
    add(["polys.count_roots_halfopen"], ["calls", "self_s"])
    add(["polys.isolate_roots"], ["calls", "self_s", "hit_ratio"])
    add(["polys.mul", "polys.divmod_exact"], ["self_s"])
    add([f"bases.FieldElem.{m}" for m in ("mul", "inv", "sign")], ["calls", "self_s"])
    add(["bases.NumberField.reduce"], ["self_s"])
    add(["polys.interval_eval"], ["calls", "self_s"])
    add(["bases.AlgBase.refine", "bases.AlgBase.cmp"], ["calls", "self_s"])
    add(["bases.AlgBase.minpoly", "bases.AlgBase.decimal", "bases.alpha_digits",
         "bases.alpha_epseq", "bases.base_from_alpha"], ["self_s"])
    add(["bases.cmp_seq_alpha"], ["calls", "self_s"])
    add(["words.EPSeq", "words.lex_cmp"], ["calls", "self_s"])
    add(["words.eval_seq"], ["self_s"])
    add(["b2core.monotone_case"], ["calls", "iii_ratio"])
    add(["b2core.udiff_generate", "b2core.f_minpoly"], ["calls", "self_s"])
    add(["enum_b2.min_derived", "enum_b2.enum_B2", "enum_b2.qn_ladder"], ["self_s"])
    add(["enum_b2.repr_to_seq"], ["calls"])
    add(["classify.in_A_prime"], ["calls", "self_s", "true_ratio"])
    add(["b2core.f_eval"], ["calls", "self_s"])
    add(["b2core.solve_qcd", "b2core.certify_b2", "b2core.sign_at"], ["self_s"])
    add(["classify.count_expansions", "classify.classify_base"], ["self_s"])
    add(["classify.count_expansions"], ["calls"])
    add(["dimension.uq_automaton"], ["self_s", "max_states"])
    add([f"dimension.{f}" for f in ("path_counts", "entropy", "dim_U",
                                    "overapprox_pool", "b2_local_bound")], ["self_s"])
    add(["cli.run"], ["self_s"])
    add(list(MODULES), ["self_s"])
    out.append("trace.overhead")
    out.append("trace.spans")
    return out


LAYER_METRICS = tuple(_layer_metrics())

_UNITS = {"calls": "count", "self_s": "s", "max_degree": "degree",
          "max_states": "states", "hit_ratio": "ratio", "iii_ratio": "ratio",
          "true_ratio": "ratio", "overhead": "ratio", "spans": "count"}
_BETTER_HIGHER = {"hit_ratio", "true_ratio"}


def layer_unit(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def layer_better(name: str) -> str:
    return "higher" if name.rsplit(".", 1)[1] in _BETTER_HIGHER else "lower"


# -- hooks: sizes and ratios measured at the call ---------------------------


def _max_degree(stats, args, result):
    stats["max_degree"] = max(stats.get("max_degree", 0), len(args[0]) - 1)


def _count_if(key, pred):
    def hook(stats, args, result):
        stats[key] = stats.get(key, 0) + bool(pred(result))
    return hook


def _max_states(stats, args, result):
    stats["max_states"] = max(stats.get("max_states", 0), result.size)


def hooks(package) -> dict:
    iii = package.MonotoneCase.INCREASING_III
    return {
        "polys.eval_at": _max_degree,
        "polys.factor_int": _max_degree,
        "polys.isolate_roots": _count_if("hits", lambda r: r),
        "b2core.monotone_case": _count_if("iii", lambda r: r is iii),
        "classify.in_A_prime": _count_if("true", lambda r: r),
        "dimension.uq_automaton": _max_states,
    }


_RATIOS = {"hit_ratio": "hits", "iii_ratio": "iii", "true_ratio": "true"}


def layer_values(summary: dict) -> dict:
    """Every per-layer metric except trace.overhead from a tracer summary.
    A function never called reads 0."""
    values = {}
    for name in LAYER_METRICS:
        span, stat = name.rsplit(".", 1)
        if span == "trace":
            continue
        if span in MODULES:
            values[name] = sum(rec["self_s"] for key, rec in summary.items()
                               if key.split(".", 1)[0] == span)
            continue
        rec = summary.get(span, {})
        if stat in _RATIOS:
            calls = rec.get("calls", 0)
            values[name] = rec.get(_RATIOS[stat], 0) / calls if calls else 0.0
        else:
            values[name] = rec.get(stat, 0)
    return values
