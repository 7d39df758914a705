"""Tests of the benchmark itself: request generation, the tracer, the answer
checks, and agreement between BENCHMARK.json and the metric definitions.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import twobases as tb  # noqa: E402

import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import check_outputs  # noqa: E402


def test_same_seed_same_requests():
    assert workloads.cli_requests(7) == workloads.cli_requests(7)


def test_other_seed_other_arguments_same_kind_counts():
    a, b = workloads.cli_requests(1), workloads.cli_requests(2)
    assert a != b
    counts = Counter(kind for kind, _, _ in a)
    assert counts == Counter(kind for kind, _, _ in b) == Counter(workloads.CLI_KINDS)
    assert sum(counts.values()) >= 200


def _small_job():
    """A few fast calls that cross every layer the tracer rebinds by value."""
    out = [[list(w.minpoly), w.root.decimal(20)] for w in tb.enum_B2(1, 6)]
    q = tb.base_from_alpha(tb.EPSeq("", "1100"))
    x = q.as_field_elem()
    out.append(repr((2 * x * x).coeffs))
    out.append(tb.classify.is_univoque_seq(tb.parse_epseq("0(01)"), q))
    out.append(workloads._run_cli(["--format", "plain", "solve", "--c", "000(01)",
                                   "--d", "0(01)", "--lo", "17/10", "--hi", "9/5"]))
    return json.dumps(out, sort_keys=True)


def test_tracer_rebinds_restores_and_keeps_answers():
    fe_mul = tb.bases.FieldElem.__mul__
    in_a_prime = tb.classify.in_A_prime
    cmp_seq_alpha = tb.bases.cmp_seq_alpha
    f_minpoly = tb.b2core.f_minpoly
    before = _small_job()
    tracer = Tracer(tb, metrics.hooks(tb))
    tracer.install()
    try:
        # names imported by value into other modules, and aliased dunders
        assert tb.classify.cmp_seq_alpha is tb.bases.cmp_seq_alpha is not cmp_seq_alpha
        assert tb.b2core.in_A_prime is tb.classify.in_A_prime is tb.enum_b2.in_A_prime
        assert tb.classify.in_A_prime is not in_a_prime
        assert tb.enum_b2.f_minpoly is tb.b2core.f_minpoly is tb.f_minpoly is not f_minpoly
        assert tb.bases.FieldElem.__rmul__ is tb.bases.FieldElem.__mul__ is not fe_mul
        traced = _small_job()
    finally:
        tracer.restore()
    assert traced == before
    assert tracer.bindings == []
    assert tb.bases.FieldElem.__mul__ is fe_mul
    assert tb.bases.FieldElem.__rmul__ is fe_mul
    assert tb.classify.in_A_prime is in_a_prime is tb.b2core.in_A_prime
    assert tb.classify.cmp_seq_alpha is cmp_seq_alpha
    assert tb.enum_b2.f_minpoly is f_minpoly is tb.f_minpoly
    assert _small_job() == before


def test_tracer_restores_every_binding_it_made():
    tracer = Tracer(tb)
    tracer.install()
    made = tracer.bindings
    tracer.restore()
    assert len(made) > 100
    for ns, attr, orig in made:
        assert vars(ns)[attr] is orig, f"{ns}.{attr} not restored"


def test_spans_have_parents_and_self_time():
    tracer = Tracer(tb, metrics.hooks(tb))
    tracer.install()
    try:
        tb.enum_B2(1, 6)
    finally:
        tracer.restore()
    summary = tracer.summary()
    top = summary["enum_b2.enum_B2"]
    assert top["calls"] == 1
    assert 0 <= top["self_s"] < top["total_s"]
    assert summary["classify.in_A_prime"]["calls"] > 0
    assert summary["polys.factor_int"]["max_degree"] >= 4
    # every span but the outermost has an enclosing parent
    parents = list(tracer.span_parent)
    assert parents.count(-1) == 1
    for i, p in enumerate(parents):
        assert p < i
        if p >= 0:
            assert tracer.span_start[p] <= tracer.span_start[i]
            assert tracer.span_end[i] <= tracer.span_end[p]
    values = metrics.layer_values(summary)
    assert values["classify.in_A_prime.true_ratio"] > 0
    assert values["enum_b2.self_s"] > 0
    assert values["dimension.self_s"] == 0


def test_wrong_answer_counts_as_failure():
    ops = [op for op in workloads.build("cli_queries", 3) if op.name.startswith("alpha ")][:5]
    outputs = [op.run() for op in ops]
    assert check_outputs(ops, outputs) == []
    bad = [dict(out) for out in outputs]
    digits = bad[0]["out"].strip()
    bad[0]["out"] = digits[:-1] + ("0" if digits[-1] == "1" else "1") + "\n"
    bad[1] = {"error": "RuntimeError: boom"}
    failures = check_outputs(ops, bad)
    assert len(failures) == 2
    assert len(failures) / len(ops) > 0


def test_fixed_workload_checks_reject_wrong_answers():
    ops = {op.name: op for op in workloads.build("derived_scan", 0)}
    good = {"decimal": "1.75487766624669276005", "minpoly": [-1, 1, -2, 1]}
    assert ops["min_derived(2,6,5)"].check(good) == []
    assert ops["min_derived(2,6,5)"].check(dict(good, decimal="1.76987766624669276005"))
    assert ops["min_derived(2,6,5)"].check(dict(good, minpoly=[-1, -1, 1]))
    q_s = {"decimal": "1.71064409504503293599", "minpoly": [-1, -1, -2, 0, 1]}
    assert ops["enum_B2(1,6)"].check([q_s, good]) == []
    assert ops["enum_B2(1,6)"].check([good, q_s])
    assert ops["enum_B2(1,6)"].check([q_s])


def test_oracles_agree_with_known_values():
    assert oracles.is_parry_periodic("1100") and not oracles.is_parry_periodic("1101")
    assert oracles.classify_periodic("1") == "U"
    # defect of (000(01), 0(01)) changes sign across q_s
    assert oracles.decimal_brackets_root(
        lambda q: oracles.defect("000(01)", "0(01)", q), "1.710644095045")
    assert not oracles.decimal_brackets_root(
        lambda q: oracles.defect("000(01)", "0(01)", q), "1.710644095145")
    alpha = "1100" * 3
    assert [oracles.count_alive_words(alpha, n) for n in range(1, 10)] == \
        tb.path_counts(tb.uq_automaton(tb.EPSeq("", "1100")), 9)
    assert oracles.horner([-1, -1, 1], Fraction(2)) == 1


def test_timings_are_scaled_by_the_speed_sampled_during_them():
    sampler = speed.Sampler(None)
    sampler.starts, sampler.ends, sampler.values = [0.0, 1.0, 3.0], [0.1, 1.1, 3.1], [1.0, 2.0, 4.0]
    # holds the sample taken at 1.0, whose time is taken out
    assert sampler.at_reference(0.5, 2.5) == pytest.approx(1.9 / 2.0)
    # holds no sample: scaled by the mean of the samples around it
    assert sampler.at_reference(1.2, 1.4) == pytest.approx(0.2 / 3.0)


def test_sampler_brackets_the_operations_it_times():
    sampler = speed.Sampler(speed.SpeedProbe())
    sampler.start()
    t0 = time.perf_counter()
    sum(i * i for i in range(200000))
    t1 = time.perf_counter()
    sampler.stop()
    assert len(sampler.values) >= 2 and min(sampler.values) > 0
    assert sampler.at_reference(t0, t1) > 0


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) \
        == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(n, metrics.layer_unit(n), metrics.layer_better(n)) for n in metrics.LAYER_METRICS]
