"""Benchmark entry point for twobases.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: derived_scan, cli_queries,
field_orbits (see README.md).

--trace 0 measures the end-to-end metrics.  Set-up time is taken from
SETUP_PROBES fresh interpreters that import the library and load sympy.
Then PASSES whole passes of the workload run, each in a fresh interpreter
(worker.py).  The number of passes is fixed whatever the library's speed, so
every commit is summarised by the same statistic; S is the nominal length of
the measured phase and does not change the work.

Every timing is at the reference speed of speed.py: divided by the
machine's slowdown sampled while it ran.  wall_s is the lowest over the
passes, and so is each operation's latency before the percentiles are
taken: other load on a shared machine only ever slows a pass down.
peak_rss_mb is the median over passes and setup_s the median probe.

--trace 1 runs one untraced and one traced pass, checks that their answers
match byte for byte, and reports the per-layer metrics of the traced pass
and the tracing overhead (traced over untraced wall time).

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 0 means the
run completed, whatever its answers; 2 means the program to measure is not
there; 1 means a pass crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("derived_scan", "cli_queries", "field_orbits")
SETUP_PROBES = 5
PASSES = 2
PASS_TIMEOUT_S = 160
PYTHONHASHSEED = "0"


class PassFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker_argv(*args) -> list:
    return [sys.executable, str(HERE / "worker.py"), *args]


def setup_probe(probe: speed.SpeedProbe) -> tuple:
    """Seconds from starting a fresh interpreter until the library and
    sympy are loaded and ready: at the reference speed, and raw."""
    before = probe.slowdown()
    t0 = time.perf_counter()
    with subprocess.Popen(_worker_argv("--setup-probe"), cwd=ROOT, env=_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=PASS_TIMEOUT_S)
    if line.strip() != "ready" or rc != 0:
        raise PassFailed(f"set-up probe exited {rc}")
    return elapsed / ((before + probe.slowdown()) / 2), elapsed


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """One pass in a fresh interpreter; the worker's result."""
    argv = _worker_argv("--workload", workload, "--seed", str(seed), "--trace", str(int(trace)))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise PassFailed(f"{workload} pass exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(name: str, value: float) -> dict:
    unit = {m[0]: m[1] for m in metrics.END_TO_END}.get(name) or metrics.layer_unit(name)
    return {"value": value, "unit": unit}


def _pass_line(p: dict) -> str:
    slow = p["slowdowns"]
    return (f"wall {p['wall_s']:.3f} s ({p['raw_wall_s']:.3f} s raw, slowdown median "
            f"{statistics.median(slow):.2f}, {min(slow):.2f}-{max(slow):.2f} over "
            f"{len(slow)} samples), cpu/wall {p['cpu_s'] / p['loop_s']:.3f}")


def measure(workload: str, seed: int, seconds: int) -> tuple:
    probe = speed.SpeedProbe()
    setups, raw_setups = zip(*(setup_probe(probe) for _ in range(SETUP_PROBES)))
    t0 = time.perf_counter()
    passes = [run_pass(workload, seed, False) for _ in range(PASSES)]
    measured = time.perf_counter() - t0
    # Other load on a shared machine only ever slows a pass down, so each
    # timing keeps its lowest reading over the passes.
    ops_ms = [min(times) * 1000 for times in zip(*(p["op_s"] for p in passes))]
    raw_ms = [min(times) * 1000 for times in zip(*(p["raw_op_s"] for p in passes))]
    values = {
        "wall_s": min(p["wall_s"] for p in passes),
        "op_p50_ms": _percentile(ops_ms, 50),
        "op_p95_ms": _percentile(ops_ms, 95),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {workload} seed {seed}: {len(passes)} passes in {measured:.1f} s "
          f"(nominal {seconds} s), {len(ops_ms)} operations timed")
    for p in passes:
        print(f"  pass: {_pass_line(p)}, {p['attempted']} ops, {p['failed']} failed")
    print(f"  op latency samples: {len(ops_ms)} "
          f"({sum(1 for x in ops_ms if x > values['op_p95_ms'])} beyond p95)")
    print(f"  setup probes (s): {', '.join(f'{s:.3f}' for s in setups)} "
          f"(raw {', '.join(f'{s:.3f}' for s in raw_setups)})")
    print("  raw " + json.dumps({
        "wall_s": min(p["raw_wall_s"] for p in passes), "op_p50_ms": _percentile(raw_ms, 50),
        "op_p95_ms": _percentile(raw_ms, 95), "setup_s": statistics.median(raw_setups)}))
    print(f"  fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    return values, attempted, failed, passes, True


def measure_traced(workload: str, seed: int) -> tuple:
    plain = run_pass(workload, seed, False)
    traced = run_pass(workload, seed, True)
    same = plain["outputs"] == traced["outputs"]
    values = dict(traced["layers"])
    values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    print(f"workload {workload} seed {seed}: traced run")
    print(f"  untraced: {_pass_line(plain)}")
    print(f"  traced: {_pass_line(traced)}")
    print(f"  overhead {values['trace.overhead']:.3f}x, {traced['layers']['trace.spans']} spans")
    print(f"  traced answers {'match' if same else 'DIFFER FROM'} the untraced answers "
          f"byte for byte ({len(plain['outputs'])} bytes)")
    print("  top self time (span, calls, self s):")
    for name, calls, self_s in traced["top_self_s"]:
        print(f"    {name:40s} {calls:9d} {self_s:9.3f}")
    passes = [plain, traced]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"  fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    return values, attempted, failed, passes, same


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "twobases" / "__init__.py").is_file():
        print(f"error: no twobases sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            values, attempted, failed, passes, same = measure_traced(args.workload, args.seed)
            names = metrics.LAYER_METRICS
        else:
            values, attempted, failed, passes, same = measure(args.workload, args.seed,
                                                              args.seconds)
            names = [m[0] for m in metrics.END_TO_END]
    except PassFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    env = dict(passes[0]["env"], commit=_commit(), nproc=os.cpu_count())
    print("env " + json.dumps(env, sort_keys=True))
    for p in passes:
        for f in p["failures"]:
            print(f"FAILED {f['op']}: {'; '.join(f['problems'])}"[:500])
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric(name, values[name]) for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
