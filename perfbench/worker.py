"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
    python3 perfbench/worker.py --setup-probe

run.py starts this with PYTHONHASHSEED fixed and src/ on PYTHONPATH.  The
pass runs in this one process and thread.  It prints one JSON line: the
timings, the answers, the answer checks made after the timed phase and, with
--trace 1, the per-layer summary of the spans.  --setup-probe only gets the
library ready and prints "ready", for timing set-up from outside.

While the operations run, the pass samples the machine's speed (speed.py);
the timings it reports are at the reference speed, with the raw ones beside
them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _peak_rss_mb() -> float:
    """Peak resident memory of this program image.  Unlike ru_maxrss, the
    kernel's VmHWM does not carry over the parent's peak across exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def get_ready():
    """Import the library and pay the one-time sympy load every CLI user
    pays: sympy is imported lazily by the first factorisation."""
    import twobases
    import twobases.cli  # noqa: F401

    if Path(twobases.__file__).resolve().parent != SRC / "twobases":
        raise SystemExit(f"twobases imported from {twobases.__file__}, not {SRC}")
    twobases.polys.factor_int((-1, -1, 1))
    return twobases


def check_outputs(ops, outputs) -> list:
    """The failed operations: those that raised an unexpected exception and
    those whose answer fails its check."""
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, dict) and "error" in out:
            problems = [out["error"]]
        else:
            try:
                problems = op.check(out)
            except Exception as e:  # a malformed answer fails its check
                problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            failures.append({"op": op.name, "problems": problems})
    return failures


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    import speed

    # The probe is built first, while peak RSS is still the current RSS, so
    # its memory can be taken out of the pass's peak.
    rss0 = _peak_rss_mb()
    probe = speed.SpeedProbe()
    probe_mb = _peak_rss_mb() - rss0
    tb = get_ready()
    import metrics
    import workloads
    from tracer import Tracer

    ops = workloads.build(workload, seed)
    tracer = Tracer(tb, metrics.hooks(tb)) if trace else None
    sampler = speed.Sampler(probe)
    outputs, spans = [], []
    if tracer:
        tracer.install()
    try:
        sampler.start()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # an unexpected error is a failed operation
                out = {"error": f"{type(e).__name__}: {e}"}
            spans.append((t0, time.perf_counter()))
            outputs.append(out)
        loop_s = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        sampler.stop()
        if tracer:
            tracer.restore()
    peak_rss_mb = _peak_rss_mb() - probe_mb
    op_s = [t1 - t0 for t0, t1 in spans]
    ref_op_s = [sampler.at_reference(t0, t1) for t0, t1 in spans]

    failures = check_outputs(ops, outputs)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "wall_s": sum(ref_op_s), "op_s": ref_op_s,
        "raw_wall_s": sum(op_s), "raw_op_s": op_s, "slowdowns": sampler.values,
        "loop_s": loop_s, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "probe_mb": probe_mb,
        "attempted": len(ops), "failed": len(failures), "failures": failures[:20],
        "outputs": json.dumps(outputs, sort_keys=True),
    }
    if tracer:
        summary = tracer.summary()
        layers = metrics.layer_values(summary)
        layers["trace.spans"] = tracer.span_count
        result["layers"] = layers
        top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:12]
        result["top_self_s"] = [[name, rec["calls"], rec["self_s"]] for name, rec in top]
    return result


def environment() -> dict:
    import mpmath
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"python": sys.version.split()[0], "sympy": sympy.__version__,
            "sympy_ground_types": GROUND_TYPES, "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED")}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        get_ready()
        print("ready", flush=True)
        return
    result = run_pass(args.workload, args.seed, bool(args.trace))
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
