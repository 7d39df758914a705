"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads derived_scan,cli_queries \
        --seeds 1-10 --seconds 20 --out perfbench/results/NAME.json

Runs perfbench/run.py once per workload and seed, one after another, and
reports for every metric the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next to
the metric's bound.  With --trace it makes traced runs instead and reports
the per-layer metrics.  --out writes every run's result, its printed report
(per-pass timings) and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BOUNDS = {name: bound for name, _unit, _better, bound in metrics.END_TO_END}


def _seeds(text: str) -> list:
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(int(args.trace))],
                cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
            runs.append({"seed": seed, "result": result, "env": env,
                         "report": [line for line in lines[:-1] if not line.startswith("env ")]})
            vals = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in BOUNDS)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {vals}", flush=True)
        names = list(runs[0]["result"]["metrics"])
        summary = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in names}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name in names:
            if name in BOUNDS:
                s = summary[name]
                print(f"  {workload} {name}: median {s['median']:.4g} "
                      f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f} "
                      f"(bound {BOUNDS[name]})", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
