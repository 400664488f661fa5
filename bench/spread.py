"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--out FILE] [workload ...]

Runs the benchmark command from BENCHMARK.json once per seed on each
workload (serially), then reports, per metric, the median, the quartiles
from statistics.quantiles(values, n=4), and their distance as a share of
the median next to the metric's bound.  Prints one JSON object; --out also
writes it to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    machine = json.loads(lines[0])["machine"]
    return {"machine": machine, "result": json.loads(lines[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for name in names:
        runs = [run_once(spec, name, args.first_seed + i) for i in range(args.runs)]
        report["machine"] = runs[0]["machine"]
        rows = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median, "bound": bound, "values": values}
        report["workloads"][name] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "metrics": rows,
        }
        for metric, row in rows.items():
            print(f"{name:9s} {metric:13s} median {row['median']:12.4f} "
                  f"spread {row['spread']:.3f} bound {row['bound']}", file=sys.stderr)
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
