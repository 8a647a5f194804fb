"""Run every workload once and print its metrics by name and unit.

Usage (from the repository root):

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 (the default) this prints op_s, setup_s, peak_rss_mib and
fail_ratio for each workload; with --trace 1 the per-layer metrics, with
the full table that run.py prints for each traced run. Exits 1 if any
operation failed its output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    all_correct = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        report = json.loads(lines[-1])
        all_correct = all_correct and report["correct"]
        print(f"== {name} (seed {args.seed}, correct: {str(report['correct']).lower()})")
        if args.trace:
            print("\n".join(ln for ln in lines[:-1] if ln.startswith(("metric", "absent"))))
            continue
        for metric, entry in report["metrics"].items():
            print(f"{metric:<14} {entry['value']:.6g} {entry['unit']}")
        print(f"{'fail_ratio':<14} {report['failed'] / report['attempted']:.6g} "
              f"({report['failed']}/{report['attempted']} operations)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
