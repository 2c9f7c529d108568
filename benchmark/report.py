"""Run each workload untraced, then traced, and print every metric plus the
tracing overhead.  From the repository root:

    python3 benchmark/report.py --seed 1

The runs are sequential fresh processes, as the benchmark's load model asks.
The traced run makes a single pass, so the overhead is its time minus the
untraced run's sum of the calls' median passes; the untraced wall_s, the sum
of the calls' fastest passes, is printed beside it.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    overhead = []
    for workload in workloads.WORKLOADS:
        plain_lines, plain = run_once(workload, args.seed, seconds, 0)
        traced_lines, traced = run_once(workload, args.seed, seconds, 1)
        print("\n".join(plain_lines + traced_lines))
        wall = plain["metrics"]["wall_s"]["value"]
        median = float(re.search(r"median passes is ([\d.]+) s unscaled",
                                 "\n".join(plain_lines))[1])
        traced_wall = float(re.search(r"traced wall_s ([\d.]+) s", "\n".join(traced_lines))[1])
        correct = plain["correct"] and traced["correct"]
        overhead.append((workload, wall, median, traced_wall, correct))
    print(f"\n{'workload':14s} {'wall_s':>9s} {'median':>9s} {'traced':>9s} {'overhead':>9s}"
          "  correct")
    for workload, wall, median, traced_wall, correct in overhead:
        print(f"{workload:14s} {wall:9.3f} {median:9.3f} {traced_wall:9.3f} "
              f"{traced_wall - median:+9.3f}  {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
