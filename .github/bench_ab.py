#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark: base checkout vs head checkout.

Usage:

    python3 .github/bench_ab.py <base-dir> <head-dir>

Both directories are full checkouts. For every workload that the head's
BENCHMARK.json declares, the script runs perfbench/run.py in five
alternating pairs (base first in even pairs, head first in odd ones) of
--seconds 5, with the same seed within a pair. It exits 1 when:

  - a head run is incorrect (non-zero exit, no result, or "correct": false);
  - a head run fails a larger share of its operations than the worst base
    run of that workload;
  - an end-to-end metric's head median is worse than the base median by
    more than its BENCHMARK.json bound, and every head run reads worse
    than every base run.

The second half of the last rule keeps run-to-run noise on a shared
machine from failing the job: a real regression moves every run.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SECONDS = 5


def run(checkout, workload, seed):
    """Runs one benchmark and returns its result dict, or None on failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        sys.stderr.write(proc.stderr)
        return None
    return result


def failed_share(result):
    attempted = result.get("attempted") or 0
    return (result.get("failed") or 0) / attempted if attempted else 0.0


def compare(workload, metric, base, head):
    """Returns an error message when head regressed on metric, else None."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    b_med, h_med = statistics.median(base), statistics.median(head)
    if better == "lower":
        beyond = h_med > b_med * (1 + bound)
        every_run_worse = min(head) > max(base)
    else:
        beyond = h_med < b_med * (1 - bound)
        every_run_worse = max(head) < min(base)
    ratio = h_med / b_med if b_med else float("nan")
    print(f"  {name:16s} base {b_med:12.4g}  head {h_med:12.4g}  head/base {ratio:6.3f}"
          f"  ({better} is better, bound {bound:.0%})")
    if beyond and every_run_worse:
        return (f"{workload}: {name} head median {h_med:.4g} vs base {b_med:.4g} "
                f"is worse by more than {bound:.0%}, and every head run is worse than every base run")
    return None


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    sys.stdout.reconfigure(line_buffering=True)  # progress shows as it happens
    base_dir, head_dir = (os.path.abspath(d) for d in sys.argv[1:])
    with open(os.path.join(head_dir, "BENCHMARK.json")) as f:
        spec = json.load(f)

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"{workload}: {PAIRS} pairs of {SECONDS}s runs")
        base_runs, head_runs = [], []
        for pair in range(PAIRS):
            seed = pair + 1
            order = [("base", base_dir), ("head", head_dir)]
            if pair % 2:
                order.reverse()
            for side, checkout in order:
                result = run(checkout, workload, seed)
                if side == "base":
                    if result is None or not result.get("correct"):
                        print(f"  warning: base run (seed {seed}) failed; left out of the comparison")
                    else:
                        base_runs.append(result)
                elif result is None or not result.get("correct"):
                    problems.append(f"{workload}: head run (seed {seed}) is incorrect")
                else:
                    head_runs.append(result)
        if not base_runs or not head_runs:
            continue

        worst_base = max(failed_share(r) for r in base_runs)
        for r in head_runs:
            if failed_share(r) > worst_base:
                problems.append(f"{workload}: a head run failed {failed_share(r):.2%} of its operations, "
                                f"the worst base run {worst_base:.2%}")

        for metric in spec["end_to_end"]:
            base = [r["metrics"][metric["name"]]["value"] for r in base_runs if metric["name"] in r["metrics"]]
            head = [r["metrics"][metric["name"]]["value"] for r in head_runs if metric["name"] in r["metrics"]]
            if len(base) != len(base_runs) or len(head) != len(head_runs):
                problems.append(f"{workload}: {metric['name']} missing from some runs")
                continue
            problem = compare(workload, metric, base, head)
            if problem:
                problems.append(problem)

    for p in problems:
        print("FAIL:", p)
    if problems:
        return 1
    print("no regression beyond the BENCHMARK.json bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
