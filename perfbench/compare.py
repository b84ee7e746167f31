#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them.

Usage, from the root of a checkout::

    python3 perfbench/compare.py --runs 10

Each set runs every workload of BENCHMARK.json ``--runs`` times, seeds
1 upwards, with ``--trace 0``.  For every workload and end-to-end
metric it prints each set's median and quartiles, the spread (quartile
distance over the median), the gap between the two medians (their
difference over the smaller one, so the order of the sets does not
matter) and whether the sets agree within the metric's bound: every
spread and the gap within the bound.  The share of failed operations
must be the same in both sets.  It also prints each set's median host
probe (see ``run.py``), which shows when the host itself changed speed
between the sets.  Raw results go to ``.perfbench/compare.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2


def _run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {done.returncode})")
    *_, record, result = done.stdout.strip().splitlines()
    result = json.loads(result)
    result["host_probe_ms"] = json.loads(record)["record"]["host_probe_ms"]
    return result


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    results = {w["name"]: [] for w in bench["workloads"]}
    for s in range(SETS):
        for workload, sets in results.items():
            runs = []
            for seed in range(1, args.runs + 1):
                runs.append(_run(workload, seed, bench["run_seconds"]))
                print(f"set {s + 1} {workload} seed {seed}: "
                      f"correct={runs[-1]['correct']}", file=sys.stderr)
            sets.append(runs)
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "compare.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    agree_all = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = {sum(r["failed"] for r in runs)
                  / sum(r["attempted"] for r in runs) for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  failed share per set: {sorted(shares)}  "
              f"all correct: {correct}")
        agree_all &= len(shares) == 1 and correct
        probes = [statistics.median(r["host_probe_ms"] for r in runs)
                  for runs in sets]
        print("  host probe median per set (ms, lower is faster): "
              + " | ".join(f"{p:.3f}" for p in probes))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, spreads = [], [], []
            for runs in sets:
                q1, med, q3 = _quartiles(
                    [r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                spreads.append((q3 - q1) / med)
                cells.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] "
                             f"{100 * spreads[-1]:5.1f}%")
            gap = (max(medians) - min(medians)) / min(medians)
            ok = max(spreads) <= bound and gap <= bound
            agree_all &= ok
            print(f"  {name:16s} bound {100 * bound:4.0f}%  "
                  + "  |  ".join(cells)
                  + f"  gap {100 * gap:5.1f}%  {'agree' if ok else 'DIFFER'}")
    print("\nall sets agree within bounds" if agree_all
          else "\nsets DIFFER beyond a bound")
    return 0 if agree_all else 1


if __name__ == "__main__":
    sys.exit(main())
