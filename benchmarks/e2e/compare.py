"""Compare two sets of benchmark result files, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A1.json A2.json -- B1.json B2.json

A is the parent, B the change.  For every workload and end-to-end metric
of ``BENCHMARK.json`` it prints both medians, how far B's is from A's
(with A's median as the stated base), the bound, and a verdict:

``worse``       B's median is worse than A's by more than the bound;
``unresolved``  not worse, but the spread between runs of one side (the
                distance between its quartiles, as a share of its median)
                is wider than the bound, so "unchanged" cannot be
                claimed — unless every run of B reads better than every
                run of A;
``ok``          otherwise.

Exits non-zero only on a ``worse`` or when more steps failed in B than in A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(paths: Sequence[str]) -> List[Dict[str, Any]]:
    runs: List[Dict[str, Any]] = []
    for path in paths:
        with open(path) as handle:
            runs.extend(json.load(handle)["runs"])
    if not runs:
        raise SystemExit(f"no runs in {list(paths)}")
    return runs


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(ok|worse|unresolved, worsening)``; worsening is a share of A's
    median, positive when B is worse."""
    base = statistics.median(a)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(b) - base) / base
    if worsening > bound:
        return "worse", worsening
    all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", worsening
    return "ok", worsening


def failed_frac(runs: Sequence[Dict[str, Any]], workload: str) -> float:
    return max(run["workloads"][workload]["failed"]
               / run["workloads"][workload]["attempted"] for run in runs)


def compare(a_runs: Sequence[Dict[str, Any]], b_runs: Sequence[Dict[str, Any]],
            bench: Dict[str, Any]) -> int:
    """Print the table; return the exit code."""
    bad = 0
    print(f"{'workload':13s} {'metric':14s} {'A median':>11s} {'B median':>11s} "
          f"{'B vs A':>8s} {'bound':>6s} {'spread A/B':>13s}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a, b = ([run["workloads"][workload]["end_to_end"][name]["value"]
                     for run in runs] for runs in (a_runs, b_runs))
            status, worsening = verdict(a, b, spec["better"], spec["bound"])
            bad += status == "worse"
            print(f"{workload:13s} {name:14s} "
                  f"{statistics.median(a):11.4g} {statistics.median(b):11.4g} "
                  f"{worsening:+8.1%} {spec['bound']:6.0%} "
                  f"{spread(a):6.1%}/{spread(b):6.1%}  {status}"
                  f"  (base {statistics.median(a):.4g} {spec['unit']},"
                  f" n={len(a)}/{len(b)})")
        before, after = failed_frac(a_runs, workload), failed_frac(b_runs, workload)
        if after > before:
            bad += 1
            print(f"{workload:13s} failed steps rose: {before:.4f} -> {after:.4f}"
                  " of attempted  worse")
    print("'B vs A' is a share of A's median; positive means B lost")
    return 1 if bad else 0


def main(argv: Sequence[str]) -> int:
    if "--" in argv:
        cut = list(argv).index("--")
        a_paths, b_paths = argv[:cut], argv[cut + 1:]
    elif len(argv) == 2:
        a_paths, b_paths = argv[:1], argv[1:]
    else:
        a_paths = b_paths = []
    if not a_paths or not b_paths:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return compare(load_runs(a_paths), load_runs(b_paths), bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
