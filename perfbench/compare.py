"""A/B comparison of two benchmark result sets.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --out FILE`` appends, one per run.  Run
the parent and the change as alternating pairs (parent, change, change,
parent, ...) with the same seeds and ``--seconds``; runs pair up by
workload, trace mode and seed, in file order.  One row per workload and metric gives
each side's median and quartiles, the share of pairs the change won (ties
count for neither side) and a verdict:

* ``improved`` - the change won at least 90% of the pairs and the medians
  differ by more than the parent's own quartile spread;
* ``no worse`` - the change's median is within the metric's bound of the
  parent's, and the parent's spread is within the bound too (or every run
  of the change beats every run of the parent);
* ``worse`` - the parent's spread is within the bound and the change's
  median is worse than the parent's by more than the bound;
* ``unresolved`` - anything else: the runs cannot tell.

Per-layer metrics have no bound, so they are ``improved``, ``worse``
(the mirror of improved) or ``unresolved``.

A gain does not count where more operations fail than at the parent: for
each workload on which the change has more failed runs or more failed
operations than the parent, a ``failed`` row is printed and the command
exits with 1.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def _load(path: str) -> Dict[Tuple[str, int, int], List[Dict[str, Any]]]:
    """Results by (workload, trace, seed), in file order."""
    runs: Dict[Tuple[str, int, int], List[Dict[str, Any]]] = defaultdict(list)
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        key = (record["workload"], record["trace"], record["seed"])
        runs[key].append(record["result"])
    return runs


def _failures(runs: Dict[Tuple[str, int, int], List[Dict[str, Any]]]
              ) -> Dict[str, Tuple[int, int]]:
    """(failed runs, failed operations) per workload."""
    failed: Dict[str, Tuple[int, int]] = defaultdict(lambda: (0, 0))
    for (workload, _trace, _seed), results in runs.items():
        for result in results:
            bad_runs, bad_ops = failed[workload]
            failed[workload] = (bad_runs + (not result["correct"]),
                                bad_ops + result["failed"])
    return failed


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], lower_is_better: bool,
            bound: Optional[float]) -> Tuple[str, float]:
    """(verdict, share of pairs won by the change) for paired runs."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    share = wins / len(parent)
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (p_med - c_med)  # positive: the change is better
    if share >= WIN_SHARE and gain > p_q3 - p_q1:
        return "improved", share
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if bound is None:
        if losses / len(parent) >= WIN_SHARE and -gain > p_q3 - p_q1:
            return "worse", share
        return "unresolved", share
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = (max(change) < min(parent) if lower_is_better
                  else min(change) > max(parent))
    allowed = bound * abs(p_med)
    if spread <= bound:
        if -gain > allowed:
            return "worse", share
        return "no worse", share
    if all_better:
        return "no worse", share
    return "unresolved", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = _load(args.parent), _load(args.change)
    by_row: Dict[Tuple[str, int, str], List[Tuple[float, float]]] = \
        defaultdict(list)
    for key in sorted(set(parent) & set(change)):
        workload, trace, _seed = key
        for p_run, c_run in zip(parent[key], change[key]):
            for name, metric in p_run["metrics"].items():
                if name in c_run["metrics"]:
                    by_row[(workload, trace, name)].append(
                        (metric["value"], c_run["metrics"][name]["value"]))
    if not by_row:
        print("no runs pair up (same workload, trace mode and seed)",
              file=sys.stderr)
        return 2
    print(f"{'workload':12s} {'metric':40s} {'n':>3s} "
          f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'won':>5s}  verdict")
    for (workload, trace, name), values in sorted(by_row.items()):
        metric = declared.get(name, {"better": "lower", "unit": ""})
        p_values = [p for p, _ in values]
        c_values = [c for _, c in values]
        result, share = verdict(p_values, c_values,
                                metric["better"] == "lower",
                                metric.get("bound"))
        p_q = "/".join(f"{v:.4g}" for v in _quartiles(p_values))
        c_q = "/".join(f"{v:.4g}" for v in _quartiles(c_values))
        print(f"{workload:12s} {name:40s} {len(values):3d} {p_q:>32s} "
              f"{c_q:>32s} {share:5.0%}  {result}")
    p_failed, c_failed = _failures(parent), _failures(change)
    worse = sorted(w for w in c_failed
                   if any(c > p for c, p in zip(c_failed[w], p_failed[w])))
    for workload in worse:
        (p_runs, p_ops), (c_runs, c_ops) = p_failed[workload], c_failed[workload]
        print(f"{workload:12s} {'failed runs / operations':40s} "
              f"{'':3s} {f'{p_runs} / {p_ops}':>32s} {f'{c_runs} / {c_ops}':>32s} "
              f"{'':5s}  failed")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
