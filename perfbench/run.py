"""The repository benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload again with every layer's public entry
points wrapped in spans and reports the per-layer metrics instead, writing
the spans to ``.perfbench/trace-<workload>-<seed>.json``.  Every metric is
printed by name with its unit; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Outputs are checked
(tables, served records and store contents); any failed check makes
``correct`` false and the exit code 1.  ``--out FILE`` appends the result,
with the environment it ran in, as one JSON line for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _clean_environment() -> None:
    """Drop every ``REPRO_*`` knob (store, workers, hosts, fault plan,
    warm-kernel toggle, codec) for this process and its children, and keep
    temporary files inside the checkout."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def _environment() -> dict:
    from repro.store import source_digest

    return {"source_digest": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the result as one JSON line to this file")
    args = parser.parse_args(argv)

    _clean_environment()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as workload_lib

    outcome = workload_lib.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace))
    if not args.trace:
        outcome.metrics["ok_share"] = (
            1.0 - outcome.failed / outcome.attempted if outcome.attempted else 0.0)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:  # a layer the workload never reaches reads 0
        values = {m["name"]: outcome.metrics.get(m["name"], 0.0)
                  for m in declared}
    else:  # every end-to-end metric is measured on every workload
        values = {m["name"]: outcome.metrics[m["name"]] for m in declared}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    undeclared = sorted(set(outcome.metrics) - set(metrics))
    if undeclared:
        outcome.notes.append(f"measured but not declared: {undeclared}")
    environment = _environment()
    if outcome.trace is not None:
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(outcome.trace), encoding="utf-8")
        outcome.notes.append(f"spans written to {trace_path.relative_to(ROOT)}")

    for note in outcome.notes:
        print(f"# {note}")
    print(f"# environment {json.dumps(environment, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:16.6f} {metric['unit']}")
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    if args.out:
        with open(args.out, "a", encoding="utf-8") as sink:
            sink.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "trace": args.trace,
                                   "environment": environment,
                                   "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
