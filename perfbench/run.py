"""iterqe benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {interact,remote} --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source tree; the program is imported from ``src/``
of that tree and nowhere else. Inputs are generated from ``--seed`` under
``.perfbench_work/`` and removed afterwards. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs both workloads, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("interact", "remote")


def _import_program() -> None:
    """Import iterqe from this tree's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "iterqe", "__init__.py")):
        sys.exit(f"error: no iterqe sources under {SRC}")
    sys.path.insert(0, SRC)
    import iterqe

    if os.path.dirname(os.path.dirname(os.path.abspath(iterqe.__file__))) != SRC:
        sys.exit(f"error: imported iterqe from {iterqe.__file__}, not from {SRC}")


def _machine(seed: int) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(), "seed": seed}


def _report(name: str, outcome, sizes: dict, trace: bool) -> dict:
    from workloads import median, p90

    print(f"workload {name} sizes {json.dumps(sizes, sort_keys=True)}")
    for note in outcome.notes:
        print(note)
    for problem in outcome.checks_failed:
        print(f"CHECK FAILED {problem}")
    if not trace:
        for key, values in sorted(outcome.samples.items()):
            print(f"  samples {key:<18} n={len(values):<5} median={median(values):.6g} "
                  f"p90={p90(values):.6g}")
    for key, (value, unit) in sorted({**outcome.metrics, **outcome.layer_metrics}.items()):
        print(f"  {key:<34} {value:>16.6g} {unit}")
    metrics = outcome.layer_metrics if trace else outcome.metrics
    return {
        "correct": outcome.failed == 0 and not outcome.checks_failed and bool(metrics),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _run_one(args) -> int:
    _import_program()
    import gen
    import workloads

    machine = _machine(args.seed)
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        w = workloads.WORKLOADS[args.workload](work, args.seed, args.seconds, bool(args.trace))
        outcome = w.execute()
        result = _report(args.workload, outcome, gen.describe(w.inputs), bool(args.trace))
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="iterqe benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
