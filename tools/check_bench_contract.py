#!/usr/bin/env python3
"""Result-line lint for the end-to-end benchmark (``BENCHMARK.json``).

Runs every declared workload the way a comparison run does, briefly::

    python3 benchmarks/e2e/run.py --workload W --seed 1 --quick --trace T

for ``T`` = 0 and 1, and fails when a run

* exits non-zero;
* ends stdout in a line that is not strict JSON (``NaN`` and
  ``Infinity`` are rejected, as a strict reader would);
* leaves out any of ``correct`` / ``attempted`` / ``failed`` /
  ``metrics``;
* reports a metric value that is null or not a finite number, unless
  the record the run wrote (``benchmarks/e2e/out/record_W*.json``)
  carries a ``note`` saying why for that metric.

A metric that silently turns null (a probe whose target moved, a unit
cost divided by zero plans) makes the whole result line unusable for
before/after comparison; this check catches it before a timed
comparison does.  Exit status is non-zero when any problem is found;
each problem is reported as ``workload/trace=T: message``.

    python tools/check_bench_contract.py
    python tools/check_bench_contract.py --workload exec_warm --trace 1
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN = REPO / "benchmarks" / "e2e" / "run.py"
OUT = REPO / "benchmarks" / "e2e" / "out"
REQUIRED = ("correct", "attempted", "failed", "metrics")
#: generous for one --quick run; the slowest (svc_process) takes ~10 s
TIMEOUT_S = 300.0


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def check_run(workload: str, trace: int) -> list[str]:
    """Run one workload once; return its problems (empty when clean)."""
    command = [
        sys.executable, str(RUN),
        "--workload", workload, "--seed", "1", "--quick", "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            command, cwd=REPO, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return [f"no result within {TIMEOUT_S:g} s"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return [f"exit status {proc.returncode}: {tail[0]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return ["printed no result line"]
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"last stdout line is not strict JSON: {exc}"]
    if not isinstance(result, dict):
        return ["last stdout line is not a JSON object"]
    missing = [key for key in REQUIRED if key not in result]
    if missing:
        return [f"result line lacks {', '.join(missing)}"]

    suffix = "_trace" if trace else ""
    try:
        record = json.loads((OUT / f"record_{workload}{suffix}.json").read_text())
        notes = {m["name"]: m.get("note") for m in record["metrics"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read the written record: {exc}"]
    problems = []
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        finite = (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
        )
        if not finite and not notes.get(name):
            problems.append(f"metric {name} is {value!r} with no note")
    return problems


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=[w["name"] for w in spec["workloads"]],
        help="workload to check (repeatable; default: every declared one)",
    )
    parser.add_argument(
        "--trace", action="append", type=int, choices=(0, 1),
        help="trace mode to check (repeatable; default: 0 and 1)",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    traces = args.trace or [0, 1]

    problems = []
    for workload in workloads:
        for trace in traces:
            found = check_run(workload, trace)
            status = "ok" if not found else f"{len(found)} problem(s)"
            print(f"{workload}/trace={trace}: {status}", flush=True)
            problems += [f"{workload}/trace={trace}: {p}" for p in found]
    for problem in problems:
        print(problem)
    runs = len(workloads) * len(traces)
    print(
        f"checked {runs} run(s): "
        + ("OK" if not problems else f"{len(problems)} problem(s)")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
