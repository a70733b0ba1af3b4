"""End-to-end, layer-attributed benchmark: SQL text in, checked rows out.

Driver contract (one workload per invocation)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload, untraced then traced,
each in a fresh subprocess, and prints one combined record.  See
README.md for ``--quick``, ``--selftest`` and ``--aa N``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import stats as est  # noqa: E402

SETUP_REPETITIONS = 7
MIN_PASSES = 3
try:
    SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
except OSError:
    SPEC = None


def _require_program() -> None:
    """Exit non-zero, printing no result, when the program is absent."""
    if SPEC is None:
        sys.exit("e2e: BENCHMARK.json not found at the checkout root")
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"e2e: the program under test is not at {ROOT / 'src' / 'repro'}")
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.exit(f"e2e: cannot import the program under test: {exc}")


def _metric_specs(kind: str) -> dict[str, dict]:
    return {m["name"]: m for m in SPEC[kind]}


def machine_context() -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            sha = ref
    except OSError:
        pass  # the driver's checkout is not a git repository
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def peak_rss_mb() -> float:
    """Max RSS of this process plus the max over reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def run_end_to_end(workload, seed: int, seconds: float, quick: bool) -> dict:
    """Set up ``SETUP_REPETITIONS`` times; one untimed check pass (it is
    also the warm pass); timed passes until ``seconds`` of measuring
    have gone by; one more untimed check pass."""
    import workloads as wl

    inputs = wl.prepare(workload, seed, quick)
    requests, oracle = inputs.requests, inputs.oracle
    setups = []
    system = None
    tally = wl.Tally()
    passes = []
    calib = []
    try:
        for _ in range(1 if quick else SETUP_REPETITIONS):
            if system is not None:
                system.close()
            system, elapsed = wl.timed_setup(workload, inputs)
            setups.append(elapsed)

        tally.add(wl.run_pass(system, requests, oracle.same_bag))
        deadline = time.perf_counter() + seconds
        min_passes = 2 if quick else MIN_PASSES
        while len(passes) < min_passes or (
            not quick and time.perf_counter() < deadline
        ):
            gc.collect()
            result = tally.add(wl.run_pass(system, requests, oracle.same_size))
            passes.append(wl.pass_metrics(result, requests))
            calib.append(est.calibration_ms())
        tally.add(wl.run_pass(system, requests, oracle.same_bag))
    finally:
        if system is not None:
            system.close()

    better = {name: spec["better"] for name, spec in _metric_specs("end_to_end").items()}
    metrics = est.best_of_passes(passes, better)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()  # after close: children are reaped
    # interquartile once there are enough passes for quartiles to mean
    # something; the plain range on a quick run's two
    calib_spread = (
        est.iqr_spread(calib)
        if len(calib) >= 4
        else (max(calib) - min(calib)) / statistics.median(calib)
    )
    return {
        "metrics": metrics,
        "samples": {
            **{name: len(passes) for name in passes[0]},
            "setup_s": len(setups),
            "peak_rss_mb": 1,
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "per_pass": passes,
        "bench": {
            "datagen_s": inputs.datagen_s,
            "oracle_s": inputs.oracle_s,
            "calib_ms": statistics.median(calib),
            "calib_spread": calib_spread,
            "noisy_host": calib_spread > 0.15,
        },
    }


def build_record(workload, args, kind: str, outcome: dict) -> dict:
    """The one record schema: machine context beside every metric's
    name, unit, sample count and bound."""
    specs = _metric_specs(kind)
    metrics = []
    for name, spec in specs.items():
        metrics.append(
            {
                "name": name,
                "value": outcome["metrics"].get(name),
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec.get("bound"),
                "samples": outcome["samples"].get(name, 1),
                "note": outcome.get("notes", {}).get(name),
            }
        )
    return {
        "schema": "repro-bench/1",
        "bench": "e2e",
        "workload": workload.name,
        "kind": kind,
        **machine_context(),
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "passes": outcome.get("passes"),
        "requests_per_pass": outcome.get("requests_per_pass"),
        "clients": workload.clients,
        "workers": workload.clients if workload.door != "session" else 0,
        "door": workload.door,
        "scale": workload.scale,
        "ops_attempted": outcome["attempted"],
        "ops_failed": outcome["failed"],
        "failures": outcome.get("failures", []),
        "harness": outcome.get("bench", {}),
        "per_pass": outcome.get("per_pass", []),
        "metrics": metrics,
    }


def contract_line(record: dict) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    return json.dumps(
        {
            "correct": record["ops_failed"] == 0,
            "attempted": record["ops_attempted"],
            "failed": record["ops_failed"],
            "metrics": {
                m["name"]: {"value": m["value"], "unit": m["unit"]}
                for m in record["metrics"]
            },
        }
    )


def print_table(record: dict, file=sys.stderr) -> None:
    print(
        f"== e2e {record['workload']} ({record['kind']}) seed={record['seed']} "
        f"quick={record['quick']} passes={record['passes']} "
        f"requests/pass={record['requests_per_pass']} cpus={record['cpus']} ==",
        file=file,
    )
    for m in record["metrics"]:
        value = "null" if m["value"] is None else f"{m['value']:.4f}"
        bound = "" if m["bound"] is None else f"  bound {m['bound']:.0%}"
        note = f"  ({m['note']})" if m["note"] else ""
        print(
            f"  {m['name']:34s} {value:>14s} {m['unit']:6s} n={m['samples']}{bound}{note}",
            file=file,
        )
    print(
        f"  ops_attempted={record['ops_attempted']} ops_failed={record['ops_failed']}",
        file=file,
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=file)
    if record["harness"].get("noisy_host"):
        print(
            f"  noisy_host: calibration kernel spread "
            f"{record['harness']['calib_spread']:.0%} across passes",
            file=file,
        )


def run_one(args) -> int:
    import workloads as wl

    if args.workload not in wl.WORKLOAD_BY_NAME:
        sys.exit(f"e2e: unknown workload {args.workload!r}")
    workload = wl.WORKLOAD_BY_NAME[args.workload]
    if args.trace:
        import layers

        outcome = layers.run_traced(workload, args.seed, args.quick)
        kind = "per_layer"
    else:
        outcome = run_end_to_end(workload, args.seed, args.seconds, args.quick)
        kind = "end_to_end"
    recorder = outcome.pop("recorder", None)
    record = build_record(workload, args, kind, outcome)
    OUT_DIR.mkdir(exist_ok=True)
    if recorder is not None:
        recorder.dump(
            OUT_DIR / f"trace_{workload.name}.json",
            workload=workload.name,
            seed=args.seed,
            report=outcome["bench"]["report"],
        )
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"record_{workload.name}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print_table(record)
    _reap_resource_tracker()
    print(contract_line(record))
    return 0


def _reap_resource_tracker() -> None:
    """Stop and wait for the stdlib's shared-memory resource tracker.

    The process pool's page segments make ``multiprocessing`` start this
    helper process; left alone it ends only after we exit, and this
    benchmark may not leave a process behind.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


# -- orchestration: every workload in its own subprocess ------------------


def _child(workload: str, args, trace: int, seed: int | None = None) -> dict:
    """Run one workload in a fresh interpreter; return its record."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed if seed is None else seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"e2e: workload {workload} exited with {done.returncode}")
    suffix = "_trace" if trace else ""
    return json.loads((OUT_DIR / f"record_{workload}{suffix}.json").read_text())


def run_all(args) -> int:
    import workloads as wl

    records = []
    for workload in wl.WORKLOADS:
        records.append(_child(workload.name, args, 0))
        if not args.quick:
            records.append(_child(workload.name, args, 1))
    combined = {
        "schema": "repro-bench/1",
        "bench": "e2e",
        **machine_context(),
        "seed": args.seed,
        "quick": args.quick,
        "records": records,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "record.json").write_text(json.dumps(combined, indent=1) + "\n")
    print(json.dumps(combined))
    return 1 if any(r["ops_failed"] for r in records) else 0


def run_aa(args) -> int:
    """Two interleaved sets of N full runs of the same code, the way the
    driver judges the benchmark: run ``i`` of either set uses seed
    ``--seed + i``; per workload x metric, how far apart the two sets'
    medians are, and each set's interquartile spread, against the
    metric's bound."""
    import workloads as wl

    specs = _metric_specs("end_to_end")
    sets: dict[str, dict[tuple[str, str], list[float]]] = {"A": {}, "B": {}}
    for index in range(args.aa):
        for label in ("A", "B") if index % 2 == 0 else ("B", "A"):
            for workload in wl.WORKLOADS:
                record = _child(workload.name, args, 0, seed=args.seed + index)
                for m in record["metrics"]:
                    sets[label].setdefault((workload.name, m["name"]), []).append(
                        m["value"]
                    )
    inside = True
    print(f"{'workload':12s} {'metric':18s} {'median A':>11s} {'median B':>11s} "
          f"{'apart':>8s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}")
    for workload in wl.WORKLOADS:
        for name, spec in specs.items():
            a, b = (sets[label][workload.name, name] for label in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            apart = abs(med_b - med_a) / med_a
            spreads = [est.iqr_spread(v) if len(v) > 1 else 0.0 for v in (a, b)]
            ok = apart <= spec["bound"] and (
                name == "setup_s" or max(spreads) <= spec["bound"]
            )
            inside = inside and ok
            print(
                f"{workload.name:12s} {name:18s} {med_a:11.4f} {med_b:11.4f} "
                f"{apart:8.1%} {spreads[0]:8.1%} {spreads[1]:8.1%} "
                f"{spec['bound']:6.0%}{'' if ok else '  OUTSIDE'}"
            )
    return 0 if inside else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__)
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="two short passes, one set-up; never comparable to full runs")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--aa", type=int, metavar="N",
                        help="A/A study: two interleaved sets of N full runs")
    args = parser.parse_args(argv)
    if args.selftest:
        import selftest

        return selftest.main()
    _require_program()
    if args.seconds is None:
        args.seconds = float(SPEC["run_seconds"])
    if args.workload:
        if os.environ.get("PYTHONHASHSEED") != "0":
            # string hashing orders sets inside the planner; pin it so two
            # runs of one commit enumerate and tie-break identically
            os.environ["PYTHONHASHSEED"] = "0"
            os.execv(sys.executable, [sys.executable, *sys.argv])
        return run_one(args)
    if args.aa:
        return run_aa(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
