"""Harness self-tests (``run.py --selftest``), runnable without pytest.

``testpaths`` is ``tests/`` only and this PR adds nothing there, so
the harness checks itself: the estimators, span self time, the failure
accounting against a corrupted oracle bag, and that the exact-count
layer metrics repeat across two runs.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

import datagen
import stats as est
from spans import Recorder, self_times


def check_percentile() -> None:
    values = [float(v) for v in range(1, 101)]
    assert est.percentile(values, 0.95) == 95.0
    assert est.percentile(values, 0.50) == 50.0
    assert est.percentile([7.0], 0.95) == 7.0
    assert est.percentile([3.0, 1.0, 2.0], 1.0) == 3.0
    # nearest rank: 20 samples leave exactly one beyond the 95th
    assert est.percentile([float(v) for v in range(20)], 0.95) == 18.0


def check_geomean() -> None:
    assert math.isclose(est.geomean([1.0, 100.0]), 10.0)
    assert math.isclose(est.geomean([2.0, 2.0, 2.0]), 2.0)
    # equally sensitive to every class: doubling either moves it the same
    base = est.geomean([1.0, 50.0])
    assert math.isclose(est.geomean([2.0, 50.0]), est.geomean([1.0, 100.0]))
    assert est.geomean([2.0, 50.0]) > base


def check_best_of_passes() -> None:
    better = {"ms": "lower", "qps": "higher"}
    passes = [{"ms": 5.0, "qps": 100.0}, {"ms": 4.0, "qps": 90.0}, {"ms": 9.0, "qps": 120.0}]
    assert est.best_of_passes(passes, better) == {"ms": 4.0, "qps": 120.0}
    # a disturbed pass (slower, lower throughput) does not move the run's value
    passes.append({"ms": 1000.0, "qps": 1.0})
    assert est.best_of_passes(passes, better) == {"ms": 4.0, "qps": 120.0}
    assert math.isclose(est.iqr_spread([10.0, 10.0, 10.0, 10.0]), 0.0)


def check_self_time() -> None:
    # root 0..10; child 2..5 with grandchild 3..4; child 6..9;
    # plus two overlapping (concurrent) children of a second root
    rows = [
        ["root", 0.0, 10.0, None, 0, None],
        ["child", 2.0, 5.0, 0, 0, None],
        ["grand", 3.0, 4.0, 1, 0, None],
        ["child", 6.0, 9.0, 0, 0, None],
        ["root2", 20.0, 30.0, None, 1, None],
        ["c1", 21.0, 25.0, 4, 1, None],
        ["c2", 24.0, 28.0, 4, 1, None],
    ]
    own = self_times(rows)
    assert own == [4.0, 2.0, 1.0, 3.0, 3.0, 4.0, 4.0], own
    # self times under one root add up to the root's duration
    assert math.isclose(sum(own[:4]), 10.0)

    recorder = Recorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        leaf = recorder.wrap(lambda: 3, "leaf", count=lambda out: out)
        assert leaf() == 3
    names = [(row[0], row[3], row[5]) for row in recorder.rows]
    assert names == [("outer", None, None), ("inner", 0, None), ("leaf", 0, 3)], names
    assert all(o >= 0.0 for o in self_times(recorder.rows))


def check_datagen_repeats() -> None:
    assert datagen.generate_tables(1, 5) == datagen.generate_tables(1, 5)
    assert datagen.generate_tables(1, 5) != datagen.generate_tables(1, 6)
    sizes = lambda seed: {k: len(v[1]) for k, v in datagen.generate_tables(3, seed).items()}
    assert sizes(1) == sizes(2), "table sizes must not move with the seed"


def check_failure_accounting() -> None:
    """Corrupt one expected bag: exactly one failed op, no more."""
    import workloads as wl

    workload = wl.WORKLOAD_BY_NAME["plan_cold"]
    inputs = wl.prepare(workload, seed=1, quick=True)
    oracle = inputs.oracle
    requests = inputs.requests = wl.warm_requests(inputs.requests)
    system, _ = wl.timed_setup(workload, inputs)
    try:
        clean = wl.run_pass(system, requests, oracle.same_bag)
        victim = requests[3]
        corrupted = wl.Oracle(
            {**oracle.bags, victim.sql: oracle.bags[victim.sql] + Counter({("x",): 1})}
        )
        by_bag = wl.run_pass(system, requests, corrupted.same_bag)
        by_size = wl.run_pass(system, requests, corrupted.same_size)
    finally:
        system.close()
    assert clean.failures == [], clean.failures
    tally = wl.Tally()
    for result in (by_bag, by_size):
        tally.add(result)
        assert len(result.failures) == 1, result.failures
        assert result.failures[0][:2] == (3, victim.cls)
        assert result.latencies_s[3] is None, "a failed op must lose its latency"
    assert (tally.attempted, tally.failed) == (2 * len(requests), 2)


def check_exact_counts_repeat() -> None:
    """The count metrics are exact: two runs agree to the last unit."""
    import layers
    import workloads as wl

    def counts() -> tuple:
        tables = datagen.generate_tables(layers.PROBE_SCALE, 1)
        db = wl.build_database(tables)
        ctx = layers.ProbeContext(db, db, tables, seed=1)
        planned, _, _ = ctx.planned()
        quality = layers.probe_plan_quality(ctx)
        return (
            sum(r.plans_considered for _, _, r in planned.values()),
            sum(len(r.relation) for _, _, r in planned.values()),
            quality["optimizer.qerror_median"],
            quality["optimizer.qerror_max"],
        )

    first, second = counts(), counts()
    assert first == second, (first, second)
    assert first[0] > 0 and first[1] > 0


def check_probe_degrades() -> None:
    """A probe whose function no longer imports yields None + a reason."""
    import layers

    @layers.probe("gone.metric_ms")
    def gone(ctx):
        from repro.exec import an_engine_that_was_retired  # noqa: F401

    metrics, notes = {}, {}
    layers.run_probes((gone,), None, metrics, notes)
    assert metrics == {"gone.metric_ms": None}
    assert "ImportError" in notes["gone.metric_ms"], notes


CHECKS = (
    check_percentile,
    check_geomean,
    check_best_of_passes,
    check_self_time,
    check_datagen_repeats,
    check_failure_accounting,
    check_exact_counts_repeat,
    check_probe_degrades,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except Exception as exc:  # report every check, not just the first
            failed += 1
            print(f"FAIL {check.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    print(f"selftest: {len(CHECKS) - failed}/{len(CHECKS)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
