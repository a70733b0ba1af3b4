"""One routing loop, two backends: thread and process isolation must
route, journal and count identically -- plus the process backend's own
typed verdicts and its death accounting."""

import sys
import threading

import pytest

from repro.errors import (
    EngineFailure,
    InjectedFault,
    RowBudgetExceeded,
    UserInputError,
    WorkerPoolDegraded,
)
from repro.expr import evaluate
from repro.expr.nodes import BaseRel, ExprError, Join, JoinKind, Select
from repro.expr.predicates import cmp_const, eq
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan
from repro.runtime.procpool import (
    ProcPoolConfig,
    WorkerSupervisor,
    decode_error,
    encode_error,
)
from repro.runtime.service import QueryService
from tests.runtime.test_procpool import FAST, small_db

#: the incident kinds the service's routing loop writes (sessions add
#: their own planning records, which are not routing)
ROUTING_KINDS = {
    "engine-failure",
    "query-failed",
    "budget-exhausted",
    "query-cancelled",
    "breaker-open",
    "breaker-half-open",
    "breaker-closed",
}


def join_query(right: str = "s") -> Join:
    return Join(
        JoinKind.INNER,
        BaseRel("r", ("r_a", "r_b")),
        BaseRel(right, ("s_a",)),
        eq("r_a", "s_a"),
    )


# case -> (service kwargs, query, expected outcome).  ``engine`` is the
# answering engine or the typed error; ``tried`` the engines that failed
# first; ``kinds`` the routing incidents in order; ``failures`` the
# breaker windows afterwards.
CASES = {
    "vector-crash-falls-back-to-hash": (
        {"fault_plan": FaultPlan.parse("vector:crash@1", seed=5)},
        join_query(),
        {
            "engine": "hash",
            "tried": ["vector"],
            "kinds": ["engine-failure"],
            "failures": {"vector": 1, "hash": 0, "reference": 0},
        },
    ),
    "floor-crash-is-typed-and-journaled": (
        {
            "engine": "reference",
            "fault_plan": FaultPlan.parse("reference:crash@1", seed=3),
        },
        join_query(),
        {
            "engine": InjectedFault,
            "tried": ["reference"],
            "kinds": ["engine-failure", "query-failed"],
            "failures": {"vector": 0, "hash": 0, "reference": 0},
        },
    ),
    "row-budget-does-not-reroute": (
        {"budget": Budget(max_rows=1)},
        join_query(),
        {
            "engine": RowBudgetExceeded,
            "tried": [],
            "kinds": ["budget-exhausted"],
            "failures": {"vector": 0, "hash": 0, "reference": 0},
        },
    ),
    "user-input-error-trips-no-breaker": (
        {},
        join_query(right="nope"),
        {
            "engine": UserInputError,
            "tried": [],
            "kinds": [],
            "failures": {"vector": 0, "hash": 0, "reference": 0},
        },
    ),
}


@pytest.mark.parametrize(
    "isolation,case",
    [(iso, case) for case in CASES for iso in ("thread", "process")],
    ids=lambda value: value,
)
def test_routing_parity(isolation, case):
    kwargs, query, want = CASES[case]
    db = small_db()
    service = QueryService(
        db, workers=1, isolation=isolation, procpool=FAST, **kwargs
    )
    try:
        ticket = service.submit(query)
        if isinstance(want["engine"], str):
            result = ticket.result(timeout=60)
            assert result.engine == want["engine"]
            assert [engine for engine, _ in result.attempts] == want["tried"]
            assert result.relation.same_content(evaluate(query, db))
            assert (service.completed, service.failed) == (1, 0)
        else:
            with pytest.raises(want["engine"]):
                ticket.result(timeout=60)
            assert (service.completed, service.failed) == (0, 1)
        kinds = [i.kind for i in service.incidents if i.kind in ROUTING_KINDS]
        assert kinds == want["kinds"]
        if "query-failed" in kinds:
            failed = next(i for i in service.incidents if i.kind == "query-failed")
            assert [a[0] for a in failed.detail["attempts"]] == want["tried"]
        snapshot = service.snapshot()["breakers"]
        assert {n: b["state"] for n, b in snapshot.items()} == dict.fromkeys(
            snapshot, "closed"
        )
        assert {
            n: b["recent_failures"] for n, b in snapshot.items()
        } == want["failures"]
    finally:
        service.close()


def test_error_subclasses_decode_as_their_taxonomy_ancestor():
    # every real query error is a UserInputError *subclass*; rebuilt as
    # an unknown kind it would read as an engine crash and trip breakers
    rebuilt = decode_error(encode_error(ExprError("no base relation named 'x'")))
    assert type(rebuilt) is UserInputError
    assert "no base relation" in str(rebuilt)
    assert type(decode_error(encode_error(KeyError("k")))) is EngineFailure


def test_pool_dispatch_failure_blames_no_engine():
    # a task that cannot be pickled never reaches a child: the verdict
    # is the pool's, typed, and no engine is rerouted around or charged
    query = Select(join_query(), cmp_const("r_a", "=", lambda: 1))
    service = QueryService(
        small_db(), workers=1, isolation="process", procpool=FAST
    )
    try:
        with pytest.raises(WorkerPoolDegraded, match="dispatch failed"):
            service.run(query, timeout=60)
        assert service.incidents.count("engine-failure") == 0
        assert all(
            b["recent_failures"] == 0
            for b in service.snapshot()["breakers"].values()
        )
        # the worker itself is unharmed and serves the next query
        assert service.run(join_query(), timeout=60).engine == "vector"
        assert service.snapshot()["procpool"]["restarts"] == 1
    finally:
        service.close()


class TestDeathAccounting:
    """``_record_death`` is called from every slot's worker thread."""

    THREADS, DEATHS = 8, 4000

    def _hammer(self, poison_threshold):
        # no child is ever spawned: the supervisor is only its ledger
        with QueryService(small_db(), workers=1) as service:
            supervisor = WorkerSupervisor(
                service, 2, ProcPoolConfig(poison_threshold=poison_threshold)
            )
        verdicts: list[tuple[int, bool]] = []
        start = threading.Barrier(self.THREADS)

        def report():
            start.wait(timeout=10)
            for _ in range(self.DEATHS):
                verdicts.append(supervisor._record_death("fp"))

        threads = [threading.Thread(target=report) for _ in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return supervisor, verdicts

    def test_no_death_is_dropped(self):
        total = self.THREADS * self.DEATHS
        supervisor, verdicts = self._hammer(poison_threshold=total + 1)
        assert supervisor._kills["fp"] == total
        assert sorted(deaths for deaths, _ in verdicts) == list(range(1, total + 1))
        assert not supervisor._poisoned

    def test_exactly_one_report_quarantines(self):
        supervisor, verdicts = self._hammer(poison_threshold=100)
        assert [deaths for deaths, quarantine in verdicts if quarantine] == [100]
        assert supervisor._poisoned == {"fp"}
