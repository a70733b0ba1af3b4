"""QueryService: admission, cancellation, breakers, fallback, shutdown."""

import threading

import pytest

from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    EngineFailure,
    QueryCancelled,
)
from repro.expr import Database, evaluate
from repro.expr.nodes import BaseRel, Join, JoinKind
from repro.expr.predicates import eq
from repro.relalg import Relation
from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan
from repro.runtime.service import (
    FALLBACK_CHAIN,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    QueryService,
)
from repro.runtime.session import (
    DegradationLevel,
    QuerySession,
    SessionResult,
)


def small_db() -> Database:
    db = Database()
    db.add(
        "r",
        Relation.base("r", ["r_a", "r_b"], [(1, 10), (2, 20), (3, 30)]),
    )
    db.add("s", Relation.base("s", ["s_a"], [(1,), (2,), (4,)]))
    return db


def join_query() -> Join:
    return Join(
        JoinKind.INNER,
        BaseRel("r", ("r_a", "r_b")),
        BaseRel("s", ("s_a",)),
        eq("r_a", "s_a"),
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ScriptedSession:
    """A stand-in session: blocks, crashes, or answers per configuration."""

    def __init__(
        self,
        db: Database,
        *,
        crash: bool = False,
        gate: threading.Event | None = None,
        started: threading.Event | None = None,
    ) -> None:
        self.db = db
        self.crash = crash
        self.gate = gate
        self.started = started
        self.calls = 0

    def run(self, query, budget=None, required_order=()):
        self.calls += 1
        if self.started is not None:
            self.started.set()
        if self.gate is not None:
            self.gate.wait(timeout=10)
        if budget is not None:
            budget.tick(where="scripted")
        if self.crash:
            raise RuntimeError("scripted engine crash")
        return SessionResult(
            relation=evaluate(query, self.db),
            chosen=query,
            degradation_level=DegradationLevel.FULL,
            degradation_reason=None,
            plans_considered=1,
            verified=None,
            incident=None,
            elapsed_ms=0.0,
        )


class TestCircuitBreaker:
    def test_transition_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "vector",
            BreakerConfig(failure_threshold=2, window_s=60.0, cooldown_s=30.0),
            clock,
        )
        assert breaker.state is BreakerState.CLOSED
        assert breaker.record_failure() is None
        assert breaker.record_failure() == "open"
        assert breaker.state is BreakerState.OPEN
        assert breaker.allow() == (False, None)
        clock.advance(30.0)
        assert breaker.allow() == (True, "half-open")
        # only one probe at a time
        assert breaker.allow() == (False, None)
        assert breaker.record_failure() == "open"  # probe failed: reopen
        clock.advance(30.0)
        assert breaker.allow() == (True, "half-open")
        assert breaker.record_success() == "closed"
        assert breaker.state is BreakerState.CLOSED
        assert breaker.opened_count == 2

    def test_window_prunes_stale_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "vector", BreakerConfig(failure_threshold=2, window_s=10.0), clock
        )
        breaker.record_failure()
        clock.advance(11.0)  # first failure ages out of the window
        assert breaker.record_failure() is None
        assert breaker.state is BreakerState.CLOSED


class TestAdmission:
    def test_queue_full_sheds_load(self):
        db = small_db()
        gate = threading.Event()
        started = threading.Event()

        def factory(engine):
            return ScriptedSession(db, gate=gate, started=started)

        service = QueryService(
            db,
            workers=1,
            queue_depth=1,
            session_factory=factory,
        )
        try:
            first = service.submit(join_query())  # picked up by the worker
            assert started.wait(5)
            second = service.submit(join_query())  # fills the queue
            with pytest.raises(AdmissionRejected) as info:
                service.submit(join_query())
            assert info.value.queue_depth == 1
            assert service.incidents.count("admission-rejected") == 1
            assert service.rejected == 1
        finally:
            gate.set()
            service.close()
        assert first.result(5).relation is not None
        assert second.result(5).relation is not None

    def test_closed_service_rejects(self):
        service = QueryService(small_db(), workers=1)
        service.close()
        with pytest.raises(AdmissionRejected):
            service.submit(join_query())

    def test_service_budget_exhaustion_closes_admission(self):
        db = small_db()
        service = QueryService(
            db,
            workers=1,
            engine="reference",
            service_budget=Budget(max_rows=1),
        )
        try:
            service.run(join_query())  # spends > 1 row against the service
            with pytest.raises(AdmissionRejected) as info:
                service.submit(join_query())
            assert "budget" in str(info.value)
            assert service.incidents.count("service-budget-exhausted") == 1
        finally:
            service.close()

    def test_spent_service_deadline_is_typed(self):
        service = QueryService(
            small_db(),
            workers=1,
            engine="reference",
            service_budget=Budget(deadline_ms=0.0),
        )
        try:
            with pytest.raises(DeadlineExceeded):
                service.run(join_query(), timeout=5)
        finally:
            service.close()


class TestCancellation:
    def test_cancel_before_start(self):
        db = small_db()
        gate = threading.Event()
        started = threading.Event()

        def factory(engine):
            return ScriptedSession(db, gate=gate, started=started)

        service = QueryService(
            db, workers=1, queue_depth=4, session_factory=factory
        )
        try:
            blocker = service.submit(join_query())
            assert started.wait(5)
            queued = service.submit(join_query())
            queued.cancel()
            gate.set()
            with pytest.raises(QueryCancelled):
                queued.result(timeout=5)
            assert service.incidents.count("query-cancelled") == 1
            assert service.cancelled == 1
            assert blocker.result(5).relation is not None
        finally:
            gate.set()
            service.close()

    def test_cancel_mid_query_unwinds_at_checkpoint(self):
        db = small_db()
        gate = threading.Event()
        started = threading.Event()

        def factory(engine):
            # blocks, then ticks its budget: the tick sees the token
            return ScriptedSession(db, gate=gate, started=started)

        service = QueryService(
            db, workers=1, session_factory=factory, budget=Budget()
        )
        try:
            ticket = service.submit(join_query())
            assert started.wait(5)
            ticket.cancel()
            gate.set()
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=5)
            assert service.incidents.count("query-cancelled") == 1
        finally:
            gate.set()
            service.close()


class TestRoutingAndBreakers:
    def make_service(self, clock, *, threshold=3, cooldown=30.0):
        db = small_db()
        self.db = db
        self.vector_crashing = True

        outer = self

        def factory(engine):
            if engine == "vector":

                class Toggle(ScriptedSession):
                    def run(self, query, budget=None, required_order=()):
                        self.crash = outer.vector_crashing
                        return super().run(query, budget, required_order)

                return Toggle(db, crash=True)
            return ScriptedSession(db)

        return QueryService(
            db,
            workers=1,
            session_factory=factory,
            breaker=BreakerConfig(
                failure_threshold=threshold, window_s=600.0, cooldown_s=cooldown
            ),
            clock=clock,
        )

    def test_breaker_opens_then_probes_then_closes(self):
        clock = FakeClock()
        service = self.make_service(clock)
        try:
            # three crashing queries trip the vector breaker ...
            for _ in range(3):
                result = service.run(join_query(), timeout=5)
                assert result.engine == "hash"
                assert result.attempts[0][0] == "vector"
            assert service.breakers["vector"].state is BreakerState.OPEN
            assert service.incidents.count("breaker-open") == 1
            assert service.incidents.count("engine-failure") == 3

            # ... while open, vector is skipped without being called
            result = service.run(join_query(), timeout=5)
            assert result.engine == "hash"
            assert result.attempts == (("vector", "breaker-open"),)

            # cooldown elapses: half-open probe, still crashing -> reopen
            clock.advance(30.0)
            result = service.run(join_query(), timeout=5)
            assert result.engine == "hash"
            assert service.breakers["vector"].state is BreakerState.OPEN
            assert service.incidents.count("breaker-half-open") == 1
            assert service.incidents.count("breaker-open") == 2

            # next cooldown: the engine recovered, probe closes the breaker
            self.vector_crashing = False
            clock.advance(30.0)
            result = service.run(join_query(), timeout=5)
            assert result.engine == "vector"
            assert service.breakers["vector"].state is BreakerState.CLOSED
            assert service.incidents.count("breaker-closed") == 1
        finally:
            service.close()

    def test_all_engines_failing_is_a_typed_engine_failure(self):
        db = small_db()

        def factory(engine):
            return ScriptedSession(db, crash=True)

        service = QueryService(db, workers=1, session_factory=factory)
        try:
            with pytest.raises(EngineFailure) as info:
                service.run(join_query(), timeout=5)
            engines = [engine for engine, _ in info.value.attempts]
            assert engines == list(FALLBACK_CHAIN)
            assert service.incidents.count("query-failed") == 1
            assert service.failed == 1
        finally:
            service.close()


class TestRealSessionsUnderFaults:
    # single-query routing outcomes under faults (fallback, floor crash,
    # budget, user error) are held to both isolation modes at once in
    # test_backends.py::test_routing_parity
    def test_fallback_answers_match_ground_truth(self):
        db = small_db()
        query = join_query()
        expected = evaluate(query, db)
        service = QueryService(
            db,
            workers=2,
            fault_plan=FaultPlan.parse("vector:crash@1", seed=11),
        )
        try:
            tickets = [service.submit(query) for _ in range(6)]
            for ticket in tickets:
                result = ticket.result(timeout=30)
                assert result.engine != "vector"
                assert result.relation.same_content(expected)
            assert service.incidents.count("engine-failure") >= 1
        finally:
            service.close()

    def test_real_sessions_share_cache_and_incident_log(self):
        db = small_db()
        service = QueryService(db, workers=2)
        try:
            query = join_query()
            for _ in range(4):
                service.run(query, timeout=30)
            counters = service.plan_cache.counters()
            assert counters["hits"] >= 1  # second run hits the shared cache
        finally:
            service.close()


class TestShutdown:
    def test_close_drains_queued_work(self):
        db = small_db()
        service = QueryService(db, workers=2, queue_depth=16)
        tickets = [service.submit(join_query()) for _ in range(8)]
        service.close()  # default: drain
        assert all(t.done() for t in tickets)
        assert service.completed == 8
        assert service.failed == 0

    def test_close_without_drain_cancels_queued_work(self):
        db = small_db()
        gate = threading.Event()
        started = threading.Event()

        def factory(engine):
            return ScriptedSession(db, gate=gate, started=started)

        service = QueryService(
            db, workers=1, queue_depth=8, session_factory=factory
        )
        blocker = service.submit(join_query())
        assert started.wait(5)
        queued = [service.submit(join_query()) for _ in range(3)]
        # close() joins the (gated) worker, so run it alongside: its
        # drain=False pass must reject the queued tickets immediately,
        # while the in-flight query is allowed to finish
        closer = threading.Thread(target=lambda: service.close(drain=False))
        closer.start()
        for ticket in queued:
            with pytest.raises(QueryCancelled):
                ticket.result(timeout=5)
        gate.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert service.cancelled == 3
        assert blocker.result(5).relation is not None

    def test_workers_are_daemon_threads(self):
        # a worker wedged in native code must never block interpreter
        # exit: the threads are daemons and close() is what drains
        service = QueryService(small_db(), workers=2)
        try:
            assert all(t.daemon for t in service._threads)
        finally:
            service.close()

    def test_close_is_idempotent(self):
        service = QueryService(small_db(), workers=1)
        service.close()
        service.close()  # second call is a no-op, not an error
        assert all(not t.is_alive() for t in service._threads)

    def test_concurrent_close_under_load_drains_once(self):
        # several closers race while queued work drains: exactly one
        # runs the drain, the rest wait for it, and every ticket
        # settles successfully
        db = small_db()
        service = QueryService(db, workers=2, queue_depth=32)
        tickets = [service.submit(join_query()) for _ in range(12)]
        errors = []

        def closer():
            try:
                service.close()
            except BaseException as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        closers = [threading.Thread(target=closer) for _ in range(4)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=30)
        assert not errors
        assert all(not t.is_alive() for t in closers)
        assert all(t.done() for t in tickets)
        assert service.completed == 12
        for thread in service._threads:
            assert not thread.is_alive()

    def test_submit_during_and_after_close_is_typed(self):
        db = small_db()
        gate = threading.Event()
        started = threading.Event()

        def factory(engine):
            return ScriptedSession(db, gate=gate, started=started)

        service = QueryService(
            db, workers=1, queue_depth=8, session_factory=factory
        )
        blocker = service.submit(join_query())
        assert started.wait(5)
        closer = threading.Thread(target=service.close)
        closer.start()
        try:
            # the close is in flight (blocked on the gated worker):
            # late submits are shed with the admission type, not queued
            with pytest.raises(AdmissionRejected):
                service.submit(join_query())
        finally:
            gate.set()
            closer.join(timeout=30)
        assert not closer.is_alive()
        assert blocker.result(5).relation is not None
        with pytest.raises(AdmissionRejected):
            service.submit(join_query())  # and still after close completes

    def test_context_manager_closes(self):
        with QueryService(small_db(), workers=1) as service:
            result = service.run(join_query(), timeout=30)
            assert len(result.relation) == 2
        with pytest.raises(AdmissionRejected):
            service.submit(join_query())

    def test_snapshot_shape(self):
        with QueryService(small_db(), workers=1) as service:
            service.run(join_query(), timeout=30)
            snap = service.snapshot()
        assert snap["completed"] == 1
        assert set(snap["breakers"]) == set(FALLBACK_CHAIN)
        assert snap["plan_cache"]["misses"] >= 1
