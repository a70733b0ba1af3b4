"""The concurrent query service: admission, breakers, cancellation, drain.

:class:`repro.runtime.QuerySession` made one caller resilient; this
module makes the *process* resilient when many callers share it.  A
:class:`QueryService` is a bounded thread pool over per-worker
backends -- in-thread sessions (:class:`ThreadBackend`) or supervised
child processes (:mod:`repro.runtime.procpool`), which differ only in
how one engine attempt is made -- with four containment mechanisms
layered on top:

**Admission control.**  Submissions enter a bounded queue.  When the
queue is full (or the service is closed, or the service-level budget
is exhausted) the submission is *shed* with the typed
:class:`repro.errors.AdmissionRejected` instead of growing an
unbounded backlog -- a loaded service answers "no" in microseconds
rather than "yes" in minutes.

**Budgets and cancellation.**  Each query's deadline is carved from
the service-level :class:`Budget` at dequeue time (so queue wait does
not silently eat execution time budgeted for someone else), clamped by
the per-query template.  Aggregate plan/row spend is charged back to
the service budget -- its counters are thread-safe -- and a ticket's
``cancel()`` is observed cooperatively at the same ``tick()``
checkpoints the budget already uses.

**Circuit breakers.**  Every engine has a :class:`CircuitBreaker`.
Incidents attributable to the engine -- injected or genuine crashes,
differential-verification mismatches -- are counted in a sliding
window; at the threshold the breaker *opens* and the service routes
around the engine (``vector -> hash -> reference``).  After a
cool-down the breaker *half-opens* and admits a single probe query:
success closes it, failure re-opens it.  Every transition is recorded
as a structured :class:`Incident` (``breaker-open``,
``breaker-half-open``, ``breaker-closed``) and surfaced in the CLI
footer and service snapshots.  The reference interpreter is the floor
of the fallback chain and is never gated.

**Clean shutdown.**  ``close()`` stops admission, lets queued work
drain (or cancels it with ``drain=False``), and joins every worker;
``with QueryService(...) as svc:`` does the same.

Determinism: with a seeded :class:`repro.runtime.faults.FaultPlan`
each query's fault stream is derived from its admission index, not
from thread timing, so chaos runs reproduce exactly.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.errors import (
    AdmissionRejected,
    BudgetExceeded,
    EngineFailure,
    QueryCancelled,
    ReproError,
    UserInputError,
    WorkerCrashed,
)
from repro.expr.evaluate import Database
from repro.expr.nodes import Expr
from repro.optimizer import Statistics
from repro.runtime.budget import Budget, CancelToken
from repro.runtime.faults import FaultPlan, fault_scope
from repro.runtime.incidents import Incident, IncidentLog
from repro.runtime.feedback import FeedbackStore
from repro.runtime.metrics import (
    MetricsRegistry,
    service_registry,
    sync_cache_metrics,
    sync_engine_metrics,
    sync_feedback_metrics,
)
from repro.runtime.plan_cache import PlanCache
from repro.runtime.session import QuerySession, SessionResult

#: Engine fallback order: fastest first, ground truth last.
FALLBACK_CHAIN = ("vector", "hash", "reference")


# -- circuit breaker -----------------------------------------------------


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """When to open, how long to stay open, what counts as "recent".

    ``failure_threshold`` incidents within ``window_s`` seconds open
    the breaker; after ``cooldown_s`` it half-opens for one probe.
    """

    failure_threshold: int = 3
    window_s: float = 60.0
    cooldown_s: float = 30.0


class CircuitBreaker:
    """Per-engine failure accounting with open/half-open/closed states.

    Thread-safe; ``clock`` is injectable so tests drive transitions
    deterministically.  State-changing calls return the transition
    name (``"open"``, ``"half-open"``, ``"closed"``) or ``None`` so
    the service can journal each transition exactly once.
    """

    def __init__(
        self,
        engine: str,
        config: BreakerConfig | None = None,
        clock=time.monotonic,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures: deque[float] = deque()
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.opened_count = 0

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    def allow(self) -> tuple[bool, str | None]:
        """May the engine serve the next query?  -> (allowed, transition)."""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True, None
            if self._state is BreakerState.OPEN:
                if self._clock() - self._opened_at >= self.config.cooldown_s:
                    self._state = BreakerState.HALF_OPEN
                    self._probe_in_flight = True
                    return True, "half-open"
                return False, None
            # HALF_OPEN: exactly one probe at a time
            if self._probe_in_flight:
                return False, None
            self._probe_in_flight = True
            return True, None

    def record_success(self) -> str | None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.CLOSED
                self._failures.clear()
                self._probe_in_flight = False
                return "closed"
            return None

    def record_failure(self) -> str | None:
        now = self._clock()
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                # the probe failed: straight back to OPEN, fresh cooldown
                self._state = BreakerState.OPEN
                self._opened_at = now
                self._probe_in_flight = False
                self.opened_count += 1
                return "open"
            if self._state is BreakerState.OPEN:
                return None
            self._failures.append(now)
            horizon = now - self.config.window_s
            while self._failures and self._failures[0] < horizon:
                self._failures.popleft()
            if len(self._failures) >= self.config.failure_threshold:
                self._state = BreakerState.OPEN
                self._opened_at = now
                self.opened_count += 1
                return "open"
            return None

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "engine": self.engine,
                "state": self._state.value,
                "recent_failures": len(self._failures),
                "opened_count": self.opened_count,
            }


# -- tickets and results -------------------------------------------------


@dataclass
class ServiceResult:
    """A session result plus the service's account of routing it."""

    session: SessionResult
    engine: str
    #: engines tried before ``engine`` answered, as (engine, error).
    attempts: tuple[tuple[str, str], ...]
    index: int
    service_ms: float
    queue_ms: float

    # convenience delegation: callers mostly want the session fields
    @property
    def relation(self):
        return self.session.relation

    @property
    def chosen(self):
        return self.session.chosen

    @property
    def degradation_level(self):
        return self.session.degradation_level

    @property
    def degradation_reason(self):
        return self.session.degradation_reason

    @property
    def verified(self):
        return self.session.verified

    @property
    def incident(self):
        return self.session.incident

    @property
    def plan_cache(self):
        return self.session.plan_cache

    @property
    def replans(self):
        return self.session.replans

    @property
    def replan_events(self):
        return self.session.replan_events

    def to_dict(self) -> dict:
        return {
            **self.session.to_dict(),
            "engine": self.engine,
            "attempts": [list(a) for a in self.attempts],
            "index": self.index,
            "service_ms": round(self.service_ms, 3),
            "queue_ms": round(self.queue_ms, 3),
        }


class QueryTicket:
    """A handle on one admitted query: wait, inspect, cancel."""

    def __init__(
        self,
        index: int,
        query: Expr,
        required_order: tuple[tuple[str, bool], ...] = (),
    ) -> None:
        self.index = index
        self.query = query
        self.required_order = required_order
        self.cancel_token = CancelToken()
        self.submitted_at = time.monotonic()
        self._done = threading.Event()
        self._result: ServiceResult | None = None
        self._error: BaseException | None = None

    def cancel(self) -> None:
        """Request cooperative cancellation (observed at budget ticks)."""
        self.cancel_token.cancel()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ServiceResult:
        """Block for the outcome; raises the query's typed error."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query #{self.index} not finished within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    # -- service side ---------------------------------------------------

    def _resolve(self, result: ServiceResult) -> None:
        self._result = result
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


_STOP = object()


def _unwind_action(exc, cooperative: str) -> str:
    """Incident action for a cancel/budget unwind: the process backend
    tags the ones it enforced by SIGKILL in ``exc.where``."""
    killed = exc.where in ("worker-killed", "worker-deadline")
    return "worker-killed" if killed else cooperative


class ThreadBackend:
    """Engine attempts made on the calling thread, over lazy sessions.

    A backend is everything that differs between isolation modes, and
    it is one call: :meth:`attempt` takes one engine attempt in and
    returns its :class:`SessionResult` or raises the typed error.
    ``preflight`` may fail a ticket before any budget is carved, and
    ``stop`` runs as the worker loop exits.  The process pool's
    per-slot backend (:mod:`repro.runtime.procpool`) has the same
    three methods; :class:`QueryService` owns everything else.

    :meth:`session` is the only place worker sessions are built: over
    the service's shared cache and journal in a service thread, over
    private ones in a process-pool child.
    """

    def __init__(self, session_factory=None, **session_kwargs) -> None:
        self._build = session_factory or (
            lambda engine: QuerySession(executor=engine, **session_kwargs)
        )
        self._sessions: dict[str, QuerySession] = {}

    def session(self, engine: str) -> QuerySession:
        if engine not in self._sessions:
            self._sessions[engine] = self._build(engine)
        return self._sessions[engine]

    def preflight(self, ticket: QueryTicket) -> None:
        pass

    def attempt(
        self, ticket: QueryTicket, engine: str, budget: Budget
    ) -> SessionResult:
        return self.session(engine).run(
            ticket.query, budget=budget, required_order=ticket.required_order
        )

    def stop(self) -> None:
        pass


# -- the service ---------------------------------------------------------


class QueryService:
    """A bounded, breaker-protected, cancellable front end over sessions.

    Parameters
    ----------
    db, catalog, stats:
        As for :class:`QuerySession`; statistics are scanned once and
        shared by every worker.
    workers:
        Worker threads (each owns one backend; a thread backend's
        lazily-built sessions, one per engine, share the plan cache,
        incident log, quarantine set and statistics).
    queue_depth:
        Admission queue bound; a full queue sheds load with
        :class:`repro.errors.AdmissionRejected`.
    budget:
        Per-query :class:`Budget` template (deadline/plan/row caps).
    service_budget:
        Shared service-level :class:`Budget`.  Per-query deadlines are
        carved from its remaining time; aggregate plan/row spend is
        charged back to it, and exhausting it closes admission.
    engine:
        Preferred engine; failures walk the tail of
        :data:`FALLBACK_CHAIN` (the reference interpreter is never
        breaker-gated -- it is the floor).
    fault_plan:
        Optional :class:`FaultPlan`; each query gets the deterministic
        stream for its admission index.
    breaker:
        :class:`BreakerConfig` shared by all engine breakers.
    metrics:
        Shared :class:`repro.runtime.metrics.MetricsRegistry`; a fresh
        pre-declared service registry by default.  Exported via
        :meth:`export_metrics` (JSON or Prometheus text).
    session_factory:
        Test hook: ``f(engine) -> QuerySession`` replacing the default
        construction (used to inject failing planners and gates).
    clock:
        Injectable monotonic clock for the breakers.
    feedback:
        Shared :class:`repro.runtime.feedback.FeedbackStore` for
        cardinality feedback across every worker session.  ``None``
        (default) disables feedback unless ``replan_threshold`` is
        set, in which case a service-private store is created.
    replan_threshold:
        Arm mid-query re-planning in every worker session (see
        :class:`QuerySession`).  Re-plans run inside the query's
        carved budget, so re-plan storms still respect deadlines,
        circuit breakers and admission control.
    max_replans:
        Per-query re-plan cap forwarded to worker sessions.
    enum_tier:
        Join-enumeration tier policy forwarded to worker sessions
        (``auto`` | ``dp`` | ``partitioned`` | ``goo``; see
        :class:`QuerySession`).
    isolation:
        ``"thread"`` (default) runs worker sessions on threads in this
        process; ``"process"`` runs them in supervised child processes
        (see :mod:`repro.runtime.procpool`), so a segfaulting or
        wedged worker costs one query, not the service.  The API is
        identical either way; ``session_factory`` is thread-only (an
        arbitrary factory cannot cross a process boundary).
    max_retries:
        Process isolation only: how many times a query whose worker
        died is redelivered to a fresh worker before it surfaces the
        typed :class:`repro.errors.WorkerCrashed`.  ``None`` defers to
        the :class:`repro.runtime.procpool.ProcPoolConfig` default.
    procpool:
        Optional :class:`repro.runtime.procpool.ProcPoolConfig` with
        the supervisor's tunables (heartbeat cadence, restart backoff,
        flap thresholds, poison threshold).
    shm:
        Process isolation only: ship base tables to workers as
        shared-memory columnar pages (:mod:`repro.relalg.pages`)
        instead of pickling them into the spawn blob.  ``None``
        (default) auto-detects platform support; ``True`` requests it
        (still falling back, per table or entirely, when paging is
        impossible); ``False`` forces the pickle path.  See
        ``docs/SCALING.md``.
    """

    def __init__(
        self,
        db: Database,
        *,
        catalog=None,
        stats: Statistics | None = None,
        workers: int = 2,
        queue_depth: int = 16,
        budget: Budget | None = None,
        service_budget: Budget | None = None,
        engine: str = "vector",
        verify: bool = False,
        verify_seed: int = 0,
        max_plans: int = 5000,
        fault_plan: FaultPlan | None = None,
        breaker: BreakerConfig | None = None,
        plan_cache: PlanCache | None = None,
        incident_capacity: int = 1000,
        metrics: MetricsRegistry | None = None,
        session_factory=None,
        clock=time.monotonic,
        feedback: FeedbackStore | None = None,
        replan_threshold: float | None = None,
        max_replans: int = 2,
        enum_tier: str = "auto",
        isolation: str = "thread",
        max_retries: int | None = None,
        procpool=None,
        shm: bool | None = None,
    ) -> None:
        if engine not in FALLBACK_CHAIN:
            raise ValueError(
                f"unknown engine {engine!r}; pick from {FALLBACK_CHAIN}"
            )
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if isolation not in ("thread", "process"):
            raise ValueError(
                f"unknown isolation {isolation!r}; pick 'thread' or 'process'"
            )
        if isolation == "process" and session_factory is not None:
            raise ValueError(
                "session_factory is thread-only: an arbitrary factory "
                "cannot cross the process boundary"
            )
        self.db = db
        self.catalog = catalog
        self.stats = stats if stats is not None else Statistics.from_database(db)
        self.engine = engine
        self.verify = verify
        self.verify_seed = verify_seed
        self.max_plans = max_plans
        self.fault_plan = fault_plan
        self.queue_depth = queue_depth
        self._budget_template = budget
        self._service_budget = service_budget
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        if feedback is None and replan_threshold is not None:
            feedback = FeedbackStore()
        self.feedback = feedback
        if feedback is not None:
            self.stats.feedback = feedback
        self.replan_threshold = replan_threshold
        self.max_replans = max_replans
        self.enum_tier = enum_tier
        self.metrics = metrics if metrics is not None else service_registry()
        self.incidents = IncidentLog(capacity=incident_capacity)
        self.quarantined: set[Expr] = set()
        self.breakers = {
            name: CircuitBreaker(name, breaker, clock) for name in FALLBACK_CHAIN
        }
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._lock = threading.Lock()
        self._closed = False
        self._close_done = threading.Event()
        self._budget_exhausted = False
        self._next_index = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.cancelled = 0
        self.isolation = isolation
        self.shm = shm
        self.shm_enabled = False
        if isolation == "process" and shm is not False:
            from repro.relalg.pages import pages_supported

            self.shm_enabled = pages_supported()
        self._supervisor = None
        if isolation == "process":
            # imported lazily: thread-mode services never pay for the
            # multiprocessing machinery
            from repro.runtime.procpool import ProcPoolConfig, WorkerSupervisor

            config = procpool if procpool is not None else ProcPoolConfig()
            if max_retries is not None:
                from dataclasses import replace

                config = replace(config, max_retries=max_retries)
            self._supervisor = WorkerSupervisor(self, workers, config)
            backends = self._supervisor._slots  # a slot is a backend
        else:
            backends = [
                ThreadBackend(
                    session_factory,
                    **self._session_kwargs(),
                    plan_cache=self.plan_cache,
                    incidents=self.incidents,
                    quarantined=self.quarantined,
                    feedback=self.feedback,
                    metrics=self.metrics,
                )
                for _ in range(workers)
            ]
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(backend,),
                name=f"repro-service-{i}",
                daemon=True,
            )
            for i, backend in enumerate(backends)
        ]
        for thread in self._threads:
            thread.start()

    # -- admission -------------------------------------------------------

    def submit(
        self,
        query: Expr,
        required_order: tuple[tuple[str, bool], ...] = (),
    ) -> QueryTicket:
        """Admit ``query`` or shed it with a typed rejection.

        Args:
            query: The logical expression to run.
            required_order: Desired output order, forwarded to every
                worker session's planner (see
                :meth:`repro.runtime.QuerySession.run`).

        Raises:
            repro.errors.AdmissionRejected: The service is closed, its
                budget is exhausted, or the admission queue is full.
            repro.errors.WorkerPoolDegraded: Process isolation only --
                every worker slot is flapping, so load is shed instead
                of queued (an ``AdmissionRejected`` subclass).
        """
        if self._supervisor is not None and self._supervisor.degraded:
            from repro.errors import WorkerPoolDegraded

            with self._lock:
                self.rejected += 1
            self.metrics.counter("repro_sheds_total").inc()
            self.incidents.record(
                Incident(
                    kind="admission-rejected",
                    query=str(query),
                    detail=self._supervisor.snapshot(),
                    action="shed-load-pool-degraded",
                )
            )
            raise WorkerPoolDegraded("worker pool degraded: every slot flapping")
        with self._lock:
            if self._closed:
                raise AdmissionRejected("service is closed")
            if self._budget_exhausted:
                self.rejected += 1
                self.metrics.counter("repro_sheds_total").inc()
                raise AdmissionRejected("service budget exhausted")
            ticket = QueryTicket(self._next_index, query, required_order)
            self._next_index += 1
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            with self._lock:
                self.rejected += 1
            self.metrics.counter("repro_sheds_total").inc()
            self.incidents.record(
                Incident(
                    kind="admission-rejected",
                    query=str(query),
                    detail={"queue_depth": self.queue_depth},
                    action="shed-load",
                )
            )
            raise AdmissionRejected(
                "admission queue full", queue_depth=self.queue_depth
            ) from None
        with self._lock:
            self.submitted += 1
        self.metrics.counter("repro_admissions_total").inc()
        return ticket

    def run(
        self,
        query: Expr,
        timeout: float | None = None,
        required_order: tuple[tuple[str, bool], ...] = (),
    ) -> ServiceResult:
        """Submit and wait: the synchronous convenience entry point."""
        return self.submit(query, required_order).result(timeout)

    # -- shutdown --------------------------------------------------------

    def drain(self) -> None:
        """Block until every admitted query has been processed."""
        self._queue.join()

    def close(self, drain: bool = True) -> None:
        """Stop admission, settle outstanding work, join the workers.

        ``drain=True`` (default) lets queued queries finish;
        ``drain=False`` rejects them with
        :class:`repro.errors.QueryCancelled`.

        Idempotent *and* re-entrant: exactly one caller performs the
        shutdown; every other concurrent or later ``close()`` blocks
        until that shutdown has fully completed, so no caller can
        observe a half-torn-down service.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
        if not first:
            self._close_done.wait()
            return
        try:
            self._close(drain)
        finally:
            self._close_done.set()

    def _close(self, drain: bool) -> None:
        if not drain:
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _STOP:
                    self._settle_cancelled(
                        item, QueryCancelled("service shutdown"), "rejected-at-shutdown"
                    )
                self._queue.task_done()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        if self._supervisor is not None:
            self._supervisor.shutdown()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability ---------------------------------------------------

    def snapshot(self) -> dict:
        """Machine-readable service state for footers and bench JSON."""
        with self._lock:
            counters = {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "cancelled": self.cancelled,
            }
        return {
            **counters,
            "engine": self.engine,
            "workers": len(self._threads),
            "isolation": self.isolation,
            "shm": self.shm_enabled,
            "procpool": (
                self._supervisor.snapshot() if self._supervisor is not None else None
            ),
            "queue_depth": self.queue_depth,
            "breakers": {
                name: breaker.snapshot() for name, breaker in self.breakers.items()
            },
            "incidents": len(self.incidents),
            "incidents_dropped": self.incidents.dropped,
            "plan_cache": self.plan_cache.counters(),
            "feedback": self.feedback.counters() if self.feedback else None,
            "replan_threshold": self.replan_threshold,
            "fault_plan": self.fault_plan.to_dict() if self.fault_plan else None,
        }

    def export_metrics(self) -> MetricsRegistry:
        """The service registry, with plan-cache gauges freshly synced.

        Use this (rather than :attr:`metrics` directly) when exporting:
        cache hits/misses live in the shared :class:`PlanCache` and are
        copied into the registry at export time.
        """
        sync_cache_metrics(self.metrics, self.plan_cache)
        sync_engine_metrics(self.metrics)
        if self.feedback is not None:
            sync_feedback_metrics(self.metrics, self.feedback)
        return self.metrics

    # -- worker machinery ------------------------------------------------

    def _worker(self, backend) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    backend.stop()
                    return
                self._process(item, backend)
            except BaseException as exc:  # the pool must never lose a worker
                if not item.done():  # pragma: no cover - defensive
                    item._reject(
                        exc if isinstance(exc, ReproError) else EngineFailure(
                            [("worker", f"{type(exc).__name__}: {exc}")]
                        )
                    )
            finally:
                self._queue.task_done()

    def _session_kwargs(self) -> dict:
        """The picklable :class:`QuerySession` arguments every worker
        shares -- thread workers add the service's shared cache and
        journal, process-pool children their private ones."""
        return {
            "db": self.db,
            "catalog": self.catalog,
            "stats": self.stats,
            "verify": self.verify,
            "max_plans": self.max_plans,
            "verify_seed": self.verify_seed,
            "replan_threshold": self.replan_threshold,
            "max_replans": self.max_replans,
            "enum_tier": self.enum_tier,
        }

    def _engine_order(self) -> tuple[str, ...]:
        start = FALLBACK_CHAIN.index(self.engine)
        return FALLBACK_CHAIN[start:]

    def _carve_budget(self, ticket: QueryTicket) -> Budget:
        """The query's budget: template caps, service-clamped deadline."""
        template = self._budget_template
        deadline = template.deadline_ms if template is not None else None
        service = self._service_budget
        if service is not None and service.deadline_ms is not None:
            service.check_deadline(where="service-carve")  # typed when spent
            remaining = service.remaining_ms
            deadline = remaining if deadline is None else min(deadline, remaining)
        return Budget(
            deadline_ms=deadline,
            max_plans=template.max_plans if template else None,
            max_rows=template.max_rows if template else None,
            cancel=ticket.cancel_token,
        )

    def _charge_service(self, spent: Budget) -> None:
        """Charge a query's spend back to the shared service budget."""
        service = self._service_budget
        if service is None:
            return
        try:
            if spent.plans:
                service.charge_plans(spent.plans, where="service-aggregate")
            if spent.rows:
                service.charge_rows(spent.rows, where="service-aggregate")
        except BudgetExceeded as exc:
            with self._lock:
                already = self._budget_exhausted
                self._budget_exhausted = True
            if not already:
                self.incidents.record(
                    Incident(
                        kind="service-budget-exhausted",
                        query="",
                        detail=exc.to_dict(),
                        action="admission-closed",
                    )
                )

    def _note_transition(self, engine: str, transition: str | None, query) -> None:
        if transition is None:
            return
        self.metrics.counter("repro_breaker_transitions_total").labels(
            engine=engine, to=transition
        ).inc()
        kind = {
            "open": "breaker-open",
            "half-open": "breaker-half-open",
            "closed": "breaker-closed",
        }[transition]
        self.incidents.record(
            Incident(
                kind=kind,
                query=str(query),
                detail=self.breakers[engine].snapshot(),
                action={
                    "open": f"routing around {engine}",
                    "half-open": f"probing {engine}",
                    "closed": f"restored {engine}",
                }[transition],
            )
        )

    def _trip(self, engine: str, query) -> None:
        self._note_transition(engine, self.breakers[engine].record_failure(), query)

    def _process(self, ticket: QueryTicket, backend) -> None:
        t0 = time.monotonic()
        if ticket.cancel_token.cancelled:
            self._settle_cancelled(
                ticket,
                QueryCancelled("before start"),
                "dropped-before-start",
                queue_ms=round((t0 - ticket.submitted_at) * 1000.0, 3),
            )
            return
        # only in-thread attempts reach a fault point under this scope;
        # a process-pool child salts its own stream per delivery
        stream = (
            self.fault_plan.stream(ticket.index) if self.fault_plan else None
        )
        qbudget: Budget | None = None
        try:
            with fault_scope(stream):
                backend.preflight(ticket)
                qbudget = self._carve_budget(ticket)
                self._route(ticket, backend, qbudget, t0)
        except BaseException as exc:
            # typed pre-flight and carve failures (poisoned query,
            # service deadline spent) and anything the routing loop
            # re-raised
            self._settle_failure(ticket, exc)
        finally:
            if qbudget is not None:
                self._charge_service(qbudget)

    def _route(self, ticket: QueryTicket, backend, qbudget: Budget, t0: float) -> None:
        attempts: list[tuple[str, str]] = []
        last_error: BaseException | None = None
        for engine in self._engine_order():
            breaker = self.breakers[engine]
            if engine == "reference":
                allowed, transition = True, None  # the floor is never gated
            else:
                allowed, transition = breaker.allow()
            self._note_transition(engine, transition, ticket.query)
            if not allowed:
                attempts.append((engine, "breaker-open"))
                continue
            try:
                result = backend.attempt(ticket, engine, qbudget)
            except QueryCancelled as exc:
                action = _unwind_action(exc, "unwound-at-checkpoint")
                self._settle_cancelled(ticket, exc, action, engine=engine)
                return
            except BudgetExceeded as exc:
                # ran out of resources, not an engine defect: retrying on
                # a slower engine under the same spent budget cannot help
                self.incidents.record(
                    Incident(
                        kind="budget-exhausted",
                        query=str(ticket.query),
                        detail={"engine": engine, **exc.to_dict()},
                        action=_unwind_action(exc, "typed-error"),
                    )
                )
                self._settle_failure(ticket, exc)
                return
            except (UserInputError, WorkerCrashed, AdmissionRejected):
                # the query's fault or the worker pool's; no engine is
                # to blame
                raise
            except Exception as exc:  # crash (injected or genuine)
                message = f"{type(exc).__name__}: {exc}"
                attempts.append((engine, message))
                last_error = exc
                self.metrics.counter("repro_engine_failures_total").labels(
                    engine=engine
                ).inc()
                self.incidents.record(
                    Incident(
                        kind="engine-failure",
                        query=str(ticket.query),
                        detail={
                            "engine": engine,
                            "error": type(exc).__name__,
                            "message": str(exc),
                            "index": ticket.index,
                        },
                        action="rerouted",
                    )
                )
                if engine != "reference":
                    self._trip(engine, ticket.query)
                continue
            if result.verified is False:
                # wrong plan contained by the session (fell back to the
                # original); the mismatch still counts against the engine
                if engine != "reference":
                    self._trip(engine, ticket.query)
            elif engine != "reference":
                self._note_transition(
                    engine, breaker.record_success(), ticket.query
                )
            with self._lock:
                self.completed += 1
            service_ms = (time.monotonic() - t0) * 1000.0
            self.metrics.counter("repro_queries_total").labels(
                outcome="ok"
            ).inc()
            self.metrics.histogram("repro_query_latency_ms").observe(service_ms)
            ticket._resolve(
                ServiceResult(
                    session=result,
                    engine=engine,
                    attempts=tuple(attempts),
                    index=ticket.index,
                    service_ms=service_ms,
                    queue_ms=(t0 - ticket.submitted_at) * 1000.0,
                )
            )
            return
        # every engine refused or failed
        error: BaseException
        if isinstance(last_error, ReproError):
            error = last_error
        else:
            error = EngineFailure(attempts)
        self.incidents.record(
            Incident(
                kind="query-failed",
                query=str(ticket.query),
                detail={"attempts": [list(a) for a in attempts]},
                action="typed-error",
            )
        )
        self._settle_failure(ticket, error)

    def _settle_cancelled(
        self, ticket: QueryTicket, exc: QueryCancelled, action: str, **detail
    ) -> None:
        with self._lock:
            self.cancelled += 1
        self.incidents.record(
            Incident(
                kind="query-cancelled",
                query=str(ticket.query),
                detail={"index": ticket.index, **detail},
                action=action,
            )
        )
        ticket._reject(exc)

    def _settle_failure(self, ticket: QueryTicket, exc: BaseException) -> None:
        with self._lock:
            self.failed += 1
        self.metrics.counter("repro_queries_total").labels(outcome="error").inc()
        if not isinstance(exc, ReproError):
            exc = EngineFailure([("service", f"{type(exc).__name__}: {exc}")])
        if not ticket.done():
            ticket._reject(exc)


__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "FALLBACK_CHAIN",
    "QueryService",
    "QueryTicket",
    "ServiceResult",
]
