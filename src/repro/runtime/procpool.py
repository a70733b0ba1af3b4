"""Process-level fault isolation: a supervised worker-process pool.

Thread workers (:class:`repro.runtime.QueryService`'s default) contain
*typed* failures -- engine crashes, budget overruns, wrong plans -- but
a segfaulting native extension, a runaway C loop, or an ``os._exit``
deep in a dependency takes the whole process down, queries, breakers
and all.  This module moves execution into child processes so the
blast radius of a dying worker is one query, not the service:

* A :class:`WorkerSupervisor` owns N ``multiprocessing`` workers
  (``spawn`` start method -- the parent is threaded, so ``fork`` is
  off the table).  Each child runs full :class:`QuerySession` stacks
  over the pickled database/catalog/statistics; the pickled init blob
  is built once and cached, so restarts are cheap.
* **Three-way failure detection.**  (1) the child's exit code / death
  signal, (2) missed heartbeats -- children beat over the result pipe
  while a query is in flight, so a wedged worker is distinguishable
  from an idle one -- and (3) per-query deadline overrun with a grace
  period, after which the supervisor sends SIGKILL.
* **Restart with backoff.**  A dead worker is respawned under
  exponential backoff plus jitter.  Restarts are counted per slot in a
  sliding window; past the threshold the slot enters a circuit-style
  *flapping* state and sheds its work with the typed
  :class:`repro.errors.WorkerPoolDegraded` until a cooldown expires --
  a crash-looping pool must answer "no" cheaply, not respawn forever.
* **At-most-``max_retries`` redelivery.**  Queries here are read-only,
  so a query that was in flight on a dead worker is safely retried on
  a fresh one; past the cap it surfaces the typed
  :class:`repro.errors.WorkerCrashed` with the death reason journaled.
* **Poisoned-query quarantine.**  A query fingerprint that kills
  workers ``poison_threshold`` times in a row is quarantined: further
  occurrences fail fast instead of grinding the pool down.

Routing stays in the parent, in :class:`QueryService`'s one worker
loop and engine walk: a slot is that loop's *backend*, and all it adds
is how one *engine attempt* is made -- delivered to a child, with typed
errors coming back over the pipe (encoded structurally; exception
classes with custom constructors do not survive pickling) and the
child's incident-journal delta merged into the parent log so one ring
buffer tells the whole story.

Determinism: the per-query fault stream is still derived from
``(plan seed, admission index)`` -- the process-level kinds
(``worker:kill9``, ``worker:hang``, ``worker:exit``) are rolled first,
at task receipt inside the child, so chaos runs reproduce exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.errors import (
    BudgetExceeded,
    DeadlineExceeded,
    EngineFailure,
    InjectedFault,
    OptimizerInternalError,
    PlanBudgetExceeded,
    QueryCancelled,
    ReproError,
    RowBudgetExceeded,
    UserInputError,
    VerificationFailed,
    WorkerCrashed,
    WorkerPoolDegraded,
)
from repro.runtime.budget import Budget
from repro.runtime.incidents import Incident, IncidentLog
from repro.runtime.plan_cache import PlanCache, query_fingerprint
from repro.runtime.service import ThreadBackend
from repro.runtime.tracing import span

#: The fault site process-level clauses target (``worker:kill9`` etc.
#: match by dot-boundary prefix, exactly like engine sites).
WORKER_FAULT_SITE = "worker.query"

#: Exit code for the injected ``worker:exit`` fault (EX_SOFTWARE).
_EXIT_FAULT_CODE = 70


@dataclass(frozen=True)
class ProcPoolConfig:
    """Tunables for the supervised process pool.

    The defaults favour fast tests over production patience: a worker
    that misses heartbeats for two seconds is presumed wedged, and a
    slot that restarts five times inside ten seconds is flapping.
    """

    max_retries: int = 2
    heartbeat_interval_s: float = 0.1
    heartbeat_timeout_s: float = 2.0
    deadline_grace_s: float = 0.5
    poll_interval_s: float = 0.02
    restart_backoff_s: float = 0.05
    restart_backoff_cap_s: float = 2.0
    restart_jitter_s: float = 0.02
    flap_threshold: int = 5
    flap_window_s: float = 10.0
    flap_cooldown_s: float = 5.0
    poison_threshold: int = 2
    spawn_timeout_s: float = 60.0
    start_method: str = "spawn"
    # cache warm-up: how many recently successful queries a fresh
    # worker pre-plans, and the planning budget for each (a
    # restart must come back warm, not come back late)
    warmup_limit: int = 16
    warmup_deadline_ms: float = 250.0


# -- error transport ------------------------------------------------------
#
# ReproError subclasses carry structured fields through custom
# constructors, and ``pickle`` rebuilds exceptions via ``cls(*args)`` --
# which explodes for anything whose ``__init__`` signature is not
# ``(message)``.  So errors cross the pipe as plain dicts and are
# rebuilt from a registry on the parent side.

_MESSAGE_ERRORS = {
    cls.__name__: cls
    for cls in (
        UserInputError,
        OptimizerInternalError,
        VerificationFailed,
        ReproError,
    )
}
_BUDGET_ERRORS = {
    cls.__name__: cls
    for cls in (BudgetExceeded, DeadlineExceeded, PlanBudgetExceeded, RowBudgetExceeded)
}
#: every ``kind`` :func:`decode_error` rebuilds as itself
_REBUILT = {*_MESSAGE_ERRORS, *_BUDGET_ERRORS}
_REBUILT |= {"QueryCancelled", "InjectedFault", "EngineFailure"}


def encode_error(exc: BaseException) -> dict:
    """Structural form of ``exc`` for the result pipe.

    ``kind`` names the nearest ancestor :func:`decode_error` rebuilds,
    so a ``SchemaError`` lands as the ``UserInputError`` it is, not as
    an engine bug; classes outside the taxonomy keep their own name.
    """
    names = [cls.__name__ for cls in type(exc).__mro__]
    kind = next((name for name in names if name in _REBUILT), names[0])
    out: dict = {"kind": kind, "message": str(exc)}
    if isinstance(exc, BudgetExceeded):
        out["detail"] = {
            "limit": exc.limit,
            "spent": exc.spent,
            "where": exc.where,
        }
    elif isinstance(exc, QueryCancelled):
        out["detail"] = {"where": exc.where}
    elif isinstance(exc, InjectedFault):
        out["detail"] = {"site": exc.site, "spec": exc.spec}
    elif isinstance(exc, EngineFailure):
        out["detail"] = {"attempts": [list(a) for a in exc.attempts]}
    return out


def decode_error(payload: dict) -> BaseException:
    """Rebuild the typed error :func:`encode_error` flattened.

    Unknown kinds (a genuine engine bug of any class) come back as
    the member of the taxonomy the thread path would produce:
    an :class:`EngineFailure` wrapping the message.
    """
    kind = payload.get("kind", "")
    message = payload.get("message", "")
    detail = payload.get("detail", {})
    if kind in _BUDGET_ERRORS:
        return _BUDGET_ERRORS[kind](
            detail.get("limit", 0.0), detail.get("spent", 0.0), detail.get("where", "")
        )
    if kind == "QueryCancelled":
        return QueryCancelled(detail.get("where", ""))
    if kind == "InjectedFault":
        return InjectedFault(detail.get("site", ""), detail.get("spec", ""))
    if kind == "EngineFailure":
        return EngineFailure([tuple(a) for a in detail.get("attempts", [])])
    if kind in _MESSAGE_ERRORS:
        return _MESSAGE_ERRORS[kind](message)
    return EngineFailure([("worker", f"{kind}: {message}")])


# -- the child ------------------------------------------------------------


def _perform_process_fault(kind: str) -> None:
    """Carry out a rolled process-level fault.  May never return."""
    if kind == "kill9":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "exit":
        os._exit(_EXIT_FAULT_CODE)
    elif kind == "hang":
        # wedged, not dead: never beats, never answers, never exits --
        # exactly the failure mode heartbeat detection exists for.
        while True:
            time.sleep(60.0)


def _heartbeat_loop(conn, send_lock, busy, stop, interval_s: float) -> None:
    """Beat over the result pipe while a query is in flight.

    Idle workers stay silent: an unbounded heartbeat stream into a
    pipe nobody is draining would eventually fill the OS buffer and
    deadlock the child.  The parent only watches for beats while it is
    awaiting a result, so busy-only beats are exactly sufficient.
    """
    while not stop.is_set():
        if not busy.wait(0.1):
            continue
        try:
            with send_lock:
                conn.send(("heartbeat",))
        except (BrokenPipeError, OSError):
            os._exit(0)  # the parent is gone; nothing left to serve
        if stop.wait(interval_s):
            return


def _worker_main(conn, init_blob: bytes) -> None:
    """Child entry point: sessions over the unpickled snapshot.

    Protocol (tuples over the duplex pipe):

    parent -> child: ``("task", {...})`` | ``("shutdown",)``
    child -> parent: ``("ready", pid)`` | ``("heartbeat",)`` |
    ``("result", payload)`` | ``("error", payload)`` | ``("bye",)``

    Every result/error payload carries the child's incident-journal
    delta and its budget spend, so parent-side observability and
    service budget charge-back see through the process boundary.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent coordinates
    init = pickle.loads(init_blob)
    session_kwargs = init["session"]
    db = session_kwargs["db"]
    handles = init.get("page_handles") or {}
    if handles:
        # zero-copy path: the blob carried only unpageable tables; the
        # rest attach from the supervisor's shared-memory pages.  The
        # resource tracker is told to forget each segment -- only the
        # creating parent may unlink.
        from repro.relalg.pages import attach_page

        for table, handle in handles.items():
            with span("page.attach", table=table, segment=handle.segment):
                db.add(table, attach_page(handle).relation())
    feedback = None
    if session_kwargs["replan_threshold"] is not None:
        from repro.runtime.feedback import FeedbackStore

        feedback = FeedbackStore()
        session_kwargs["stats"].feedback = feedback
    incidents = IncidentLog(capacity=init["incident_capacity"])
    # the in-thread backend, at the far end of the pipe
    session_for = ThreadBackend(
        **session_kwargs,
        plan_cache=PlanCache(),
        incidents=incidents,
        quarantined=set(),
        feedback=feedback,
    ).session
    fault_plan = init["fault_plan"]
    send_lock = threading.Lock()
    busy = threading.Event()
    stop = threading.Event()
    beater = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, send_lock, busy, stop, init["heartbeat_interval_s"]),
        daemon=True,
    )
    beater.start()
    with send_lock:
        conn.send(("ready", os.getpid()))
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            if msg[0] == "shutdown":
                with send_lock:
                    conn.send(("bye",))
                return
            if msg[0] == "warmup":
                _warm_cache(
                    msg[1],
                    session_for,
                    init["engine"],
                    init["warmup_deadline_ms"],
                )
                continue
            _run_task(msg[1], session_for, fault_plan, incidents, conn, send_lock, busy)
    finally:
        stop.set()


def _warm_cache(entries, session_for, engine: str, deadline_ms: float) -> None:
    """Pre-plan recently successful queries into this child's cache.

    Runs between the ready handshake and the first task, so a
    restarted worker answers its first repeated query from a warm
    cache instead of re-optimizing from scratch.  Each entry
    gets a small planning budget and failures are ignored -- warm-up
    is an optimization, never a correctness dependency.
    """
    session = session_for(engine)
    for query, required_order in entries:
        try:
            with span("cache.warmup"):
                session.plan(
                    query,
                    budget=Budget(deadline_ms=deadline_ms),
                    required_order=required_order,
                )
        except Exception:
            continue


def _run_task(task, session_for, fault_plan, incidents, conn, send_lock, busy) -> None:
    from repro.runtime.faults import fault_scope

    stream = (
        fault_plan.stream(task["index"], task.get("attempt", 0))
        if fault_plan
        else None
    )
    journal_mark = len(incidents)
    budget = Budget.from_caps(task["caps"])
    try:
        with fault_scope(stream):
            if stream is not None:
                # rolled before heartbeats start: an injected hang is
                # caught by heartbeat timeout, not the deadline.
                fired = stream.apply_process(WORKER_FAULT_SITE)
                if fired is not None:
                    _perform_process_fault(fired)
            busy.set()
            result = session_for(task["engine"]).run(
                task["query"], budget=budget, required_order=task["required_order"]
            )
        reply = (
            "result",
            {
                "session": result,
                "incidents": incidents.records[journal_mark:],
                "spend": {"plans": budget.plans, "rows": budget.rows},
            },
        )
    except BaseException as exc:
        reply = (
            "error",
            {
                **encode_error(exc),
                "incidents": incidents.records[journal_mark:],
                "spend": {"plans": budget.plans, "rows": budget.rows},
            },
        )
    finally:
        busy.clear()
    with send_lock:
        conn.send(reply)


# -- the parent -----------------------------------------------------------


class _Slot:
    """One worker position: current process, pipe, and flap history.

    A slot is owned by exactly one service worker thread, which drives
    it through the backend contract of
    :class:`repro.runtime.service.ThreadBackend` (:meth:`preflight`,
    :meth:`attempt`, :meth:`stop`), so the per-ticket delivery state
    needs no lock; only the flap-state fields are read cross-thread
    (under the supervisor lock) to answer the pool-degraded question.
    """

    def __init__(self, supervisor: "WorkerSupervisor", index: int) -> None:
        self.supervisor = supervisor
        self.index = index
        self.process = None
        self.conn = None
        self.restarts: deque[float] = deque()
        self.flapping_until = 0.0
        self.consecutive_failures = 0
        self.next_reason = "start"  # why the next (re)spawn happens
        # the ticket in hand: these run across its engine attempts
        self.fingerprint = ""
        self.retries = 0
        self.deliveries = 0  # salts the fault stream per delivery

    def preflight(self, ticket) -> None:
        """Start a ticket; a quarantined fingerprint fails fast."""
        sup = self.supervisor
        self.fingerprint = fingerprint = query_fingerprint(ticket.query)
        self.retries = self.deliveries = 0
        if fingerprint in sup._poisoned:
            sup.service.incidents.record(
                Incident(
                    kind="poisoned-query-rejected",
                    query=str(ticket.query),
                    detail={"index": ticket.index, "fingerprint": fingerprint},
                    action="failed-fast",
                )
            )
            raise WorkerCrashed("poisoned", poisoned=True, fingerprint=fingerprint)

    def attempt(self, ticket, engine: str, qbudget: Budget):
        """One engine attempt, redelivered while workers die under it.

        Returns the child's :class:`SessionResult` or raises what the
        attempt raised there (rebuilt by :func:`decode_error`).  The
        pool's own verdicts are typed too: :class:`WorkerCrashed` past
        the retry cap or at quarantine, ``DeadlineExceeded`` /
        ``QueryCancelled`` when the supervisor killed the worker on
        purpose, :class:`WorkerPoolDegraded` while the slot is flapping.
        """
        sup, fingerprint = self.supervisor, self.fingerprint
        svc = sup.service
        while True:  # redelivery loop for worker deaths
            try:
                sup._ensure_worker(self, ticket.query)
                status, payload = sup._exchange(
                    self, ticket, qbudget, engine, self.deliveries
                )
            except ReproError:
                raise
            except Exception as exc:
                # the pool failed before any engine ran (spawn refused,
                # task unpicklable): typed as the pool's, so the service
                # neither reroutes nor trips a breaker over it
                raise WorkerPoolDegraded(
                    f"worker {self.index} dispatch failed: {exc!r}"
                ) from exc
            self.deliveries += 1
            if status != "died":
                break
            reason = payload
            self.consecutive_failures += 1
            deaths, quarantine = sup._record_death(fingerprint)
            svc.incidents.record(
                Incident(
                    kind="worker-crashed",
                    query=str(ticket.query),
                    detail={
                        "index": ticket.index,
                        "worker": self.index,
                        "engine": engine,
                        "reason": reason,
                        "retries": self.retries,
                    },
                    action="worker-restarting",
                )
            )
            if quarantine:
                svc.incidents.record(
                    Incident(
                        kind="poisoned-query-quarantined",
                        query=str(ticket.query),
                        detail={"fingerprint": fingerprint, "worker_deaths": deaths},
                        action="quarantined",
                    )
                )
            poisoned = deaths >= sup.config.poison_threshold
            if poisoned or self.retries >= sup.config.max_retries:
                raise WorkerCrashed(
                    reason,
                    retries=self.retries,
                    poisoned=poisoned,
                    fingerprint=fingerprint,
                )
            self.retries += 1
            with sup._lock:
                sup.retries += 1
            svc.metrics.counter("repro_worker_retries_total").inc()
            with span("worker.retry", worker=str(self.index), reason=reason):
                pass
        if status == "deadline":
            # the worker blew through deadline + grace and was killed;
            # surface the budget truth, not a crash.
            raise DeadlineExceeded(
                qbudget.deadline_ms or 0.0, qbudget.elapsed_ms, "worker-deadline"
            )
        if status == "cancelled":
            raise QueryCancelled("worker-killed")
        # a completed exchange (ok or typed error): the query no longer
        # kills workers, so its death streak resets
        with sup._lock:
            sup._kills.pop(fingerprint, None)
        self.consecutive_failures = 0
        spend = payload.get("spend", {})
        qbudget.tick(
            rows=spend.get("rows", 0),
            plans=spend.get("plans", 0),
            where="worker-spend",
        )
        if status == "error":
            raise decode_error(payload)
        sup._note_warm(fingerprint, ticket.query, ticket.required_order)
        return payload["session"]

    def stop(self) -> None:
        self.supervisor._shutdown_slot(self)


class WorkerSupervisor:
    """Owns the worker processes: spawn, watch, reap, restart.

    Created by :class:`QueryService` when ``isolation="process"``.
    The service's worker loop, admission control, budgets, breakers
    and engine walk are unchanged; each of its worker threads drives
    one :class:`_Slot` as its backend, so this class adds only the
    process boundary and its failure handling.
    """

    def __init__(self, service, workers: int, config: ProcPoolConfig) -> None:
        self.service = service
        self.config = config
        self._ctx = multiprocessing.get_context(config.start_method)
        self._slots = [_Slot(self, i) for i in range(workers)]
        self._lock = threading.Lock()
        self._rng = random.Random()
        self._kills: dict[str, int] = {}  # fingerprint -> consecutive worker deaths
        self._poisoned: set[str] = set()
        self._shutdown = False
        self.restarts = 0
        self.retries = 0
        # recently successful (query, required_order) pairs, newest
        # last, broadcast to fresh workers so restarts come back warm
        self._warm: OrderedDict[str, tuple] = OrderedDict()
        self._warm_lock = threading.Lock()
        self.page_registry = None
        if getattr(service, "shm_enabled", False):
            from repro.relalg.pages import PageRegistry, sweep_orphans

            with span("page.sweep"):
                swept = sweep_orphans()
            if swept:
                service.metrics.counter("repro_shm_orphans_swept_total").inc(
                    len(swept)
                )
                service.incidents.record(
                    Incident(
                        kind="shm-orphans-swept",
                        query="",
                        detail={"segments": swept},
                        action="unlinked",
                    )
                )
            with span("page.build"):
                self.page_registry = PageRegistry.build(service.db)
            registry = self.page_registry
            service.metrics.gauge("repro_shm_segments").set(
                len(registry.handles)
            )
            service.metrics.gauge("repro_shm_bytes").set(registry.nbytes)
            if registry.fallback:
                service.metrics.counter("repro_shm_fallback_total").inc(
                    len(registry.fallback)
                )
        self._init_blob = self._build_init_blob()

    # -- wiring -----------------------------------------------------------

    def _build_init_blob(self) -> bytes:
        svc = self.service
        registry = self.page_registry
        session_kwargs = svc._session_kwargs()
        if registry is None:
            page_handles = None
        else:
            # only unpageable tables ride the pickle; the rest cross
            # as page handles, a few dozen bytes per table
            from repro.expr.evaluate import Database

            db = Database()
            for table in registry.fallback:
                db.add(table, svc.db[table])
            session_kwargs["db"] = db
            page_handles = dict(registry.handles)
        # the feedback store holds locks and cannot cross the pipe;
        # children build their own when re-planning is armed.
        stashed = getattr(svc.stats, "feedback", None)
        svc.stats.feedback = None
        try:
            return pickle.dumps(
                {
                    "session": session_kwargs,
                    "page_handles": page_handles,
                    "engine": svc.engine,
                    "warmup_deadline_ms": self.config.warmup_deadline_ms,
                    "fault_plan": svc.fault_plan,
                    "incident_capacity": svc.incidents.capacity,
                    "heartbeat_interval_s": self.config.heartbeat_interval_s,
                }
            )
        finally:
            svc.stats.feedback = stashed

    # -- state ------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when *every* slot is flapping: shed at admission."""
        now = time.monotonic()
        with self._lock:
            return all(slot.flapping_until > now for slot in self._slots)

    def snapshot(self) -> dict:
        now = time.monotonic()
        with self._lock:
            flapping = sum(1 for s in self._slots if s.flapping_until > now)
            return {
                "workers": len(self._slots),
                "alive": sum(
                    1
                    for s in self._slots
                    if s.process is not None and s.process.is_alive()
                ),
                "restarts": self.restarts,
                "retries": self.retries,
                "flapping": flapping,
                "degraded": flapping == len(self._slots),
                "poisoned": len(self._poisoned),
                "shm": (
                    self.page_registry.snapshot()
                    if self.page_registry is not None
                    else None
                ),
                "warm_queries": len(self._warm),
            }

    def _record_death(self, fingerprint: str) -> tuple[int, bool]:
        """Count one more consecutive worker death for ``fingerprint``.

        Returns ``(deaths, quarantine)``.  The bump and the threshold
        test are one step under the lock -- every slot's worker thread
        reports here, and a dropped death would delay quarantine past
        ``poison_threshold`` -- and ``quarantine`` is true for exactly
        one caller: the one whose report carried the streak to the
        threshold.
        """
        with self._lock:
            deaths = self._kills[fingerprint] = self._kills.get(fingerprint, 0) + 1
            quarantine = (
                deaths >= self.config.poison_threshold
                and fingerprint not in self._poisoned
            )
            if quarantine:
                self._poisoned.add(fingerprint)
        return deaths, quarantine

    # -- one delivery over the pipe -----------------------------------------

    def _exchange(
        self, slot: _Slot, ticket, qbudget: Budget, engine: str, attempt: int
    ):
        """Deliver one engine attempt to the slot's worker, watch it run.

        Returns ``(status, payload)``:

        * ``("ok", result_payload)`` / ``("error", error_payload)`` --
          the child answered; incidents are already merged.
        * ``("died", reason)`` -- the worker is gone (killed, crashed
          or wedged); the slot has been reaped and ``slot.next_reason``
          records why for the restart metric.
        * ``("deadline", None)`` / ``("cancelled", None)`` -- the
          supervisor killed the worker on purpose.
        """
        cfg = self.config
        svc = self.service
        conn = slot.conn
        caps = qbudget.caps()
        gauge = svc.metrics.gauge("repro_worker_heartbeat_age_seconds").labels(
            worker=str(slot.index)
        )
        try:
            while conn.poll(0):  # drop stale heartbeats from a prior task
                conn.recv()
            conn.send(
                (
                    "task",
                    {
                        "index": ticket.index,
                        "query": ticket.query,
                        "required_order": ticket.required_order,
                        "caps": caps,
                        "engine": engine,
                        "attempt": attempt,
                    },
                )
            )
        except (BrokenPipeError, EOFError, OSError):
            return ("died", self._reap(slot, expected_reason="pipe-closed"))
        sent_at = time.monotonic()
        deadline_at = (
            None
            if caps["deadline_ms"] is None
            else sent_at + caps["deadline_ms"] / 1000.0 + cfg.deadline_grace_s
        )
        last_beat = sent_at
        while True:
            try:
                ready = conn.poll(cfg.poll_interval_s)
            except (BrokenPipeError, OSError):
                return ("died", self._reap(slot, expected_reason="pipe-closed"))
            if ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    return ("died", self._reap(slot, expected_reason="pipe-closed"))
                tag = msg[0]
                if tag == "heartbeat":
                    last_beat = time.monotonic()
                    gauge.set(0.0)
                    continue
                if tag in ("result", "error"):
                    gauge.set(0.0)
                    payload = msg[1]
                    svc.incidents.extend(payload.get("incidents", ()))
                    return ("ok" if tag == "result" else "error", payload)
                continue  # unknown tag: ignore
            now = time.monotonic()
            if ticket.cancel_token.cancelled:
                self._kill(slot, "cancel")
                return ("cancelled", None)
            age = now - last_beat
            gauge.set(age)
            if slot.process is not None and not slot.process.is_alive():
                if conn.poll(0):
                    continue  # drain the final buffered message first
                return ("died", self._reap(slot))
            if age > cfg.heartbeat_timeout_s:
                self._kill(slot, "hang")
                return ("died", "hang")
            if deadline_at is not None and now > deadline_at:
                self._kill(slot, "deadline")
                return ("deadline", None)

    # -- process lifecycle -------------------------------------------------

    def _ensure_worker(self, slot: _Slot, query) -> None:
        """Make the slot's worker live, respawning under backoff.

        Raises :class:`WorkerPoolDegraded` while the slot is flapping:
        its dispatcher sheds work instead of feeding a crash loop.
        """
        if slot.process is not None and not slot.process.is_alive():
            self._reap(slot)  # died idle between queries
        if (
            slot.process is not None
            and slot.process.is_alive()
            and slot.conn is not None
        ):
            return
        cfg = self.config
        now = time.monotonic()
        with self._lock:
            flapping = slot.flapping_until > now
        if flapping:
            raise WorkerPoolDegraded(
                f"worker {slot.index} flapping "
                f"({cfg.flap_threshold} restarts in {cfg.flap_window_s:g}s)"
            )
        reason = slot.next_reason
        if reason != "start" and slot.consecutive_failures:
            backoff = min(
                cfg.restart_backoff_cap_s,
                cfg.restart_backoff_s * (2 ** (slot.consecutive_failures - 1)),
            ) + self._rng.random() * cfg.restart_jitter_s
            time.sleep(backoff)
        name = "worker.spawn" if reason == "start" else "worker.restart"
        with span(name, worker=str(slot.index), reason=reason):
            self._spawn(slot, reason, query)

    def _spawn(self, slot: _Slot, reason: str, query) -> None:
        cfg = self.config
        svc = self.service
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._init_blob),
            name=f"repro-worker-{slot.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent's copy; the child keeps its own
        svc.metrics.counter("repro_worker_restarts_total").labels(
            reason=reason
        ).inc()
        with self._lock:
            self.restarts += 1
        if reason != "start":
            self._note_flap(slot, query)
        deadline = time.monotonic() + cfg.spawn_timeout_s

        def _spawn_failed(why: str) -> WorkerPoolDegraded:
            process.kill()
            process.join(1.0)
            try:
                parent_conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            slot.process = None
            slot.conn = None
            slot.consecutive_failures += 1
            slot.next_reason = "spawn-failed"
            return WorkerPoolDegraded(f"worker {slot.index} failed to start: {why}")

        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _spawn_failed(f"no ready within {cfg.spawn_timeout_s:g}s")
            try:
                ready = parent_conn.poll(min(0.05, max(remaining, 0.001)))
            except (BrokenPipeError, OSError):
                raise _spawn_failed("pipe closed during startup") from None
            if ready:
                try:
                    msg = parent_conn.recv()
                except (EOFError, OSError):
                    raise _spawn_failed(
                        f"died during startup (exit {process.exitcode})"
                    ) from None
                if msg[0] == "ready":
                    break
            elif not process.is_alive():
                raise _spawn_failed(f"exited during startup ({process.exitcode})")
        warm = self._warm_entries()
        if warm:
            # broadcast the warm-up set before the first task: the
            # child processes messages in order, so its cache is hot
            # by the time any query arrives
            try:
                parent_conn.send(("warmup", warm))
                svc.metrics.counter("repro_cache_warmup_total").inc(len(warm))
            except (BrokenPipeError, OSError):  # pragma: no cover - racy death
                pass
        slot.process = process
        slot.conn = parent_conn
        slot.next_reason = "start"

    def _warm_entries(self) -> list[tuple]:
        with self._warm_lock:
            return list(self._warm.values())

    def _note_warm(self, fingerprint: str, query, required_order) -> None:
        """Record a successful query for future worker warm-ups (LRU)."""
        with self._warm_lock:
            self._warm.pop(fingerprint, None)
            self._warm[fingerprint] = (query, required_order)
            while len(self._warm) > self.config.warmup_limit:
                self._warm.popitem(last=False)

    def _note_flap(self, slot: _Slot, query) -> None:
        cfg = self.config
        now = time.monotonic()
        with self._lock:
            slot.restarts.append(now)
            horizon = now - cfg.flap_window_s
            while slot.restarts and slot.restarts[0] < horizon:
                slot.restarts.popleft()
            tripped = (
                len(slot.restarts) >= cfg.flap_threshold
                and slot.flapping_until <= now
            )
            if tripped:
                slot.flapping_until = now + cfg.flap_cooldown_s
                slot.restarts.clear()
        if tripped:
            self.service.incidents.record(
                Incident(
                    kind="worker-flapping",
                    query=str(query),
                    detail={
                        "worker": slot.index,
                        "threshold": cfg.flap_threshold,
                        "window_s": cfg.flap_window_s,
                        "cooldown_s": cfg.flap_cooldown_s,
                    },
                    action="slot-shedding",
                )
            )

    def _kill(self, slot: _Slot, reason: str) -> None:
        """SIGKILL the slot's worker and reap it (reason journaled)."""
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()
        self._reap(slot, expected_reason=reason)

    def _reap(self, slot: _Slot, expected_reason: str | None = None) -> str:
        """Collect a dead worker; returns the death reason string.

        The exit code wins over a generic ``pipe-closed``: a SIGKILLed
        child often surfaces first as an EOF on the pipe, but
        ``exit:-9`` is the truth an incident reader wants.
        """
        process = slot.process
        reason = expected_reason or "unknown"
        if process is not None:
            process.join(2.0)
            if expected_reason in (None, "pipe-closed"):
                code = process.exitcode
                if code is not None:
                    reason = f"exit:{code}"
                elif expected_reason is None:
                    reason = "exit:?"
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        slot.process = None
        slot.conn = None
        slot.next_reason = reason
        return reason

    def _shutdown_slot(self, slot: _Slot) -> None:
        """Graceful drain for one worker: ask, wait briefly, then kill."""
        process, conn = slot.process, slot.conn
        if process is None:
            return
        try:
            if conn is not None:
                conn.send(("shutdown",))
        except (BrokenPipeError, OSError):
            pass
        process.join(2.0)
        if process.is_alive():
            process.kill()
            process.join(1.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        slot.process = None
        slot.conn = None

    def shutdown(self) -> None:
        """Reap every worker (idempotent; called after dispatchers join)."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for slot in self._slots:
            self._shutdown_slot(slot)
        if self.page_registry is not None:
            # workers are gone; destroying the segments is now safe
            self.page_registry.close(unlink=True)


__all__ = [
    "ProcPoolConfig",
    "WORKER_FAULT_SITE",
    "WorkerSupervisor",
    "decode_error",
    "encode_error",
]
