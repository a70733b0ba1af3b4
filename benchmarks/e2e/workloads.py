"""The four workloads: what they replay, through which front door.

A workload is a *fixed, seeded request list* (SQL text) replayed pass
after pass through one of the program's front doors:

* ``session``  -- ``QuerySession.run_sql`` in this process, one client;
* ``thread``   -- ``QueryService(isolation="thread")``, the client
  parsing and translating each request as the CLI does;
* ``process``  -- the same through ``QueryService(isolation="process")``.

``System`` hides which, so the pass runner, the set-up timer and the
traced replay drive all four the same way: SQL text in, checked rows
out.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass

import datagen
import stats as est

CLIENTS = min(2, os.cpu_count() or 1)

#: classes whose plan is never served from the cache on the fixed-
#: constant lists keep an eighth of the weight there: chain14_inner re-plans
#: at the GREEDY rung on every request (~20 ms), and at full weight
#: the "execution" and "service" workloads would mostly measure that.
#: Never fewer than three per pass, so its per-pass median survives one
#: request that caught a full garbage collection.
_LIGHT = 8


def _warm_weights(per_class: int) -> dict[str, int]:
    weights = {c.name: per_class for c in datagen.QUERY_CLASSES}
    weights["chain14_inner"] = max(3, per_class // _LIGHT)
    return weights


@dataclass(frozen=True)
class Workload:
    name: str
    door: str  # "session" | "thread" | "process"
    scale: int
    weights: dict
    distinct_constants: bool
    clients: int


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        # paper-size tables, every request a distinct constant: each one
        # misses, stores and evicts in the plan cache, so planning is the work
        "plan_cold",
        door="session",
        scale=1,
        # > 256 storing requests per pass, so LRU never serves a repeat;
        # the closure-heavy classes get fixed lower weights so a pass
        # stays under two seconds and the p95 rank falls mid-band
        weights={
            "q13_distribution": 30,
            "supplier_volume": 30,
            "big_customers_nested": 30,
            "nation_flow": 30,
            "segment_lines_complex": 30,
            "chain4_loj_complex": 20,
            "chain5_mixed_complex": 3,
            "chain5_inner_filter": 8,
            "foj3_complex": 30,
            "agg_view_loj": 30,
            "orderby_groupby": 30,
            "chain14_inner": 6,
        },
        distinct_constants=True,
        clients=1,
    ),
    Workload(
        # tables 60x larger, fixed constants: plans come from the cache
        # and the vector executor is the work
        "exec_warm",
        door="session",
        scale=60,
        weights=_warm_weights(20),
        distinct_constants=False,
        clients=1,
    ),
    Workload(
        # mid-size tables through the thread service: admission, queue,
        # breakers, shared-cache locking and GIL hand-off are a visible share
        "svc_thread",
        door="thread",
        scale=10,
        weights=_warm_weights(20),
        distinct_constants=False,
        clients=CLIENTS,
    ),
    Workload(
        # the svc_thread list through the process service: pipe, pickle
        # and page attach carry every request and result
        "svc_process",
        door="process",
        scale=10,
        weights=_warm_weights(20),
        distinct_constants=False,
        clients=CLIENTS,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class Inputs:
    """What the harness makes from ``--seed`` before the program runs."""

    tables: dict  # {name: (columns, rows)} as generated
    db: object  # the same rows as a ``repro`` Database
    requests: list
    oracle: "Oracle"
    datagen_s: float
    oracle_s: float


def prepare(workload: Workload, seed: int, quick: bool) -> Inputs:
    import oracle

    t0 = time.perf_counter()
    tables = datagen.generate_tables(workload.scale, seed)
    db = build_database(tables)
    requests = datagen.request_list(
        seed, workload.weights, workload.distinct_constants
    )
    if quick:
        requests = requests[: len(requests) // 2]
    datagen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    bags = oracle.expected_bags(tables, datagen.VIEWS_SQL, [r.sql for r in requests])
    oracle_s = time.perf_counter() - t0
    return Inputs(tables, db, requests, Oracle(bags), datagen_s, oracle_s)


def build_database(tables):
    """The generated rows as a ``repro`` database (harness work, not set-up)."""
    from repro.expr.evaluate import Database
    from repro.relalg import Relation
    from repro.relalg.nulls import NULL

    db = Database()
    for name, (columns, rows) in tables.items():
        data = [tuple(NULL if v is None else v for v in row) for row in rows]
        db.add(name, Relation.base(name, list(columns), data))
    return db


@dataclass
class Answer:
    """What came back for one request."""

    columns: list  # (exposed name, internal attribute) in SELECT order
    relation: object
    result: object  # SessionResult or ServiceResult


class System:
    """One set-up of the program under test behind one front door."""

    def __init__(self, door: str, db, tables, clients: int) -> None:
        from repro.optimizer import Statistics

        self.clients = clients
        self.session = None
        self.service = None
        stats = Statistics.from_database(db)
        if door == "session":
            from repro.runtime.session import QuerySession

            self.session = QuerySession(db, stats=stats, executor="vector")
            self.session.run_sql(datagen.VIEWS_SQL)
            return
        from repro.runtime.service import QueryService
        from repro.sql import SqlCatalog, parse_statements

        self.service = QueryService(
            db,
            stats=stats,
            workers=clients,
            engine="vector",
            isolation=door,
        )
        self._catalog = SqlCatalog(
            {name: columns for name, (columns, _) in tables.items()}
        )
        for statement in parse_statements(datagen.VIEWS_SQL):
            self._catalog.add_view(statement)

    def answer(self, sql: str) -> Answer:
        if self.session is not None:
            outcome = self.session.run_sql(sql)[-1]
            return Answer(
                outcome.translation.columns, outcome.result.relation, outcome.result
            )
        from repro.sql import parse_statements, translate

        translation = translate(parse_statements(sql)[0], self._catalog)
        result = self.service.run(
            translation.expr, required_order=translation.order_by
        )
        return Answer(translation.columns, result.relation, result)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def bag_of(answer: Answer) -> Counter:
    """The answer as a bag of plain tuples (NULL -> None), SELECT order."""
    from repro.relalg.nulls import is_null

    attrs = [attr for _, attr in answer.columns]
    return Counter(
        tuple(None if is_null(v) else v for v in row.values_tuple(attrs))
        for row in answer.relation.rows
    )


class Oracle:
    """SQLite's expected bags, and the two checks a pass can apply.

    Answers are checked as they arrive and then dropped, never held:
    holding a pass's results (hundreds of thousands of row objects on
    ``exec_warm``) made every full garbage collection inside the
    program ~20x longer -- +12 % pass time and 140 ms outliers that
    no caller who consumes its rows would see.  So *check passes* (the
    untimed warm pass and a final one) compare every answer's full bag,
    outside any clock, and *timed passes* apply the O(1) check only.
    """

    def __init__(self, bags: dict[str, Counter]) -> None:
        self.bags = bags
        self.sizes = {sql: sum(bag.values()) for sql, bag in bags.items()}

    def same_bag(self, request, answer: Answer) -> str | None:
        if bag_of(answer) != self.bags[request.sql]:
            return "bag differs from sqlite3"
        return None

    def same_size(self, request, answer: Answer) -> str | None:
        got, want = len(answer.relation), self.sizes[request.sql]
        if got != want:
            return f"{got} rows, sqlite3 has {want}"
        return None


def _process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/schedstat") as handle:  # nanoseconds on-CPU
            return int(handle.read().split()[0]) / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(f"/proc/{pid}/stat") as handle:  # clock ticks: utime, stime
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def cpu_seconds() -> float:
    """This process plus its live children (the process pool's workers).

    ``getrusage(RUSAGE_CHILDREN)`` only counts children already reaped,
    so a per-pass figure has to read the live ones from ``/proc``.
    """
    return time.process_time() + sum(
        _process_cpu_s(child.pid) for child in multiprocessing.active_children()
    )


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    latencies_s: list  # per request index; None where the request failed
    failures: list  # (index, class, reason)


def run_pass(system, requests: list, verify, answer_fn=None) -> PassResult:
    """Replay ``requests`` once, closed-loop, ``system.clients`` clients.

    Each client takes the next unsent request only after its previous
    one was answered and checked.  ``verify(request, answer)`` returns
    a failure reason or ``None``; it runs outside the request's latency
    (see :class:`Oracle` for which check a pass uses).  A request that
    raises or fails the check is a failure and loses its latency.
    ``answer_fn(index, request)`` lets the traced run put a span around
    each request.
    """
    if answer_fn is None:
        answer_fn = lambda index, request: system.answer(request.sql)  # noqa: E731
    pending = deque(enumerate(requests))
    latencies: list = [None] * len(requests)
    failures: list = []

    def client() -> None:
        while True:
            try:
                index, request = pending.popleft()
            except IndexError:
                return
            t0 = time.perf_counter()
            try:
                answer = answer_fn(index, request)
                elapsed = time.perf_counter() - t0
                reason = verify(request, answer)
            except Exception as exc:  # a failed request is a counted outcome
                reason = f"{type(exc).__name__}: {exc}"
            if reason is None:
                latencies[index] = elapsed
            else:
                failures.append((index, request.cls, reason))

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    if system.clients == 1:
        client()
    else:
        threads = [
            threading.Thread(target=client, name=f"e2e-client-{i}")
            for i in range(system.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - t0
    return PassResult(wall, cpu_seconds() - cpu0, latencies, sorted(failures))


class Tally:
    """Operations attempted and failed over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.failures: list = []  # the first few, for the report

    def add(self, result: PassResult) -> PassResult:
        self.attempted += len(result.latencies_s)
        self.failed += len(result.failures)
        self.failures.extend(result.failures[: max(0, 10 - len(self.failures))])
        return result


def pass_metrics(result: PassResult, requests: list) -> dict[str, float]:
    """The per-pass end-to-end statistics (timing metrics only)."""
    good = [s * 1000.0 for s in result.latencies_s if s is not None]
    if not good:
        raise RuntimeError("every request of the pass failed")
    medians = class_medians(result, requests)
    return {
        "query_geomean_ms": est.geomean(list(medians.values())),
        "query_p95_ms": est.percentile(good, 0.95),
        "throughput_qps": len(good) / result.wall_s,
        "cpu_ms_per_query": result.cpu_s * 1000.0 / len(requests),
    }


def class_medians(result: PassResult, requests: list) -> dict[str, float]:
    """Per-class median latency (ms) of one pass."""
    by_class: dict[str, list[float]] = {}
    for request, latency in zip(requests, result.latencies_s):
        if latency is not None:
            by_class.setdefault(request.cls, []).append(latency * 1000.0)
    return {name: statistics.median(v) for name, v in sorted(by_class.items())}


def warm_requests(requests: list) -> list:
    """One request per class, in list order."""
    first: dict[str, object] = {}
    for request in requests:
        first.setdefault(request.cls, request)
    return list(first.values())


def timed_setup(workload: Workload, inputs: Inputs) -> tuple[System, float]:
    """System-side set-up, timed: statistics scan, session/service
    construction (worker spawn, page build, orphan sweep included) and
    the warm rounds.  Table generation and the oracle are not in it.

    A warm round answers one request per class; there is one round per
    client.  Rounds run one after another so two clients never plan the
    same class at the same moment (whether they did made set-up
    bimodal: 0.25 s or 0.35 s).
    """
    gc.collect()
    t0 = time.perf_counter()
    system = System(workload.door, inputs.db, inputs.tables, workload.clients)
    try:
        for _ in range(workload.clients):
            warm = run_pass(
                system, warm_requests(inputs.requests), inputs.oracle.same_size
            )
            if warm.failures:
                raise RuntimeError(f"set-up warm round failed: {warm.failures[0]}")
    except BaseException:
        system.close()
        raise
    return system, time.perf_counter() - t0
