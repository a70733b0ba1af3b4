"""Command-line interface.

    python -m repro run script.sql --data DIR [--engine reference|hash|vector]
                                   [--fast] [--budget-ms MS]
                                   [--max-plans N] [--max-rows N] [--verify]
                                   [--enum-tier auto|dp|partitioned|goo]
                                   [--workers N] [--queue-depth N]
                                   [--faults PLAN] [--fault-seed N]
                                   [--analyze] [--trace-out FILE]
                                   [--metrics-out FILE]
                                   [--replan-threshold N]
                                   [--feedback-in FILE] [--feedback-out FILE]
    python -m repro explain script.sql --data DIR [--plans N] [--budget-ms MS]
                                       [--enum-tier auto|dp|partitioned|goo]
    python -m repro demo

``DIR`` holds one CSV per base table (header row = column names;
values parsed as int, then float, then string; empty cells are NULL).
A script is a sequence of ``;``-separated statements; ``create view``
statements register views, each ``select`` runs (or is explained).

Every statement goes through the resilient runtime
(:class:`repro.runtime.QuerySession`): optimization and execution run
under the budget, degrading gracefully (full reorder -> partitioned
DP -> greedy operator ordering -> greedy closure -> as written) when a
cap is hit or the query joins too many relations for a rung, e.g.

    # answer within ~half a second of optimization effort, and
    # double-check the chosen plan against the reference interpreter:
    python -m repro run script.sql --data DIR --budget-ms 500 --verify

A degraded or verification-quarantined statement reports its stage in
a ``-- stage: ...`` footer; see docs/ROBUSTNESS.md.

``--replan-threshold N`` arms adaptive re-optimization: operators
report observed cardinalities into a :class:`FeedbackStore`, and a
mid-flight plan whose actual rows blow past ``N x`` the estimate is
aborted, re-planned under the observed counts, and resumed from its
materialized intermediates (a ``-- replans:`` footer reports it).
``--feedback-out`` persists the learned corrections as JSON and
``--feedback-in`` preloads them, so a later run starts pre-corrected.

With ``--workers`` (or any ``--faults`` plan) statements route through
the concurrent :class:`repro.runtime.QueryService`: per-engine circuit
breakers reroute around a crashing engine (``vector -> hash ->
reference``), breaker transitions and rerouted statements show up as
``-- breaker ...`` / ``-- engine: ...`` footers, and the process exit
code distinguishes clean, degraded, budget-exhausted and quarantined
outcomes (see ``--help``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from repro.errors import (
    BudgetExceeded,
    EngineFailure,
    InjectedFault,
    WorkerCrashed,
)
from repro.expr import Database
from repro.expr.display import to_tree
from repro.optimizer import measured_cost
from repro.relalg import Relation
from repro.relalg.nulls import NULL
from repro.runtime import (
    Budget,
    DegradationLevel,
    FaultPlan,
    FeedbackStore,
    QueryService,
    QuerySession,
    Tracer,
    trace_scope,
)
from repro.runtime.metrics import (
    MetricsRegistry,
    service_registry,
    sync_cache_metrics,
    sync_engine_metrics,
)
from repro.runtime.tracing import span
from repro.sql import SqlCatalog, parse_statements, translate
from repro.sql.ast import CreateViewStmt, SelectStmt, UnionStmt

#: Documented process exit codes (see ``--help`` and docs/ROBUSTNESS.md).
EXIT_OK = 0  # clean answer, or answered-but-degraded (footer says so)
EXIT_BUDGET = 3  # a budget cap held even at the last-resort rung
EXIT_QUARANTINE = 4  # answered via quarantine fallback (plan mismatch)
EXIT_ENGINE = 5  # every engine failed (e.g. under an injected fault plan)
EXIT_INTERRUPTED = 130  # SIGINT/SIGTERM: drained, shut down, no traceback

_EXIT_CODE_DOC = """\
exit codes:
  0    clean success, including answered-but-degraded statements
       (degradation is reported in a `-- stage:` footer, not an error)
  3    a resource budget was exhausted at every rung, including the
       last resort (the row cap bounds memory, so it is never lifted)
  4    answered, but a chosen plan failed differential verification and
       was quarantined (the reported rows come from the original query)
  5    every execution engine failed the statement, or (with
       --isolation process) a worker died past its retry budget --
       seen under `--faults` crash/kill9 plans
  130  interrupted by SIGINT or SIGTERM: in-flight work was drained
       and the service shut down cleanly before exiting
"""


def _parse_value(text: str):
    if text == "":
        return NULL
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except ValueError:
        return text


def load_csv_database(directory: Path) -> tuple[Database, SqlCatalog]:
    """Load every ``*.csv`` in ``directory`` as a base table."""
    db = Database()
    catalog = SqlCatalog()
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise SystemExit(f"no .csv files found in {directory}")
    for path in files:
        name = path.stem
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise SystemExit(f"{path} is empty (no header row)")
            rows = [tuple(_parse_value(cell) for cell in row) for row in reader]
        catalog.add_table(name, tuple(header))
        db.add(name, Relation.base(name, header, rows))
    return db, catalog


def _print_outcome_footers(outcome, verify: bool, out) -> int:
    """The shared per-statement footers; returns the statement's exit code."""
    code = EXIT_OK
    if outcome.degradation_level is not DegradationLevel.FULL:
        print(
            f"-- stage: {outcome.degradation_level.name.lower()}"
            + (
                f" ({outcome.degradation_reason})"
                if outcome.degradation_reason
                else ""
            ),
            file=out,
        )
    if verify and outcome.verified is not None:
        print(
            "-- verified: plan matches reference"
            if outcome.verified
            else "-- verified: MISMATCH (plan quarantined, original used)",
            file=out,
        )
        if outcome.verified is False:
            code = EXIT_QUARANTINE
    cache = outcome.plan_cache
    if cache.get("hit") or cache.get("hits", 0) > 0:
        print(
            f"-- plan cache: {'hit' if cache.get('hit') else 'miss'} "
            f"(hits {cache.get('hits', 0)}, misses {cache.get('misses', 0)}, "
            f"entries {cache.get('entries', 0)})",
            file=out,
        )
    if getattr(outcome, "replans", 0):
        events = getattr(outcome, "replan_events", []) or []
        outcomes = ", ".join(e.get("outcome", "?") for e in events)
        print(
            f"-- replans: {outcome.replans}"
            + (f" ({outcomes})" if outcomes else ""),
            file=out,
        )
    return code


def _print_service_footers(service: QueryService, out) -> None:
    """End-of-script service summary: breaker states and incident mix."""
    snapshot = service.snapshot()
    for name, breaker in snapshot["breakers"].items():
        if breaker["state"] != "closed" or breaker["opened_count"]:
            print(
                f"-- breaker {name}: {breaker['state']} "
                f"(opened {breaker['opened_count']}x)",
                file=out,
            )
    if len(service.incidents):
        kinds: dict[str, int] = {}
        for incident in service.incidents:
            kinds[incident.kind] = kinds.get(incident.kind, 0) + 1
        mix = ", ".join(f"{k}: {n}" for k, n in sorted(kinds.items()))
        print(f"-- incidents: {len(service.incidents)} ({mix})", file=out)
    procpool = snapshot.get("procpool") or {}
    shm_info = procpool.get("shm")
    if shm_info:
        fallback = shm_info.get("fallback_tables") or []
        print(
            f"-- shm: {shm_info['segments']} segment(s), "
            f"{shm_info['bytes']} bytes"
            + (f", {len(fallback)} table(s) on pickle fallback" if fallback else ""),
            file=out,
        )
    feedback = snapshot.get("feedback")
    if feedback and feedback.get("ingests"):
        print(
            f"-- feedback: {feedback['entries']} entries, "
            f"generation {feedback['generation']}, "
            f"{feedback['quarantined_entries']} quarantined",
            file=out,
        )


def run_script(
    text: str,
    db: Database,
    catalog: SqlCatalog,
    out=None,
    fast: bool = False,
    explain: bool = False,
    plans: int = 3,
    budget: Budget | None = None,
    verify: bool = False,
    verify_seed: int = 0,
    session: QuerySession | None = None,
    engine: str | None = None,
    faults: str | None = None,
    fault_seed: int = 0,
    workers: int = 0,
    queue_depth: int = 16,
    analyze: bool = False,
    trace_out: Path | None = None,
    metrics_out: Path | None = None,
    replan_threshold: float | None = None,
    feedback_in: Path | None = None,
    feedback_out: Path | None = None,
    enum_tier: str = "auto",
    isolation: str = "thread",
    max_retries: int | None = None,
    shm: bool | None = None,
) -> int:
    """Run (or explain) a script; returns the process exit code.

    With ``workers >= 1``, a ``faults`` plan, or
    ``isolation="process"``, statements route through a
    :class:`repro.runtime.QueryService` (admission control, circuit
    breakers, engine fallback) instead of a bare session;
    ``isolation="process"`` additionally runs the workers in
    supervised child processes (see :mod:`repro.runtime.procpool`)
    with ``max_retries`` redeliveries for queries whose worker died.

    ``analyze=True`` is EXPLAIN ANALYZE mode: each select is planned,
    compiled to the physical engine with cost estimates stamped on
    every operator, executed under a tracer, and reported as an
    operator tree (est/actual rows, per-operator time) plus the plan
    lifecycle's span timings.  Analyze always uses the plain-session
    path.  ``trace_out`` / ``metrics_out`` write a Chrome-trace JSON /
    a metrics export (JSON or Prometheus text by extension) at exit.

    ``replan_threshold`` arms mid-query re-planning (and cardinality
    feedback) on whichever path handles the statements;
    ``feedback_in`` / ``feedback_out`` preload / persist the
    :class:`FeedbackStore` as JSON, so corrections learned by one run
    carry into the next.

    ``enum_tier`` picks the join-enumeration tier policy (``auto``
    sizes the rung to the query's relation count; ``dp`` /
    ``partitioned`` / ``goo`` force a specific tier).
    """
    out = out if out is not None else sys.stdout
    if engine is None:
        engine = "hash" if fast else "reference"
    tracer = Tracer() if (analyze or trace_out is not None) else None
    feedback: FeedbackStore | None = None
    if feedback_in is not None:
        feedback = FeedbackStore.load(feedback_in)
    elif feedback_out is not None or replan_threshold is not None:
        feedback = FeedbackStore()
    service: QueryService | None = None
    if not explain and not analyze and session is None and (
        workers >= 1 or faults or isolation == "process"
    ):
        service = QueryService(
            db,
            catalog=catalog,
            workers=max(1, workers),
            queue_depth=queue_depth,
            budget=budget,
            engine=engine,
            verify=verify,
            verify_seed=verify_seed,
            max_plans=2000,
            fault_plan=FaultPlan.parse(faults, seed=fault_seed) if faults else None,
            feedback=feedback,
            replan_threshold=replan_threshold,
            enum_tier=enum_tier,
            isolation=isolation,
            max_retries=max_retries,
            shm=shm,
        )
    elif session is None:
        session = QuerySession(
            db,
            catalog=catalog,
            budget=budget,
            verify=verify,
            verify_seed=verify_seed,
            executor=engine,
            max_plans=2000,
            feedback=feedback,
            replan_threshold=replan_threshold,
            enum_tier=enum_tier,
        )
    registry: MetricsRegistry | None = None
    if metrics_out is not None:
        registry = service.metrics if service is not None else service_registry()
    code = EXIT_OK
    try:
        statements = parse_statements(text)
        for statement in statements:
            if isinstance(statement, CreateViewStmt):
                catalog.add_view(statement)
                print(f"-- view {statement.name} registered", file=out)
                continue
            assert isinstance(statement, (SelectStmt, UnionStmt))
            translation = translate(statement, catalog)
            if explain:
                _explain(translation, db, out, plans, session)
                continue
            if analyze:
                _analyze(translation, db, out, session, tracer)
                continue
            t0 = time.perf_counter()
            if service is not None:
                outcome = service.run(
                    translation.expr, required_order=translation.order_by
                )
            else:
                with trace_scope(tracer):
                    outcome = session.run(
                        translation.expr,
                        required_order=translation.order_by,
                    )
                if registry is not None:
                    # the service records its own metrics; the plain
                    # session path mirrors the essential ones here
                    registry.counter("repro_admissions_total").inc()
                    registry.counter("repro_queries_total").labels(
                        outcome="ok"
                    ).inc()
                    registry.histogram("repro_query_latency_ms").observe(
                        (time.perf_counter() - t0) * 1000.0
                    )
            result = _order_and_limit(
                outcome.relation, translation, chosen=outcome.chosen
            )
            renamed = _friendly_columns(result, translation.columns)
            ordered = bool(translation.order_by)
            print(renamed.to_text(preserve_order=ordered), file=out)
            print(f"-- {len(renamed)} row(s)", file=out)
            code = max(code, _print_outcome_footers(outcome, verify, out))
            if service is not None and (
                outcome.engine != engine or outcome.attempts
            ):
                rerouted = ", ".join(
                    f"{name}: {error}" for name, error in outcome.attempts
                )
                print(
                    f"-- engine: {outcome.engine}"
                    + (f" (after {rerouted})" if rerouted else ""),
                    file=out,
                )
    finally:
        if service is not None:
            _print_service_footers(service, out)
            service.close()
        if registry is not None:
            if service is not None:
                service.export_metrics()
            else:
                sync_cache_metrics(registry, session.plan_cache)
                sync_engine_metrics(registry)
            text_out = (
                registry.to_json()
                if str(metrics_out).endswith(".json")
                else registry.to_prometheus()
            )
            Path(metrics_out).write_text(text_out)
            print(f"-- metrics written to {metrics_out}", file=out)
        if trace_out is not None and tracer is not None:
            Path(trace_out).write_text(json.dumps(tracer.to_chrome_trace()))
            print(f"-- trace written to {trace_out}", file=out)
        if feedback_out is not None and feedback is not None:
            feedback.save(feedback_out)
            counters = feedback.counters()
            print(
                f"-- feedback written to {feedback_out} "
                f"({counters['entries']} entries, "
                f"generation {counters['generation']})",
                file=out,
            )
    return code


def _order_and_limit(relation: Relation, translation, chosen=None) -> Relation:
    """Apply the statement's ORDER BY / LIMIT presentation directives.

    When the chosen plan already delivers the rows in the requested
    order (an order-aware plan with a Sort enforcer, or an order that
    falls out of the join/grouping structure), the sort is skipped
    entirely.  With a LIMIT, the sort+slice collapses to a single
    top-N selection (``heapq.nsmallest`` under one composite key)
    instead of sorting everything to keep ``limit`` rows.
    """
    from repro.expr.orderprops import order_satisfies, provided_order
    from repro.relalg.ordering import sort_rows, tiebreak_keys, top_n_rows

    rows = list(relation.rows)
    keys = tuple(translation.order_by)
    if keys and chosen is not None and order_satisfies(
        provided_order(chosen), keys
    ):
        keys = ()  # the engine already delivered this order
    if keys:
        # whole-row tiebreak: the printed sequence depends only on the
        # result bag, not on which engine produced it in which order
        keys = tiebreak_keys(keys, relation.real.attrs)
        if translation.limit is not None:
            rows = top_n_rows(rows, keys, translation.limit)
        else:
            rows = sort_rows(rows, keys)
    elif translation.limit is not None:
        rows = rows[: translation.limit]
    return relation.with_rows(rows)


def _friendly_columns(relation: Relation, columns) -> Relation:
    from repro.relalg.operators import project, rename

    attrs = [attr for _, attr in columns]
    unique = list(dict.fromkeys(attrs))
    narrowed = project(relation, unique)
    mapping = {}
    used = set()
    for exposed, attr in columns:
        if attr in mapping or exposed in used:
            continue
        if exposed != attr and exposed not in narrowed.real:
            mapping[attr] = exposed
            used.add(exposed)
    return rename(narrowed, mapping) if mapping else narrowed


def _render_order(order) -> str:
    return ", ".join(f"{a} desc" if d else a for a, d in order) or "(none)"


def _explain(
    translation, db: Database, out, plans: int, session: QuerySession
) -> None:
    from repro.expr.orderprops import provided_order

    expr = translation.expr
    result, level, reason = session.plan(
        expr, required_order=translation.order_by
    )
    print("-- query plan (as written):", file=out)
    print(to_tree(expr), file=out)
    if translation.order_by:
        chosen = expr if result is None else result.best
        print(
            f"-- order: required {_render_order(translation.order_by)}; "
            f"plan provides {_render_order(provided_order(chosen))}",
            file=out,
        )
    if result is None:
        print(f"-- stage: {level.name.lower()}" + (f" ({reason})" if reason else ""), file=out)
        print("-- plans considered : 0 (budget exhausted; original kept)", file=out)
        print("-- chosen plan: the query as written", file=out)
        return
    if level is not DegradationLevel.FULL:
        print(f"-- stage: {level.name.lower()}" + (f" ({reason})" if reason else ""), file=out)
    print(f"-- plans considered : {result.plans_considered}", file=out)
    counters = session.plan_cache.counters()
    print(
        f"-- plan cache       : hits {counters['hits']}, "
        f"misses {counters['misses']}, entries {counters['entries']}",
        file=out,
    )
    print(f"-- estimated cost   : {result.original_cost:.0f} (as written)", file=out)
    print(f"--                    {result.best_cost:.0f} (chosen)", file=out)
    print(
        f"-- measured C_out   : {measured_cost(expr, db)} (as written), "
        f"{measured_cost(result.best, db)} (chosen)",
        file=out,
    )
    print("-- chosen plan:", file=out)
    print(to_tree(result.best), file=out)
    ranked = result.ranked[:plans]
    print(f"-- top {len(ranked)} plans by estimated cost:", file=out)
    for cost, plan in ranked:
        from repro.expr import to_algebra

        print(f"--   {cost:10.0f}  {to_algebra(plan)}", file=out)


def _analyze(
    translation, db: Database, out, session: QuerySession, tracer: Tracer
) -> None:
    """EXPLAIN ANALYZE one statement: est/actual tree + span timings.

    The statement is planned through the session's degradation ladder
    (with the statement's ORDER BY as the required order, so the
    order-aware pass runs exactly as it would for execution), compiled
    to the pull-based physical engine with the cost model as
    cardinality estimator (so every operator carries ``est_rows``),
    executed, and reported as the analyzed operator tree followed by
    the plan-lifecycle spans recorded while doing all of the above.
    """
    from repro.expr.orderprops import provided_order
    from repro.optimizer.cost import CostModel
    from repro.physical import compile_plan, explain_analyze

    expr = translation.expr
    required = tuple(translation.order_by)
    first_root = len(tracer.roots)
    replan_events: list[dict] = []
    with trace_scope(tracer):
        if session.replan_threshold is not None:
            # adaptive path: run through the session so the monitor can
            # trigger mid-query re-plans, then analyze the plan the run
            # actually settled on (post-feedback estimates included)
            with span("session.run"):
                adaptive = session.run(expr, required_order=required)
            chosen = adaptive.chosen
            level = adaptive.degradation_level
            reason = adaptive.degradation_reason
            replan_events = adaptive.replan_events
        else:
            with span("session.plan"):
                result, level, reason = session.plan(
                    expr, required_order=required
                )
            chosen = expr if result is None else result.best
        model = CostModel(session.stats)
        plan = compile_plan(
            chosen, estimator=lambda node: model.estimate(node).rows
        )
        with span("physical.execute"):
            report = explain_analyze(plan, db, timings=True)
    if level is not DegradationLevel.FULL:
        print(
            f"-- stage: {level.name.lower()}"
            + (f" ({reason})" if reason else ""),
            file=out,
        )
    if required:
        print(
            f"-- order: required {_render_order(required)}; "
            f"plan provides {_render_order(provided_order(chosen))}",
            file=out,
        )
    for event in replan_events:
        print(
            f"-- replan: {event.get('outcome', '?')} at {event['site']} "
            f"(est {event['est']:g} rows, actual {event['actual']:g}, "
            f"threshold {event['threshold']:g}x)",
            file=out,
        )
    print(report, file=out)
    print("-- spans:", file=out)
    rendered = tracer.render(roots=tracer.roots[first_root:])
    for line in rendered.splitlines():
        print(f"--   {line}", file=out)


DEMO_SCRIPT = """
create view busy as
  select dept as d, n = count(*) from emp group by dept;
select dname, n from busy left outer join dept on busy.d = dept.did;
"""


def run_demo(out=None) -> None:
    out = out if out is not None else sys.stdout
    db = Database(
        {
            "emp": Relation.base(
                "emp",
                ["eid", "dept", "salary"],
                [(1, 10, 100), (2, 10, 200), (3, 20, 300), (4, 99, 50)],
            ),
            "dept": Relation.base(
                "dept", ["did", "dname"], [(10, "eng"), (20, "ops"), (30, "hr")]
            ),
        }
    )
    catalog = SqlCatalog(
        {"emp": ("eid", "dept", "salary"), "dept": ("did", "dname")}
    )
    print("-- demo: employees per department, outer-joined to names", file=out)
    run_script(DEMO_SCRIPT, db, catalog, out=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reordering for a general class of queries (SIGMOD 1996)",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="run a SQL script over CSV tables",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_p.add_argument("script", type=Path)
    run_p.add_argument("--data", type=Path, required=True)
    run_p.add_argument(
        "--fast",
        action="store_true",
        help="shorthand for --engine hash (kept for compatibility)",
    )
    run_p.add_argument(
        "--engine",
        choices=("reference", "hash", "vector"),
        default=None,
        help="executor: reference interpreter, row-at-a-time hash "
        "engine, or batch-at-a-time columnar vector engine "
        "(default: reference)",
    )

    explain_p = sub.add_parser("explain", help="show plans instead of rows")
    explain_p.add_argument("script", type=Path)
    explain_p.add_argument("--data", type=Path, required=True)
    explain_p.add_argument("--plans", type=int, default=3)

    for p in (run_p, explain_p):
        p.add_argument(
            "--budget-ms",
            type=float,
            default=None,
            help="per-query wall-clock budget; past it the runtime degrades "
            "(full reorder -> heuristic -> as written) instead of hanging",
        )
        p.add_argument(
            "--max-plans",
            type=int,
            default=None,
            help="hard cap on plans enumerated per query (typed degradation "
            "past it, unlike the soft internal cap)",
        )
        p.add_argument(
            "--max-rows",
            type=int,
            default=None,
            help="cap on cumulative intermediate rows materialized per query",
        )
        p.add_argument(
            "--enum-tier",
            choices=("auto", "dp", "partitioned", "goo"),
            default="auto",
            help="join-enumeration tier: auto sizes the attempt to the "
            "query's relation count (full DP, then partitioned DP, then "
            "greedy operator ordering); dp/partitioned/goo force one tier "
            "(default: auto)",
        )
    run_p.add_argument(
        "--verify",
        action="store_true",
        help="differentially re-check each optimized plan against the "
        "reference interpreter on a row-sample; mismatches are "
        "quarantined and the original plan used",
    )
    run_p.add_argument(
        "--verify-seed",
        type=int,
        default=0,
        help="seed for the verification row-sampler; runs with the same "
        "seed draw identical samples, making quarantine incidents "
        "reproducible",
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="route statements through the concurrent QueryService with "
        "this many worker threads (admission control, per-engine "
        "circuit breakers, engine fallback); 0 = plain session",
    )
    run_p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admission queue bound for the service (load past it is "
        "shed with a typed AdmissionRejected)",
    )
    run_p.add_argument(
        "--isolation",
        choices=("thread", "process"),
        default="thread",
        help="where service workers run: 'thread' (default) keeps them "
        "in this process; 'process' runs each in a supervised child "
        "process (heartbeats, restart with backoff, poisoned-query "
        "quarantine), so a crashing or wedged worker costs one query, "
        "not the service; implies the service path",
    )
    run_p.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="process isolation only: redeliver a query whose worker "
        "died up to N times (queries are read-only, so redelivery is "
        "safe) before surfacing a typed WorkerCrashed (default: 2)",
    )
    run_p.add_argument(
        "--shm",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="process isolation only: share base tables with workers "
        "as zero-copy shared-memory columnar pages instead of pickling "
        "them into every spawn (default: auto-detect; --no-shm forces "
        "the pickle path; unpageable tables always fall back per "
        "table; see docs/SCALING.md)",
    )
    run_p.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan, e.g. "
        "'vector.join:crash@0.05,cache.get:latency=50ms@0.1,"
        "stats:perturb=2x'; with --isolation process, the "
        "'worker:kill9', 'worker:hang' and 'worker:exit' kinds kill, "
        "wedge or hard-exit the worker child itself; implies the "
        "service path so crashes are contained by engine fallback",
    )
    run_p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault plan; same seed + same script = "
        "identical injected faults",
    )
    run_p.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE mode: plan each statement, execute it on "
        "the physical engine, and print the operator tree with "
        "estimated vs actual row counts, per-operator wall time, and "
        "the plan lifecycle's span timings (plain-session path only)",
    )
    run_p.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write a Chrome-trace JSON of every span recorded during "
        "the run (open in chrome://tracing or ui.perfetto.dev); "
        "spans are captured on the plain-session path",
    )
    run_p.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write service metrics at exit: JSON when FILE ends in "
        ".json, Prometheus text exposition format otherwise",
    )
    run_p.add_argument(
        "--replan-threshold",
        type=float,
        default=None,
        metavar="N",
        help="arm adaptive re-optimization: abort and re-plan a query "
        "mid-flight when an operator's actual rows exceed N times its "
        "estimate (N > 1; re-plans are capped and reported in a "
        "`-- replans:` footer)",
    )
    run_p.add_argument(
        "--feedback-in",
        type=Path,
        default=None,
        metavar="FILE",
        help="preload cardinality-feedback corrections from a JSON "
        "file written by a previous run's --feedback-out",
    )
    run_p.add_argument(
        "--feedback-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="persist the cardinality-feedback store as JSON at exit "
        "(observed est/actual corrections, keyed by predicate and "
        "subtree fingerprints)",
    )

    sub.add_parser("demo", help="run a canned demonstration")

    args = parser.parse_args(argv)
    if args.command == "demo":
        run_demo()
        return 0
    db, catalog = load_csv_database(args.data)
    text = args.script.read_text()
    budget = None
    if (
        args.budget_ms is not None
        or args.max_plans is not None
        or args.max_rows is not None
    ):
        budget = Budget(
            deadline_ms=args.budget_ms,
            max_plans=args.max_plans,
            max_rows=args.max_rows,
        )
    # SIGTERM gets the same treatment the default SIGINT handler gives
    # Ctrl-C: a KeyboardInterrupt that unwinds through run_script's
    # ``finally`` (draining and closing the service) instead of dying
    # mid-query with a traceback.  Installed only when this process
    # owns the terminal session (main() as the program entry point).
    import signal as _signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        previous_term = _signal.signal(_signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main thread (embedding)
        previous_term = None
    try:
        if args.command == "run":
            return run_script(
                text,
                db,
                catalog,
                fast=args.fast,
                engine=args.engine,
                budget=budget,
                verify=args.verify,
                verify_seed=args.verify_seed,
                faults=args.faults,
                fault_seed=args.fault_seed,
                workers=args.workers,
                queue_depth=args.queue_depth,
                analyze=args.analyze,
                trace_out=args.trace_out,
                metrics_out=args.metrics_out,
                replan_threshold=args.replan_threshold,
                feedback_in=args.feedback_in,
                feedback_out=args.feedback_out,
                enum_tier=args.enum_tier,
                isolation=args.isolation,
                max_retries=args.max_retries,
                shm=args.shm,
            )
        return run_script(
            text,
            db,
            catalog,
            explain=True,
            plans=args.plans,
            budget=budget,
            enum_tier=args.enum_tier,
        )
    except BudgetExceeded as exc:
        # the row cap is hard even at the last-resort rung (it bounds
        # memory, not optimization effort) -- report it, don't traceback
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (EngineFailure, InjectedFault, WorkerCrashed) as exc:
        # a statement no engine could answer (crash fault plans can
        # reach the reference floor), or a worker died past its retry
        # budget -- report it, don't traceback
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except KeyboardInterrupt:
        # run_script's ``finally`` has already drained and closed the
        # service on the way out; exit with the conventional 128+SIGINT
        print("repro: interrupted; service drained and shut down", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if previous_term is not None:
            _signal.signal(_signal.SIGTERM, previous_term)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
