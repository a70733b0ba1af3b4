"""The :class:`QuerySession` facade: budgets, degradation, verification.

A session owns a database (plus optional SQL catalog and statistics)
and runs queries through a degradation ladder, each rung attempted
under its slice of the per-query budget:

====  ==================  ================================================
rung  level               strategy
====  ==================  ================================================
0     ``FULL``            full rewrite-closure optimization (``optimize``)
1     ``PARTITIONED_DP``  partition-solve-stitch enumeration tier
2     ``GOO``             greedy operator ordering tier
3     ``GREEDY``          greedy/DP baseline (``greedy_reorder``)
4     ``AS_WRITTEN``      execute the query exactly as the analyst wrote
====  ==================  ================================================

Which rungs are *attempted* is a policy, not a crash path: the
``enum_tier`` session knob (``auto`` by default) and the budget's
:class:`repro.runtime.budget.TierThresholds` pick a rung list by the
query's relation count -- small queries go ``FULL -> GREEDY``,
mid-size ones ``PARTITIONED_DP -> GOO -> GREEDY``, very large ones
``GOO -> GREEDY`` (see :func:`repro.optimizer.tiers.choose_tier`).
Forcing ``enum_tier`` pins the first rung for experiments.

A rung is abandoned -- with the reason recorded -- when it raises a
:class:`repro.errors.BudgetExceeded` (the budget's typed family) or an
:class:`repro.errors.OptimizerInternalError`/``ExprError`` (an
optimizer component declined or produced something unexecutable).
Whatever rung answers, the result carries ``degradation_level`` and
``degradation_reason`` so callers can see *how* their answer was made.

With ``verify=True`` the chosen plan is additionally re-executed under
the reference interpreter on a row-sample of the database and compared
(bag semantics) against the original query.  On mismatch the plan is
quarantined for the rest of the session, a structured
:class:`repro.runtime.incidents.Incident` is logged, and the original
query's own result is returned -- the library's known failure mode
("outer-join rewrites are notoriously easy to get subtly wrong")
becomes a contained, observable event instead of silent wrong answers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import IntEnum

from repro.errors import BudgetExceeded, OptimizerInternalError, ReplanTriggered
from repro.exec import execute as hash_execute
from repro.exec import execute_vector
from repro.expr.evaluate import Database, evaluate
from repro.expr.nodes import Expr, ExprError
from repro.optimizer import (
    OptimizationResult,
    Statistics,
    goo_reorder,
    greedy_reorder,
    optimize,
    partitioned_reorder,
)
from repro.optimizer.cost import CostModel
from repro.optimizer.tiers import TIER_NAMES, choose_tier
from repro.relalg import Relation
from repro.runtime.budget import DEFAULT_TIERS, Budget, TierThresholds
from repro.runtime.faults import fault_point
from repro.runtime.feedback import (
    CardinalityMonitor,
    FeedbackStore,
    monitor_scope,
)
from repro.runtime.incidents import Incident, IncidentLog
from repro.runtime.plan_cache import PlanCache
from repro.runtime.tracing import set_tag, span


class DegradationLevel(IntEnum):
    """Which rung of the ladder produced the answer."""

    FULL = 0
    PARTITIONED_DP = 1
    GOO = 2
    GREEDY = 3
    AS_WRITTEN = 4


#: Share of the remaining per-query time each optimizing rung may burn
#: before the runtime moves on (the as-written rung gets what's left).
_STAGE_FRACTIONS = {
    DegradationLevel.FULL: 0.5,
    DegradationLevel.PARTITIONED_DP: 0.5,
    DegradationLevel.GOO: 0.5,
    DegradationLevel.GREEDY: 0.6,
}

#: The rung ladder each enumeration tier starts (``choose_tier`` names).
_TIER_RUNGS = {
    "dp": (DegradationLevel.FULL, DegradationLevel.GREEDY),
    "partitioned": (
        DegradationLevel.PARTITIONED_DP,
        DegradationLevel.GOO,
        DegradationLevel.GREEDY,
    ),
    "goo": (DegradationLevel.GOO, DegradationLevel.GREEDY),
}

_EXECUTORS = {
    "reference": evaluate,
    "hash": hash_execute,
    "vector": execute_vector,
}


@dataclass
class SessionResult:
    """One query's answer plus the runtime's account of producing it."""

    relation: Relation
    chosen: Expr
    degradation_level: DegradationLevel
    degradation_reason: str | None
    plans_considered: int
    verified: bool | None  # True = checked OK; None = not checked
    incident: Incident | None
    elapsed_ms: float
    budget_snapshot: dict = field(default_factory=dict)
    plan_cache: dict = field(default_factory=dict)
    replans: int = 0
    replan_events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """Machine-readable summary (bench JSON, logs)."""
        return {
            "rows": len(self.relation),
            "degradation_level": int(self.degradation_level),
            "degradation_stage": self.degradation_level.name.lower(),
            "degradation_reason": self.degradation_reason,
            "plans_considered": self.plans_considered,
            "verified": self.verified,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "budget": self.budget_snapshot,
            "plan_cache": self.plan_cache,
            "replans": self.replans,
        }


@dataclass
class StatementOutcome:
    """One SQL statement's effect: a view registration or a result."""

    kind: str  # "view" | "select"
    view_name: str | None = None
    translation: object | None = None
    result: SessionResult | None = None


class QuerySession:
    """The resilient runtime facade every entry point routes through.

    Parameters
    ----------
    db:
        The database queries run against.
    catalog:
        SQL catalog for :meth:`run_sql`; derived from ``db`` when
        omitted.
    stats:
        Optimizer statistics; exact statistics are scanned from ``db``
        when omitted.
    budget:
        A :class:`Budget` *template*: each query gets a fresh budget
        with these limits (so one query cannot starve the next).
    verify:
        Differentially verify every optimized plan against the
        original query on a row-sample before trusting it.
    executor:
        ``"reference"`` (interpreter), ``"hash"`` (row-at-a-time
        hash-join engine) or ``"vector"`` (batch-at-a-time columnar
        engine).
    optimize_fn:
        The rung-0 planner, ``repro.optimize`` by default.  Tests
        inject wrong-plan planners here to exercise the safety net.
    verify_seed:
        Seed for the verification row-sampler: two sessions with the
        same seed draw identical samples, so quarantine incidents are
        reproducible.
    plan_cache:
        Cross-query :class:`PlanCache`; a fresh bounded cache by
        default.  Pass a shared instance to amortize across sessions,
        or ``PlanCache(max_entries=0)`` to disable caching.
    incidents:
        Shared :class:`IncidentLog`; a fresh one by default.  The
        query service passes one log to every worker session so the
        whole pool journals into a single bounded ring.
    quarantined:
        Shared quarantine set; a fresh one by default.  Sharing it
        (together with the plan cache) means a plan quarantined by one
        session is never served by a concurrent one.
    feedback:
        A :class:`repro.runtime.feedback.FeedbackStore` to learn
        observed cardinalities into (shareable across sessions, like
        the plan cache).  When present, every monitored execution's
        est/actual deltas are ingested, the estimator corrects future
        plans with them, and the store's generation is composed into
        the plan-cache key so corrected estimates invalidate stale
        plans automatically.  ``None`` (the default) disables
        feedback unless ``replan_threshold`` is set, in which case a
        private store is created.
    replan_threshold:
        Arm mid-query re-planning: when an operator's actual
        cardinality exceeds its estimate by this factor (e.g. ``4.0``
        = 4x), the full-rung execution aborts, re-costs with the
        observed counts, and resumes from materialized intermediates.
        ``None`` (the default) disables re-planning.
    max_replans:
        Re-plans allowed per query before the session gives up and
        runs the current plan to completion (the give-up path into the
        normal degradation ladder) -- re-planning can never loop.
    metrics:
        Optional :class:`repro.runtime.metrics.MetricsRegistry` for
        re-plan counters and est/actual ratio histograms (the service
        passes its own registry to every worker session).
    enum_tier:
        Join-enumeration tier policy: ``"auto"`` (default) picks the
        first rung from the query's relation count and the budget's
        :class:`repro.runtime.budget.TierThresholds`; ``"dp"``,
        ``"partitioned"`` and ``"goo"`` pin it for experiments (the
        greedy and as-written rungs always remain below).
    """

    def __init__(
        self,
        db: Database,
        catalog=None,
        stats: Statistics | None = None,
        budget: Budget | None = None,
        verify: bool = False,
        executor: str = "reference",
        max_plans: int = 5000,
        verify_sample_rows: int = 50,
        optimize_fn=None,
        verify_seed: int = 0,
        plan_cache: PlanCache | None = None,
        incidents: IncidentLog | None = None,
        quarantined: set[Expr] | None = None,
        feedback: FeedbackStore | None = None,
        replan_threshold: float | None = None,
        max_replans: int = 2,
        metrics=None,
        enum_tier: str = "auto",
    ) -> None:
        if executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; pick from {sorted(_EXECUTORS)}"
            )
        if enum_tier not in TIER_NAMES:
            raise ValueError(
                f"unknown enum_tier {enum_tier!r}; pick from {sorted(TIER_NAMES)}"
            )
        self.db = db
        self.catalog = catalog
        self.stats = stats if stats is not None else Statistics.from_database(db)
        self._budget_template = budget
        self.verify = verify
        self.executor = executor
        self.max_plans = max_plans
        self.verify_sample_rows = verify_sample_rows
        self.verify_seed = verify_seed
        self._optimize_fn = optimize_fn if optimize_fn is not None else optimize
        self.incidents = incidents if incidents is not None else IncidentLog()
        self.quarantined: set[Expr] = (
            quarantined if quarantined is not None else set()
        )
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        if feedback is None and replan_threshold is not None:
            feedback = FeedbackStore()
        self.feedback = feedback
        if feedback is not None:
            # the estimator reads corrections through the stats object
            self.stats.feedback = feedback
        self.replan_threshold = replan_threshold
        self.max_replans = max_replans
        self.metrics = metrics
        self.enum_tier = enum_tier

    # -- plumbing --------------------------------------------------------

    def _fresh_budget(self) -> Budget:
        template = self._budget_template
        if template is None:
            return Budget()
        return Budget(
            deadline_ms=template.deadline_ms,
            max_plans=template.max_plans,
            max_rows=template.max_rows,
            tiers=template.tiers,
        )

    def _thresholds(self, budget: Budget) -> TierThresholds:
        if budget.tiers is not None:
            return budget.tiers
        template = self._budget_template
        if template is not None and template.tiers is not None:
            return template.tiers
        return DEFAULT_TIERS

    def _rungs(self, query: Expr, thresholds: TierThresholds) -> tuple:
        """The optimizing rungs to attempt, best-first (policy, not crash).

        ``auto`` takes :func:`repro.optimizer.tiers.choose_tier`'s
        ladder; a forced tier pins its first rung, with only the greedy
        rung below.  The as-written rung is implicit below whatever is
        returned.
        """
        if self.enum_tier == "auto":
            return _TIER_RUNGS[choose_tier(len(query.base_names), thresholds)]
        return (_TIER_RUNGS[self.enum_tier][0], DegradationLevel.GREEDY)

    def _plan_rung(
        self, query: Expr, level: DegradationLevel, stage_budget: Budget
    ) -> OptimizationResult:
        """Invoke one rung's planner."""
        if level is DegradationLevel.FULL:
            return self._optimize_fn(
                query, self.stats, max_plans=self.max_plans, budget=stage_budget
            )
        if level is DegradationLevel.PARTITIONED_DP:
            return partitioned_reorder(
                query,
                self.stats,
                budget=stage_budget,
                thresholds=self._thresholds(stage_budget),
            )
        if level is DegradationLevel.GOO:
            return goo_reorder(query, self.stats, budget=stage_budget)
        return greedy_reorder(query, self.stats, budget=stage_budget)

    def _count_tier(self, level: DegradationLevel) -> None:
        if self.metrics is not None:
            self.metrics.counter("repro_enum_tier_total").labels(
                tier=level.name.lower()
            ).inc()

    def _execute(self, plan: Expr, budget: Budget) -> Relation:
        return _EXECUTORS[self.executor](plan, self.db, budget)

    def _plan_version(self, required_order=()):
        """The plan-cache version key: ``stats_version`` alone, or
        composed with the feedback generation so corrected estimates
        invalidate stale plans automatically.  A required output order
        is part of the key too -- an order-aware plan must not be
        served to (or shadowed by) an order-indifferent run of the
        same query."""
        version = self.stats.version
        if self.feedback is not None:
            version = (version, self.feedback.generation)
        if required_order:
            version = (version, ("order",) + tuple(required_order))
        return version

    @staticmethod
    def _last_resort_budget(run_budget: Budget) -> Budget:
        """Deadline lifted, row cap kept: answer > deadline, but never OOM.

        The cancellation token survives the carve -- a cancelled query
        must stop even at the rung that ignores the deadline.
        """
        return Budget(
            deadline_ms=None,
            max_plans=None,
            max_rows=run_budget.max_rows,
            cancel=run_budget.cancel,
            parent=run_budget,
        )

    def _sample_database(self) -> Database:
        """A seeded row-sample of every base table.

        Tables at or under ``verify_sample_rows`` are taken whole;
        larger ones are down-sampled by a ``random.Random`` seeded with
        ``verify_seed``, with tables visited in sorted-name order -- so
        two sessions with the same seed (and database) verify against
        byte-identical samples and quarantine incidents reproduce.
        """
        rng = random.Random(self.verify_seed)
        sampled = Database()
        for name in sorted(self.db.names()):
            relation = self.db[name]
            rows = list(relation.rows)
            if len(rows) > self.verify_sample_rows:
                rows = rng.sample(rows, self.verify_sample_rows)
            sampled.add(name, relation.with_rows(rows))
        return sampled

    # -- the ladder ------------------------------------------------------

    def run(
        self,
        query: Expr,
        budget: Budget | None = None,
        required_order: tuple[tuple[str, bool], ...] = (),
    ) -> SessionResult:
        """Run ``query`` through the degradation ladder.

        Args:
            query: The logical expression to answer.
            budget: Per-query :class:`Budget`; a fresh one from the
                session template when omitted.
            required_order: ``(attribute, descending)`` pairs the
                caller wants the answer ordered by (the query's ORDER
                BY).  The optimizer tries to provide it cheaply (sort
                pushed below joins, streamed through groupings); when
                the chosen plan cannot, the caller must sort the
                result itself -- check the plan's provided order.

        Raises:
            repro.errors.BudgetExceeded: The row cap was breached even
                at the as-written rung (deadline overruns degrade
                instead of raising).
            repro.errors.QueryCancelled: The budget's cancel token
                fired at a checkpoint.
        """
        with span("session.run", executor=self.executor):
            return self._run(query, budget, required_order)

    def _run(
        self,
        query: Expr,
        budget: Budget | None,
        required_order: tuple[tuple[str, bool], ...] = (),
    ) -> SessionResult:
        t0 = time.monotonic()
        run_budget = budget if budget is not None else self._fresh_budget()
        reasons: list[str] = []

        rungs = self._rungs(query, self._thresholds(run_budget))
        for level in rungs:
            try:
                outcome = self._attempt_optimized(
                    query,
                    run_budget,
                    level,
                    primary=level is rungs[0],
                    required_order=required_order,
                )
            except (BudgetExceeded, OptimizerInternalError, ExprError) as exc:
                reason = f"{level.name.lower()} stage abandoned: {exc}"
                reasons.append(reason)
                self.incidents.record(
                    Incident(
                        kind="stage-abandoned",
                        query=str(query),
                        detail={
                            "stage": level.name.lower(),
                            "error": type(exc).__name__,
                            "message": str(exc),
                        },
                        action="degraded",
                    )
                )
                continue
            set_tag("stage", outcome.degradation_level.name.lower())
            self._count_tier(outcome.degradation_level)
            return self._finalize(outcome, t0, run_budget, reasons)

        # rung 2: the original query.  The deadline bounds *optimization*
        # effort; down here a late answer beats no answer, so only the
        # row cap (the memory guard) stays -- exceeding it propagates as
        # a typed RowBudgetExceeded instead of OOMing the process.
        set_tag("stage", "as_written")
        self._count_tier(DegradationLevel.AS_WRITTEN)
        with span("execute", engine=self.executor, stage="as_written"):
            relation = self._execute(
                query, self._last_resort_budget(run_budget)
            )
        result = SessionResult(
            relation=relation,
            chosen=query,
            degradation_level=DegradationLevel.AS_WRITTEN,
            degradation_reason="; ".join(reasons) or None,
            plans_considered=0,
            verified=None,
            incident=None,
            elapsed_ms=(time.monotonic() - t0) * 1000.0,
            budget_snapshot=run_budget.to_dict(),
            plan_cache={"hit": False, **self.plan_cache.counters()},
        )
        return result

    def _stage_budget(self, run_budget: Budget, level: DegradationLevel) -> Budget:
        """The rung's slice of the per-query budget.

        Carving from an expired budget raises ``DeadlineExceeded``
        eagerly, which is just another way for the rung to be abandoned.
        """
        return run_budget.stage(
            _STAGE_FRACTIONS[level],
            # the fallback rungs run *because* the plan cap blew; their
            # own effort is bounded structurally (tiers / GREEDY_PLAN_CAP)
            max_plans="inherit" if level is DegradationLevel.FULL else None,
            where=f"{level.name.lower()}-stage",
        )

    def _plan_stage(
        self,
        query: Expr,
        level: DegradationLevel,
        stage_budget: Budget,
        primary: bool,
        required_order: tuple[tuple[str, bool], ...],
    ) -> tuple[OptimizationResult, bool]:
        """One rung's planning: ``(optimized, cache_hit)``.

        Only the primary rung reads the plan cache; a miss runs the
        rung's planner and the order pass.  Storing is the caller's
        policy.
        """
        if primary:
            cached = self.plan_cache.lookup(query, self._plan_version(required_order))
            if cached is not None:
                return cached, True
        optimized = self._plan_rung(query, level, stage_budget)
        return self._order_pass(optimized, required_order, stage_budget), False

    def _attempt_optimized(
        self,
        query: Expr,
        run_budget: Budget,
        level: DegradationLevel,
        primary: bool = True,
        required_order: tuple[tuple[str, bool], ...] = (),
    ) -> SessionResult:
        """One optimizing rung: plan, execute, verify -- under a slice.

        ``primary`` marks the rung the tier policy chose first: only
        its plans go through the cross-query plan cache (a lower rung's
        plan reached after a failure would shadow the better plan on
        reuse).
        """
        stage_budget = self._stage_budget(run_budget, level)
        with span(f"plan.{level.name.lower()}"):
            optimized, cache_hit = self._plan_stage(
                query, level, stage_budget, primary, required_order
            )
            plan = self._pick_plan(optimized)
        if self.feedback is not None:
            relation, plan, optimized, replans, replan_events = (
                self._execute_adaptive(query, plan, optimized, stage_budget, level)
            )
        else:
            replans, replan_events = 0, []
            with span("execute", engine=self.executor):
                relation = self._execute(plan, stage_budget)

        verified: bool | None = None
        incident: Incident | None = None
        if self.verify:
            verified, incident = self._verify_plan(query, plan, run_budget)
            if incident is not None:
                # containment: the optimized answer is not trusted;
                # re-run the original (last-resort budget: a correct
                # late answer beats a fast wrong one).
                relation = self._execute(
                    query, self._last_resort_budget(run_budget)
                )
                return SessionResult(
                    relation=relation,
                    chosen=query,
                    degradation_level=DegradationLevel.AS_WRITTEN,
                    degradation_reason=(
                        "verification mismatch: optimized plan quarantined"
                    ),
                    plans_considered=optimized.plans_considered,
                    verified=False,
                    incident=incident,
                    elapsed_ms=0.0,  # stamped by _finalize
                    budget_snapshot={},
                    plan_cache={"hit": cache_hit},
                    replans=replans,
                    replan_events=replan_events,
                )
        # only trustworthy primary-rung results are cached: a failed
        # verification never reaches here (handled above), and a
        # fallback rung's plan would shadow the better primary plan on
        # reuse.  A re-planned query re-stores even on a cache hit: the
        # hit was under the pre-feedback generation, and ``optimized``
        # now holds the corrected plan keyed by the bumped generation.
        if primary and (not cache_hit or replans):
            self.plan_cache.store(
                query, self._plan_version(required_order), optimized
            )
        return SessionResult(
            relation=relation,
            chosen=plan,
            degradation_level=level,
            degradation_reason=None,
            plans_considered=optimized.plans_considered,
            verified=verified,
            incident=incident,
            elapsed_ms=0.0,  # stamped by _finalize
            budget_snapshot={},
            plan_cache={"hit": cache_hit},
            replans=replans,
            replan_events=replan_events,
        )

    def _order_pass(
        self,
        optimized: OptimizationResult,
        required_order: tuple[tuple[str, bool], ...],
        stage_budget: Budget,
    ) -> OptimizationResult:
        """Order-aware refinement of the rung's chosen plan.

        Re-plans the inner-join core with the Pareto DP (interesting
        orders from join keys, group keys and ``required_order``) and
        keeps whichever of {rung plan, ordered candidates} has the
        lowest refined cost.  A pass that declines (non-inner core,
        budget, internal error) leaves the rung's result untouched --
        ordering is an optimization, never a failure mode.
        """
        from repro.optimizer.orders import order_aware_reorder

        try:
            with span("plan.order"):
                best = order_aware_reorder(
                    optimized.best,
                    self.stats,
                    required=tuple(required_order),
                    budget=stage_budget,
                    max_relations=self._thresholds(
                        stage_budget
                    ).full_max_relations,
                )
        except (BudgetExceeded, OptimizerInternalError, ExprError):
            return optimized
        if best == optimized.best:
            return optimized
        cost = CostModel(self.stats).cost(best)
        return OptimizationResult(
            best=best,
            best_cost=cost,
            original_cost=optimized.original_cost,
            plans_considered=optimized.plans_considered,
            ranked=[(cost, best)] + optimized.ranked,
        )

    # -- adaptive execution (cardinality feedback + re-planning) ---------

    def _execute_adaptive(
        self,
        query: Expr,
        plan: Expr,
        optimized: OptimizationResult,
        stage_budget: Budget,
        level: DegradationLevel,
    ) -> tuple[Relation, Expr, OptimizationResult, int, list]:
        """Execute ``plan`` under a cardinality monitor.

        Every operator boundary reports est/actual to the monitor;
        observations are ingested into the feedback store either way,
        so *future* queries plan on corrected estimates.  When armed
        (``replan_threshold`` set, full rung only -- the heuristic rung
        observes without triggering), an actual count beyond Nx its
        estimate aborts execution mid-query: the session ingests the
        observed counts, re-optimizes under what remains of the stage
        budget, and re-executes -- with the monitor's materialized
        intermediates serving every subtree the new plan shares with
        the old one.  After ``max_replans`` re-plans (or a failed
        re-optimization) the monitor is disarmed and the current plan
        runs to completion; a blown budget still degrades down the
        normal ladder.  ``replan.trigger`` / ``replan.reoptimize`` /
        ``replan.resume`` are both tracing spans and fault-injection
        sites.
        """
        armed = (
            self.replan_threshold is not None
            and level is DegradationLevel.FULL
        )
        monitor = CardinalityMonitor(
            threshold=self.replan_threshold if armed else None,
            max_cached_rows=(
                stage_budget.max_rows
                if stage_budget.max_rows is not None
                else 200_000
            ),
        )
        self._stamp_estimates(monitor, plan)
        replans = 0
        events: list[dict] = []
        while True:
            try:
                with span(
                    "execute", engine=self.executor, replans=str(replans)
                ), monitor_scope(monitor):
                    relation = self._execute(plan, stage_budget)
                break
            except ReplanTriggered as trigger:
                replans += 1
                plan, optimized = self._handle_replan(
                    query, plan, optimized, stage_budget,
                    monitor, trigger, replans, events,
                )
        self._ingest_observations(monitor)
        return relation, plan, optimized, replans, events

    def _handle_replan(
        self,
        query: Expr,
        plan: Expr,
        optimized: OptimizationResult,
        stage_budget: Budget,
        monitor: CardinalityMonitor,
        trigger: ReplanTriggered,
        replans: int,
        events: list,
    ) -> tuple[Expr, OptimizationResult]:
        """One triggered re-plan; returns the plan to resume with."""
        event = {**trigger.to_dict(), "replans": replans}
        event.pop("error", None)
        with span(
            "replan.trigger",
            site=trigger.site,
            est=f"{trigger.est:g}",
            actual=f"{trigger.actual:g}",
        ):
            fault_point("replan", op="trigger")
            # believe the observed counts before re-costing: this bumps
            # the feedback generation, so the stale cached plan for this
            # query self-invalidates
            self._ingest_observations(monitor)

        if replans > self.max_replans:
            monitor.disarm()
            event["outcome"] = "gave-up"
            self._record_replan(query, event, "replan-cap-reached")
            events.append(event)
            return plan, optimized

        with span("replan.reoptimize"):
            fault_point("replan", op="reoptimize")
            model = CostModel(self.stats)
            try:
                event["old_cost"] = model.cost(plan)
                reopt = self._optimize_fn(
                    query,
                    self.stats,
                    max_plans=self.max_plans,
                    budget=stage_budget,
                )
                new_plan = self._pick_plan(reopt)
                event["new_cost"] = model.cost(new_plan)
            except (BudgetExceeded, OptimizerInternalError, ExprError) as exc:
                # give up re-planning, keep the answer coming: the
                # current plan runs to completion (shared subtrees are
                # already materialized), and a truly blown budget still
                # degrades down the normal ladder
                monitor.disarm()
                event["outcome"] = "reoptimize-failed"
                event["error"] = f"{type(exc).__name__}: {exc}"
                self._record_replan(query, event, "reoptimize-failed")
                events.append(event)
                return plan, optimized

        if new_plan == plan:
            # the estimates moved but the plan did not; the monitor's
            # fired-set guarantees this node cannot trigger again
            event["outcome"] = "same-plan"
            self._record_replan(query, event, "same-plan")
            events.append(event)
            return plan, optimized

        with span("replan.resume", reused=str(monitor.reused)):
            fault_point("replan", op="resume")
            self._stamp_estimates(monitor, new_plan)
        event["outcome"] = "replanned"
        self._record_replan(query, event, "replanned")
        events.append(event)
        return new_plan, reopt

    def _stamp_estimates(self, monitor: CardinalityMonitor, plan: Expr) -> None:
        """Stamp per-node row estimates for the plan about to run."""
        model = CostModel(self.stats)
        monitor.stamp(plan, lambda node: model.estimate(node).rows)

    def _ingest_observations(self, monitor: CardinalityMonitor) -> None:
        """Drain the monitor's est/actual pairs into the store."""
        if self.feedback is None:
            return
        version = self.stats.version
        for node, est, actual in monitor.drain():
            self.feedback.observe(node, est, actual, stats_version=version)
            if self.metrics is not None and est is not None and est > 0:
                self.metrics.histogram("repro_estimate_error_ratio").observe(
                    actual / est
                )

    def _record_replan(self, query: Expr, event: dict, outcome: str) -> None:
        self.incidents.record(
            Incident(
                kind="replan",
                query=str(query),
                detail=dict(event),
                action=outcome,
            )
        )
        if self.metrics is not None:
            self.metrics.counter("repro_replans_total").labels(
                outcome=event.get("outcome", outcome)
            ).inc()

    def _finalize(
        self,
        result: SessionResult,
        t0: float,
        run_budget: Budget,
        reasons: list[str],
    ) -> SessionResult:
        result.elapsed_ms = (time.monotonic() - t0) * 1000.0
        result.budget_snapshot = run_budget.to_dict()
        result.plan_cache = {**result.plan_cache, **self.plan_cache.counters()}
        if result.degradation_reason is None and reasons:
            result.degradation_reason = "; ".join(reasons)
        return result

    def _pick_plan(self, optimized: OptimizationResult) -> Expr:
        """The cheapest candidate that is not quarantined."""
        if optimized.best not in self.quarantined:
            return optimized.best
        for _, plan in optimized.ranked:
            if plan not in self.quarantined:
                return plan
        raise OptimizerInternalError(
            "every candidate plan is quarantined by earlier verification failures"
        )

    # -- verification ----------------------------------------------------

    def _verify_plan(
        self, original: Expr, plan: Expr, run_budget: Budget
    ) -> tuple[bool | None, Incident | None]:
        """Differentially check ``plan`` against ``original`` on a sample.

        Returns ``(verified, incident)``.  ``verified`` is None when the
        check could not finish inside the budget (recorded, not fatal:
        an unverified plan is still the best plan we have).
        """
        if plan == original:
            return True, None
        with span("verify"):
            return self._verify_on_sample(original, plan, run_budget)

    def _verify_on_sample(
        self, original: Expr, plan: Expr, run_budget: Budget
    ) -> tuple[bool | None, Incident | None]:
        sample = self._sample_database()
        remaining = run_budget.remaining_ms
        check_budget = Budget(
            deadline_ms=None if remaining == float("inf") else remaining,
            cancel=run_budget.cancel,
        )
        try:
            reference = evaluate(original, sample, budget=check_budget)
            candidate = evaluate(plan, sample, budget=check_budget)
        except BudgetExceeded as exc:
            self.incidents.record(
                Incident(
                    kind="verification-skipped",
                    query=str(original),
                    detail=exc.to_dict(),
                    action="accepted-unverified-plan",
                )
            )
            return None, None
        if reference.same_content(candidate):
            return True, None
        self.quarantined.add(plan)
        evicted = self.plan_cache.evict_plan(plan)
        incident = self.incidents.record(
            Incident(
                kind="verification-mismatch",
                query=str(original),
                detail={
                    "plan": str(plan),
                    "sample_rows": {
                        name: len(sample[name]) for name in sample.names()
                    },
                    "verify_seed": self.verify_seed,
                    "reference_rows": len(reference),
                    "plan_rows": len(candidate),
                    "plan_cache": {
                        "evicted": evicted,
                        **self.plan_cache.counters(),
                    },
                },
                action="quarantined-plan; fell back to original",
            )
        )
        return False, incident

    # -- SQL front door --------------------------------------------------

    def _ensure_catalog(self):
        if self.catalog is None:
            from repro.sql import SqlCatalog

            catalog = SqlCatalog()
            for name in self.db.names():
                catalog.add_table(name, tuple(self.db[name].real))
            self.catalog = catalog
        return self.catalog

    def run_sql(self, text: str) -> list[StatementOutcome]:
        """Run a ``;``-separated SQL script through the ladder.

        ``create view`` statements register views in the session
        catalog; every ``select`` runs via :meth:`run`.

        Args:
            text: The SQL script (the subset in ``repro.sql``).

        Raises:
            repro.errors.UserInputError: The script does not parse or
                references unknown tables/columns.
        """
        from repro.sql import parse_statements, translate
        from repro.sql.ast import CreateViewStmt

        catalog = self._ensure_catalog()
        outcomes: list[StatementOutcome] = []
        for statement in parse_statements(text):
            if isinstance(statement, CreateViewStmt):
                catalog.add_view(statement)
                outcomes.append(
                    StatementOutcome(kind="view", view_name=statement.name)
                )
                continue
            translation = translate(statement, catalog)
            outcomes.append(
                StatementOutcome(
                    kind="select",
                    translation=translation,
                    result=self.run(
                        translation.expr,
                        required_order=translation.order_by,
                    ),
                )
            )
        return outcomes

    # -- planning without execution (EXPLAIN) ----------------------------

    def plan(
        self,
        query: Expr,
        budget: Budget | None = None,
        required_order: tuple[tuple[str, bool], ...] = (),
    ) -> tuple[OptimizationResult | None, DegradationLevel, str | None]:
        """The ladder's planning half only (for EXPLAIN-style output).

        Args:
            query: The logical expression to plan.
            budget: Per-query :class:`Budget`; a fresh one from the
                session template when omitted.
            required_order: Desired output order, as in :meth:`run`.

        Returns:
            ``(optimized, level, reason)`` -- the optimization result
            (``None`` when every optimizing rung was abandoned), the
            rung that produced it, and the abandoned rungs' reasons.
        """
        run_budget = budget if budget is not None else self._fresh_budget()
        reasons: list[str] = []
        rungs = self._rungs(query, self._thresholds(run_budget))
        for level in rungs:
            primary = level is rungs[0]
            try:
                stage_budget = self._stage_budget(run_budget, level)
                optimized, cache_hit = self._plan_stage(
                    query, level, stage_budget, primary, required_order
                )
                if primary and not cache_hit:
                    self.plan_cache.store(
                        query, self._plan_version(required_order), optimized
                    )
            except (BudgetExceeded, OptimizerInternalError, ExprError) as exc:
                reasons.append(f"{level.name.lower()}: {exc}")
                continue
            return optimized, level, "; ".join(reasons) or None
        return None, DegradationLevel.AS_WRITTEN, "; ".join(reasons) or None
