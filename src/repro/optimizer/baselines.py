"""Baselines the paper's contribution is measured against.

* ``as_written`` -- no reordering at all: execute the query in the
  shape the analyst wrote (what a system without outer-join/aggregate
  reordering must do for these queries);
* ``optimize_no_gs`` -- classical reordering only (commutativity and
  the valid associativities), with *no* generalized selection: complex
  predicates and aggregation-referencing predicates freeze the order,
  which is the pre-paper state of the art the introduction describes;
* ``tis_cost`` -- tuple-iteration-semantics cost of a nested
  join-aggregate query (the execution strategy GANS87/MURA92 unnest
  away from): number of predicate evaluations of the nested loops;
* ``left_deep_join_order`` -- the classic System-R dynamic program
  restricted to left-deep trees (cross products deferred), the
  baseline the large-n enumeration tiers are measured against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> optimizer)
    from repro.runtime.budget import Budget

from repro.core.aggregation import pull_up_aggregations
from repro.core.simplify import simplify_outer_joins
from repro.core.transform import enumerate_plans
from repro.core.unnest import NestedCountQuery
from repro.errors import OptimizerInternalError, UserInputError
from repro.expr.evaluate import Database
from repro.expr.nodes import Expr, Join, JoinKind
from repro.expr.predicates import make_conjunction
from repro.optimizer.cost import CostModel, estimated_cost
from repro.optimizer.planner import OptimizationResult
from repro.optimizer.stats import Statistics
from repro.optimizer.tiers import peel_wrappers, rebuild_wrappers
from repro.runtime.tracing import span


class EmptyClosureError(OptimizerInternalError):
    """Plan enumeration produced no plans at all.

    Only possible under a degenerate configuration (``max_plans=0`` or
    a budget that expires before the seed plan is emitted); typed so
    the degradation ladder absorbs it instead of an ``IndexError`` /
    ``ValueError`` escaping from deep inside a baseline.
    """


def as_written(query: Expr, stats: Statistics) -> float:
    """Cost of executing the query exactly as written."""
    return estimated_cost(query, stats)


def optimize_no_gs(
    query: Expr, stats: Statistics, max_plans: int = 5000
) -> OptimizationResult:
    """Best plan reachable without generalized selection.

    Aggregations stay where they are (pulling them up requires the GS
    deferral for predicates on aggregated columns); the join core is
    reordered with the classical rules only.
    """
    normalized = simplify_outer_joins(query)
    plans = enumerate_plans(normalized, max_plans=max_plans, with_gs=False)
    model = CostModel(stats)
    scored = sorted(
        ((model.cost(plan), i, plan) for i, plan in enumerate(plans)),
        key=lambda t: (t[0], t[1]),
    )
    if not scored:
        raise EmptyClosureError(
            "classical closure enumeration produced no plans "
            f"(max_plans={max_plans})"
        )
    best_cost, _, best = scored[0]
    return OptimizationResult(
        best=best,
        best_cost=best_cost,
        original_cost=model.cost(query),
        plans_considered=len(plans),
        ranked=[(c, p) for c, _, p in scored[:10]],
    )


#: Hard cap on the classical closure the heuristic may explore; keeps
#: the fallback stage bounded even with no deadline set.
GREEDY_PLAN_CAP = 64


def greedy_reorder(
    query: Expr, stats: Statistics, budget: "Budget | None" = None
) -> OptimizationResult:
    """Bounded-effort heuristic: the degradation ladder's middle rung.

    When the full rewrite closure is too expensive (budget exhausted,
    or the optimizer declined the query), this produces a *good-enough*
    plan cheaply:

    * pure inner-join cores go through the System-R dynamic program
      (:func:`repro.optimizer.dp.dp_join_order`) -- polynomial-ish on
      paper-sized queries and guaranteed to terminate;
    * anything else (outer joins, GS wrappers) falls back to a tiny
      classical closure (``with_gs=False``, capped at
      ``GREEDY_PLAN_CAP`` plans) and picks the cheapest member.

    Either way the result is bag-equivalent to ``query`` -- both
    strategies only apply verified rewrites.
    """
    with span("optimize.greedy"):
        return _greedy_reorder(query, stats, budget)


def _greedy_reorder(
    query: Expr, stats: Statistics, budget: "Budget | None"
) -> OptimizationResult:
    from repro.optimizer.dp import DpError, dp_join_order

    normalized = simplify_outer_joins(query)
    # peel the unary wrapper chain off the join core (same walk as
    # reorder_pipeline, minus the aggregation push-up: no GS here)
    stack, core = peel_wrappers(normalized)
    try:
        ordered = dp_join_order(core, stats, budget=budget)
        best: Expr = rebuild_wrappers(stack, ordered)
        plans_considered = 1
    except DpError:
        model = CostModel(stats)
        plans = enumerate_plans(
            normalized, max_plans=GREEDY_PLAN_CAP, with_gs=False, budget=budget
        )
        if not plans:
            raise EmptyClosureError(
                "greedy fallback closure produced no plans "
                f"(max_plans={GREEDY_PLAN_CAP})"
            ) from None
        best = min(
            plans, key=lambda plan: (model.cost(plan), repr(plan))
        )
        plans_considered = len(plans)
    best_cost = estimated_cost(best, stats)
    return OptimizationResult(
        best=best,
        best_cost=best_cost,
        original_cost=estimated_cost(query, stats),
        plans_considered=plans_considered,
        ranked=[(best_cost, best)],
    )


def tis_cost(query: NestedCountQuery, db: Database) -> int:
    """Predicate evaluations performed by tuple iteration semantics."""

    def cost_level(level: NestedCountQuery, depth_rows: int) -> int:
        relation = db[level.relation.name]
        evaluations = depth_rows * len(relation)
        if level.subquery is not None:
            # every (context, row) pair descends into the subquery; we
            # charge the full fan-out (the nested loop does not know
            # which correlations will match before evaluating them)
            evaluations += cost_level(level.subquery, depth_rows * len(relation))
        return evaluations

    top = db[query.relation.name]
    if query.subquery is None:
        # a bare assert here would vanish under ``python -O``
        raise UserInputError(
            "tis_cost requires a nested query (no subquery level present)"
        )
    return len(top) + cost_level(query.subquery, len(top))


def left_deep_join_order(
    query: Expr, stats: Statistics, budget: "Budget | None" = None
) -> Expr:
    """The classic System-R baseline: exact DP over left-deep trees.

    Bottom-up over a frontier of reachable subsets, extending each by
    one base relation at a time; extensions with no applicable join
    atom (cross products) are deferred System-R style -- a second pass
    admits them only when the atom-connected frontier cannot reach the
    full relation set.  Uses the same shape-independent C_out measure
    as :func:`repro.optimizer.dp.dp_join_order`, so its plans compare
    directly under ``dp_cost``.  This is the baseline the enumeration
    tiers (:mod:`repro.optimizer.tiers`) are benchmarked against.
    """
    from repro.optimizer.dp import _Workspace

    ws = _Workspace(query, stats)
    if len(ws.leaves) < 2:
        return query
    names = sorted(ws.leaves)
    with span("optimize.left_deep"):
        entry = _left_deep(ws, names, budget, allow_cross=False)
        if entry is None:
            entry = _left_deep(ws, names, budget, allow_cross=True)
        if entry is None:  # pragma: no cover - cross pass always completes
            raise EmptyClosureError("left-deep enumeration reached no full plan")
    return entry[1]


def _left_deep(
    ws, names: list[str], budget: "Budget | None", allow_cross: bool
) -> tuple[float, Expr] | None:
    level: dict[frozenset, tuple[float, Expr]] = {
        frozenset((name,)): (0.0, ws.leaves[name]) for name in names
    }
    for _ in range(len(names) - 1):
        nxt: dict[frozenset, tuple[float, Expr]] = {}
        for subset, (cost, plan) in level.items():
            if budget is not None:
                budget.check_deadline("left_deep_join_order")
            s_attrs = ws.attrs_of(subset)
            for name in names:
                if name in subset:
                    continue
                r_attrs = set(ws.leaves[name].all_attrs)
                new_subset = subset | {name}
                applicable = ws.atoms_joining(
                    ws.attrs_of(new_subset), s_attrs, r_attrs
                )
                if not applicable and not allow_cross:
                    continue
                new_cost = cost + ws.cardinality(new_subset)
                cur = nxt.get(new_subset)
                if cur is None or new_cost < cur[0]:
                    nxt[new_subset] = (
                        new_cost,
                        Join(
                            JoinKind.INNER,
                            plan,
                            ws.leaves[name],
                            make_conjunction(applicable),
                        ),
                    )
        if not nxt:
            return None
        level = nxt
    return level.get(frozenset(names))
