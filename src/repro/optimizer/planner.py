"""The optimizer: find the cheapest equivalent plan of a query.

The paper's Section 4 embeds the reordering in "the dynamic
programming approach of existing RDBMS optimizers".  :func:`optimize`
does exactly that for the common case: it normalizes the query
(outer joins simplified, aggregations pulled to the root), peels the
unary wrappers off the join core, and when the core is a tree of inner
joins orders it with the exact System-R DP of
:mod:`repro.optimizer.dp`.  Cores the DP cannot handle -- outer joins,
generalized selections, anything not a single-relation leaf below an
inner join -- go through the transformation closure of
:func:`repro.core.pipeline.reorder_pipeline` instead, which
materializes every rewrite of the core up to ``max_plans`` plans.
Either way the candidates are costed with
:class:`repro.optimizer.cost.CostModel` and the cheapest one wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> optimizer)
    from repro.runtime.budget import Budget

from repro.core.pipeline import normalize, reorder_pipeline
from repro.errors import OptimizerInternalError
from repro.expr.nodes import (
    AdjustPadding,
    Expr,
    GenSelect,
    GroupBy,
    Project,
    Select,
    Sort,
)
from repro.optimizer.cost import CostModel
from repro.optimizer.dp import DpError, dp_join_order
from repro.optimizer.stats import Statistics
from repro.runtime.tracing import add_counter, span

#: The unary wrappers the reordering passes peel off the join core, in
#: the order they may legally nest (outermost first during peeling).
WRAPPER_TYPES = (GroupBy, GenSelect, AdjustPadding, Project, Select, Sort)


def peel_wrappers(expr: Expr) -> tuple[list[Expr], Expr]:
    """Split ``expr`` into its unary wrapper chain and the join core.

    Returns ``(stack, core)`` where ``stack`` lists the wrappers
    outermost-first; :func:`rebuild_wrappers` inverts it.
    """
    stack: list[Expr] = []
    core: Expr = expr
    while isinstance(core, WRAPPER_TYPES):
        stack.append(core)
        core = core.children()[0]
    return stack, core


def rebuild_wrappers(stack: list[Expr], core: Expr) -> Expr:
    """Re-wrap a reordered join core in its peeled wrapper chain."""
    out = core
    for wrapper in reversed(stack):
        out = dc_replace(wrapper, child=out)
    return out


class OptimizerDeclined(OptimizerInternalError):
    """The planner declined the query before doing any work.

    Raised eagerly when ``max_relations`` says the query is too large
    for the FULL rung -- the caller (the session ladder, or a direct
    API user) should route it to an enumeration tier
    (:mod:`repro.optimizer.tiers`) instead of letting the exponential
    enumeration burn its whole budget first.
    """


@dataclass
class OptimizationResult:
    """The chosen plan plus bookkeeping for reports."""

    best: Expr
    best_cost: float
    original_cost: float
    plans_considered: int
    ranked: list[tuple[float, Expr]]

    @property
    def improvement(self) -> float:
        """original/best cost ratio (>= 1 when optimization helps)."""
        if self.best_cost == 0:
            return 1.0 if self.original_cost == 0 else float("inf")
        return self.original_cost / self.best_cost


def optimize(
    query: Expr,
    stats: Statistics,
    max_plans: int = 5000,
    keep_ranked: int = 10,
    budget: "Budget | None" = None,
    max_relations: int | None = None,
) -> OptimizationResult:
    """Optimize ``query``: normalize, order the join core, pick the minimum.

    An inner-join core is ordered by the exact DP
    (:func:`repro.optimizer.dp.dp_join_order`); the candidates are the
    DP plan under the peeled wrappers, the query as written and its
    normalized form.  Any other core falls back to the rewrite closure
    of :func:`repro.core.pipeline.reorder_pipeline`, cut at
    ``max_plans`` plans.  The candidates are costed with
    :class:`repro.optimizer.cost.CostModel`.

    With a ``budget``, the DP (one plan charged per table entry), the
    enumeration and the costing loop run under cooperative checkpoints
    and raise the typed :class:`repro.errors.BudgetExceeded` family
    when a cap is hit.  With ``max_relations``, queries joining more
    relations than that are declined *eagerly* with
    :class:`OptimizerDeclined` -- both enumerations are exponential,
    and a caller with a fallback (the session ladder, the enumeration
    tiers) is better served by an instant typed refusal than by a
    burned budget.
    """
    if max_relations is not None:
        n = len(query.base_names)
        if n > max_relations:
            raise OptimizerDeclined(
                f"query joins {n} relations, above the full-enumeration "
                f"ceiling of {max_relations}"
            )
    normalized = normalize(query)
    stack, core = peel_wrappers(normalized)
    try:
        ordered = dp_join_order(core, stats, budget=budget)
    except DpError:
        with span("optimize.enumerate"):
            plans = reorder_pipeline(
                query, max_plans=max_plans, budget=budget, normalized=normalized
            )
    else:
        dp_plan = rebuild_wrappers(stack, ordered)
        plans = list(dict.fromkeys((dp_plan, query, normalized)))
    model = CostModel(stats)
    scored = []
    with span("optimize.cost"):
        for i, plan in enumerate(plans):
            if budget is not None and i % 64 == 0:
                budget.check_deadline("optimize/costing")
            scored.append((model.cost(plan), i, plan))
        add_counter("plans_costed", len(scored))
    scored.sort(key=lambda t: (t[0], t[1]))
    best_cost, _, best = scored[0]
    return OptimizationResult(
        best=best,
        best_cost=best_cost,
        original_cost=model.cost(query),
        plans_considered=len(plans),
        ranked=[(c, p) for c, _, p in scored[:keep_ranked]],
    )
