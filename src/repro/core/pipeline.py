"""The end-to-end reordering pipeline (Section 4).

Step a) push aggregations to the root, deferring any predicate
conjunct that references an aggregated column (Example 3.1); step b)
enumerate all equivalent expression trees of the join core (complex
predicates broken up via generalized selection).  The optimizer picks
the cheapest tree; :func:`reorder_pipeline` yields them all.

:func:`normalize` is step a) alone; the optimizer runs it once and
hands the result to :func:`reorder_pipeline` when the core needs the
closure.  Every core plan keeps the seed core's attribute set, so the
peeled wrappers are rebuilt over each one without re-validation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> core)
    from repro.runtime.budget import Budget

from repro.expr.nodes import (
    AdjustPadding,
    Expr,
    GenSelect,
    GroupBy,
    Project,
    Select,
)
from repro.core.aggregation import pull_up_aggregations
from repro.core.simplify import simplify_outer_joins
from repro.core.transform import enumerate_plans
from repro.expr.rewrite import _respine
from repro.runtime.tracing import span


def normalize(query: Expr) -> Expr:
    """Step a): outer joins simplified, aggregations pulled to the root.

    :func:`repro.optimizer.planner.optimize` normalizes once through
    here and hands the result to :func:`reorder_pipeline`.
    """
    with span("pipeline.normalize"):
        return pull_up_aggregations(simplify_outer_joins(query))


def reorder_pipeline(
    query: Expr,
    max_plans: int = 20000,
    budget: "Budget | None" = None,
    normalized: Expr | None = None,
) -> list[Expr]:
    """All equivalent plans for ``query``.

    The query is simplified, its aggregations are pulled to the root
    (predicates on aggregated columns deferred with generalized
    selections), and the join core below is enumerated by the rewrite
    closure.  Each returned plan is equivalent to ``query``.  A caller
    that already holds :func:`normalize`'s result passes it as
    ``normalized``.  An optional ``budget`` makes enumeration raise the
    typed :class:`repro.errors.BudgetExceeded` family instead of
    running unbounded (see :func:`repro.core.transform.enumerate_plans`).
    """
    if normalized is None:
        normalized = normalize(query)
    if budget is not None:
        budget.check_deadline("reorder_pipeline")

    # split the tree into (wrapper stack, join core): the core is the
    # part below the outermost GroupBy/GenSelect chain
    stack: list[Expr] = []
    core: Expr = normalized
    while isinstance(core, (GroupBy, GenSelect, AdjustPadding, Project, Select)):
        stack.append(core)
        core = core.children()[0]

    plans = []
    with span("pipeline.enumerate"):
        core_plans = enumerate_plans(core, max_plans=max_plans, budget=budget)
    for core_plan in core_plans:
        # every core plan has the seed core's attribute set, so the
        # wrappers stay valid and are rebuilt without re-validation
        plan = core_plan
        for wrapper in reversed(stack):
            plan = _respine(wrapper, (plan,))
        plans.append(plan)
    # the as-written shape (lazy aggregation) remains a candidate: when
    # the eager/pushed-up form loses (unselective filters), the
    # optimizer must still be able to keep the original order
    if query not in plans:
        plans.append(query)
    if normalized not in plans:
        plans.append(normalized)
    return plans
