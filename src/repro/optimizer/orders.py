"""Interesting-order seeding and the order-aware planning pass.

The Pareto DP (:func:`repro.optimizer.dp.pareto_frontier`) needs to be
told which physical orders are *worth* tracking and how to exploit
attribute equivalences; this module derives both from the query
itself:

* **interesting orders** -- the classical System-R seeding: single-key
  ascending orders on every equi-join key (they enable merge joins),
  the innermost grouping wrapper's keys (they enable streaming
  aggregation), and whatever order the caller requires at the root
  (the query's ORDER BY).

* **equivalence classes** -- union-find over ``Col = Col`` join atoms:
  rows surviving ``a = b`` are ordered on ``b`` whenever they are
  ordered on ``a``, so an order on either attribute satisfies a
  requirement on the other (the functional-dependency "free" orders of
  Szlichta et al., restricted to equality classes).

:func:`order_aware_reorder` is the session-facing pass: peel the unary
wrappers off an already-reordered plan, rebuild each frontier entry
under the same wrappers, and keep the candidate with the lowest
*refined* cost -- C_out plus a hash-grouping surcharge that credits
streaming aggregation (C_out alone is order-blind: it charges a
grouping its output regardless of how the groups are found).  The
original plan is always a candidate, so the pass never degrades the
plan under its own measure.
"""

from __future__ import annotations

from repro.expr.nodes import Expr, GenSelect, GroupBy, Join, Sort
from repro.expr.orderprops import (
    OrderSpec,
    normalize_order,
    order_satisfies,
    provided_order,
    streaming_run_prefix,
)
from repro.expr.predicates import Col, Comparison, conjuncts_of
from repro.expr.rewrite import iter_nodes
from repro.optimizer.cost import CostModel
from repro.optimizer.dp import DpError, pareto_frontier
from repro.optimizer.planner import peel_wrappers, rebuild_wrappers
from repro.optimizer.stats import Statistics


def equality_classes(expr: Expr) -> dict[str, frozenset[str]]:
    """Attribute -> its equivalence class under ``Col = Col`` join atoms.

    Union-find over the equality atoms of every join predicate in
    ``expr``; attributes not mentioned in any such atom are absent
    (their class is implicitly the singleton).
    """
    parent: dict[str, str] = {}

    def find(a: str) -> str:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a: str, b: str) -> None:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            # deterministic: smaller name wins the root
            lo, hi = sorted((ra, rb))
            parent[hi] = lo

    for _, node in iter_nodes(expr):
        if isinstance(node, Join):
            for atom in conjuncts_of(node.predicate):
                if (
                    isinstance(atom, Comparison)
                    and atom.op == "="
                    and isinstance(atom.left, Col)
                    and isinstance(atom.right, Col)
                ):
                    union(atom.left.name, atom.right.name)

    classes: dict[str, set[str]] = {}
    for attr in parent:
        classes.setdefault(find(attr), set()).add(attr)
    out: dict[str, frozenset[str]] = {}
    for members in classes.values():
        cls = frozenset(members)
        for attr in members:
            out[attr] = cls
    return out


def interesting_orders(
    core: Expr,
    wrappers=(),
    required: OrderSpec = (),
) -> tuple[OrderSpec, ...]:
    """Order specs worth tracking for ``core`` (deduplicated, stable).

    Seeds, most-specific first: the caller's required root order, the
    innermost grouping wrapper's keys (full key list -- any provided
    prefix of it already streams), and a single-attribute ascending
    order per equi-join key.
    """
    orders: list[OrderSpec] = []
    if required:
        orders.append(normalize_order(required))
    for wrapper in reversed(wrappers):  # innermost wrapper first
        if isinstance(wrapper, GroupBy) and wrapper.group_by:
            orders.append(tuple((a, False) for a in wrapper.group_by))
            break
        if isinstance(wrapper, GenSelect) and wrapper.preserved:
            allowed = None
            for part in wrapper.preserved:
                attrs = frozenset(part.real) | frozenset(part.virtual)
                allowed = attrs if allowed is None else allowed & attrs
            if allowed:
                orders.append(tuple((a, False) for a in sorted(allowed)))
            break
    for _, node in iter_nodes(core):
        if isinstance(node, Join):
            for atom in conjuncts_of(node.predicate):
                if (
                    isinstance(atom, Comparison)
                    and atom.op == "="
                    and isinstance(atom.left, Col)
                    and isinstance(atom.right, Col)
                ):
                    orders.append(((atom.left.name, False),))
                    orders.append(((atom.right.name, False),))
    return tuple(dict.fromkeys(o for o in orders if o))


def refined_cost(expr: Expr, model: CostModel) -> float:
    """C_out plus a hash-grouping surcharge.

    A grouping (or generalized selection) whose input arrives
    clustered on a key prefix streams in one pass; otherwise it builds
    a hash table over its whole input, which this measure charges as
    one extra scan of the input.  Sort enforcers are already charged
    inside :class:`repro.optimizer.cost.CostModel`, so the comparison
    "sort below the grouping vs hash the grouping" is an honest one.
    """
    total = model.cost(expr)
    for _, node in iter_nodes(expr):
        if isinstance(node, GroupBy) and node.group_by:
            run = streaming_run_prefix(provided_order(node.child), node.group_by)
            if not run:
                total += model.estimate(node.child).rows
        elif isinstance(node, GenSelect) and node.preserved:
            allowed = None
            for part in node.preserved:
                attrs = frozenset(part.real) | frozenset(part.virtual)
                allowed = attrs if allowed is None else allowed & attrs
            run = streaming_run_prefix(
                provided_order(node.child), allowed or ()
            )
            if not run:
                total += model.estimate(node.child).rows
    return total


def order_aware_reorder(
    plan: Expr,
    stats: Statistics,
    required: OrderSpec = (),
    budget=None,
    max_relations: int | None = None,
) -> Expr:
    """Order-aware refinement of an already-reordered plan.

    Peels the unary wrapper chain, runs the Pareto DP over the
    inner-join core with the seeded interesting orders, rebuilds every
    frontier entry under the same wrappers, enforces ``required`` at
    the root where an entry does not already provide it, and returns
    the candidate minimizing :func:`refined_cost`.  The input plan
    (plus, when needed, a root Sort) is always among the candidates,
    so the result never costs more than the order-blind plan with a
    root enforcer.  When the core is not a pure inner-join tree, or
    joins more than ``max_relations`` relations (the Pareto table is
    exponential in that count), the pass degenerates to exactly that
    root-enforcement step.
    """
    required = normalize_order(required)
    wrappers, core = peel_wrappers(plan)
    eq = equality_classes(core)
    candidates: list[Expr] = [plan]
    interesting = interesting_orders(core, wrappers, required)
    if interesting and (
        max_relations is None or len(core.base_names) <= max_relations
    ):
        try:
            frontier = pareto_frontier(
                core, stats, interesting, budget=budget, eq=eq
            )
        except DpError:
            frontier = {}
        for order, (_cost, ordered_core) in sorted(
            frontier.items(), key=lambda item: item[0]
        ):
            if order:  # the () entry is the blind plan we already hold
                candidates.append(rebuild_wrappers(wrappers, ordered_core))

    model = CostModel(stats)
    best: tuple[tuple[float, int], Expr] | None = None
    for index, candidate in enumerate(candidates):
        if required and not order_satisfies(
            provided_order(candidate), required, eq
        ):
            if not {a for a, _ in required} <= set(candidate.real_attrs):
                continue  # cannot enforce here; the caller's fallback sorts
            candidate = Sort(candidate, required)
        key = (refined_cost(candidate, model), index)
        if best is None or key < best[0]:
            best = (key, candidate)
    if best is None:
        return plan
    return best[1]
