"""System-R style dynamic programming over connected sub-hypergraphs.

Section 4 proposes embedding the reordering in "the dynamic
programming approach of existing RDBMS optimizers".  This module is
that enumerator for inner-join cores: bottom-up over connected node
subsets, keeping the cheapest plan per subset.

For Bellman optimality the cost of a subset must not depend on the
shape of the subplan that produced it, so the DP uses the classical
*shape-independent* cardinality

    card(S) = Π_{r ∈ S} |r|  ×  Π_{atoms inside S} sel(atom)

and C_out(plan) = Σ card(S) over the plan's internal subsets
(:func:`dp_cost` applies the same measure to any plan, which is how
the tests verify the DP optimum equals the full closure's optimum
exactly).  Predicate atoms are attached to the unique join where their
relations first become available; connectivity uses the hypergraph's
broken-up sub-edges (Definition 3.2 item 3).

A connected subset can still have *no* applicable atom on any split --
a predicate spanning three or more relations keeps the subset
connected through its hyperedge while none of its atoms is evaluable
until every referenced relation is present (the same happens on star
schemas whose written form carries a cross product).  Such subsets
take a cross-product split as a last resort; the atoms attach later,
at the first join where all their relations are available.  Splits
with applicable atoms always win over cross products for the same
subset, so queries that never need the fallback get byte-identical
plans.

:func:`_fill_table` is the one table fill, and every inner-join
ordering runs through it: :func:`dp_join_order` (the FULL rung and
the greedy rung), :func:`pareto_frontier` (the order pass, which adds
interesting orders, Sort enforcers and dominance pruning to each
entry) and the partitioned enumeration tier
(:mod:`repro.optimizer.tiers`), which solves each partition exactly
over a shared workspace/hypergraph pair and stitches the results.
"""

from __future__ import annotations

from repro.errors import OptimizerInternalError

from itertools import combinations

from repro.expr.nodes import Expr, Join, JoinKind, Sort
from repro.expr.orderprops import OrderSpec, normalize_order, order_satisfies
from repro.expr.predicates import Predicate, conjuncts_of, make_conjunction
from repro.expr.rewrite import iter_nodes
from repro.hypergraph import hypergraph_of
from repro.optimizer.cardinality import Estimate, estimate, selectivity
from repro.optimizer.stats import Statistics
from repro.runtime.tracing import span


class DpError(OptimizerInternalError):
    """Raised when the query shape is outside the DP's scope."""


def _is_leaf(node: Expr) -> bool:
    """A subtree over one base relation with no binary node inside.

    SQL translation wraps each table in ``Select``/``Rename``/``Project``
    nodes; the DP treats the whole stack as one relation.
    """
    if len(node.base_names) != 1:
        return False
    children = node.children()
    while children:
        if len(children) > 1:
            return False
        children = children[0].children()
    return True


class _Workspace:
    """Shared state of one DP run: leaves, atoms, selectivities.

    The core is walked explicitly through inner joins and ``Sort``
    enforcers (transparent to the join core), never into a leaf (see
    :func:`_is_leaf`); leaves are keyed by their one base name.

    With a :class:`repro.runtime.feedback.FeedbackStore` attached to
    ``stats``, base estimates are corrected by leaf observations and
    atom selectivities by per-atom predicate factors.  Both keys name
    a leaf or an atom, never a plan shape, so the cardinality of a
    subset stays shape-independent.
    """

    def __init__(self, query: Expr, stats: Statistics) -> None:
        self.leaves: dict[str, Expr] = {}
        self.atoms: list[Predicate] = []
        stack = [query]
        while stack:
            node = stack.pop()
            if isinstance(node, Join):
                if node.kind is not JoinKind.INNER:
                    raise DpError("dp_join_order handles inner joins only")
                self.atoms.extend(conjuncts_of(node.predicate))
                stack.append(node.right)
                stack.append(node.left)
            elif isinstance(node, Sort):
                stack.append(node.child)
            elif _is_leaf(node):
                (name,) = node.base_names
                self.leaves[name] = node
            else:
                raise DpError(
                    f"unsupported node {type(node).__name__} in the join core"
                )
        self.stats = stats
        self.base_estimates = {
            name: estimate(rel, stats) for name, rel in self.leaves.items()
        }
        merged_distinct: dict[str, float] = {}
        merged_freq: dict = {}
        for est in self.base_estimates.values():
            merged_distinct.update(est.distinct)
            merged_freq.update(est.freq)
        self._global = Estimate(0.0, merged_distinct, merged_freq)
        feedback = getattr(stats, "feedback", None)
        self.atom_selectivity = {
            atom: selectivity(atom, self._global)
            * (
                1.0
                if feedback is None
                else feedback.predicate_factor(atom, stats.version)
            )
            for atom in self.atoms
        }

    def attrs_of(self, subset: frozenset[str]) -> set[str]:
        out: set[str] = set()
        for name in subset:
            out.update(self.leaves[name].all_attrs)
        return out

    def cardinality(self, subset: frozenset[str]) -> float:
        """Shape-independent estimated cardinality of joining ``subset``."""
        rows = 1.0
        for name in subset:
            rows *= self.base_estimates[name].rows
        attrs = self.attrs_of(subset)
        for atom in self.atoms:
            if atom.attrs <= attrs:
                rows *= self.atom_selectivity[atom]
        return rows

    def atoms_joining(self, attrs, left_attrs, right_attrs) -> list[Predicate]:
        """The atoms a join of two disjoint sides evaluates: those
        inside ``attrs`` (both sides together) touching each side."""
        return [
            atom
            for atom in self.atoms
            if atom.attrs <= attrs
            and atom.attrs & left_attrs
            and atom.attrs & right_attrs
        ]


def dp_join_order(query: Expr, stats: Statistics, budget=None) -> Expr:
    """The cheapest bushy join order for an inner-join query.

    ``query`` must be a tree of inner joins over single-relation
    leaves (outer joins go through the transformation pipeline
    instead, :class:`DpError` says so); returns an equivalent tree
    minimizing the shape-independent C_out.  An optional
    :class:`repro.runtime.Budget` adds a deadline checkpoint per
    enumerated subset and charges one plan per table entry, so
    ``max_plans`` bounds the DP as it bounds the closure.
    """
    _, entries = _solve(query, stats, budget)
    return query if entries is None else entries[()][1]


# ---- the table: cheapest plan per (subset, interesting order) --------
#
# Each table entry maps an order spec to the cheapest (cost, plan)
# providing it; the blind DP is the table with no interesting orders,
# where every entry is the single ``()`` key.  With interesting orders
# the table keeps, per connected subset, the Pareto frontier over
# *physical order*: inner hash joins pass their left child's order
# through (the engines emit inner-join rows left-major), and Sort
# enforcers add entries for each interesting order at every subset,
# costed with Guravannavar's partial-sort discount, so order is bought
# at the cheapest point in the tree rather than always at the root.
# The ``()`` entries make the same moves either way, which is what
# makes the "never worse than blind optimum + root sort" guarantee
# structural rather than empirical.

def _real_attrs_of(ws: _Workspace, subset: frozenset[str]) -> set[str]:
    out: set[str] = set()
    for name in subset:
        out.update(ws.leaves[name].real_attrs)
    return out


def _entry_rank(order: OrderSpec) -> tuple:
    # deterministic strict tie-break: prefer the finer (longer) order,
    # then lexicographic -- makes mutual domination drop exactly one
    return (-len(order), order)


def _prune_dominated(entries, eq) -> None:
    """Drop entries another entry dominates (cheaper-or-equal cost AND
    satisfies the dropped entry's order).  Ties break on
    :func:`_entry_rank`, so equivalent entries never eliminate each
    other simultaneously."""
    items = list(entries.items())
    for o, (c, _plan) in items:
        for o2, (c2, _plan2) in items:
            if o2 == o or o2 not in entries:
                continue
            if (c2, _entry_rank(o2)) < (c, _entry_rank(o)) and order_satisfies(
                o2, o, eq
            ):
                entries.pop(o, None)
                break


def _sort_runs(ws: _Workspace, provided: OrderSpec, target: OrderSpec) -> float:
    """Sorted-run count of ``provided`` input w.r.t. ``target``: the
    product of distinct counts over the matching key prefix."""
    runs = 1.0
    for (p_attr, p_desc), (t_attr, t_desc) in zip(provided, target):
        if p_attr != t_attr or p_desc != t_desc:
            break
        runs *= max(1.0, ws._global.distinct.get(p_attr, 1.0))
    return runs


def _add_enforcers(
    ws: _Workspace,
    subset: frozenset[str],
    entries,
    interesting,
    eq,
) -> None:
    """Extend ``entries`` with the cheapest way to provide each
    applicable interesting order (pass-through when some entry already
    satisfies it, partial/full Sort otherwise)."""
    from repro.optimizer.cost import sort_penalty

    rows = ws.cardinality(subset)
    real_attrs = _real_attrs_of(ws, subset)
    for order in interesting:
        if not order or not {a for a, _ in order} <= real_attrs:
            continue
        best = entries.get(order)
        for have, (cost, plan) in list(entries.items()):
            if order_satisfies(have, order, eq):
                cand_cost, cand_plan = cost, plan
            else:
                runs = min(_sort_runs(ws, have, order), rows or 1.0)
                cand_cost = cost + sort_penalty(rows, runs)
                cand_plan = Sort(plan, order)
            if best is None or cand_cost < best[0]:
                best = (cand_cost, cand_plan)
        if best is not None:
            entries[order] = best


def _join_into(entries, left, right, output: float, applicable) -> None:
    """Offer every pairing of ``left`` and ``right`` entries as one
    join; keep the cheapest per provided order (the left input's).  A
    strictly cheaper cost is needed to replace a held entry."""
    predicate = None
    for order, (c_left, p_left) in left.items():
        for c_right, p_right in right.values():
            cost = c_left + c_right + output
            held = entries.get(order)
            if held is not None and held[0] <= cost:
                continue
            if predicate is None:
                predicate = make_conjunction(applicable)
            entries[order] = (cost, Join(JoinKind.INNER, p_left, p_right, predicate))


def _fill_table(
    ws: _Workspace,
    graph,
    names: frozenset[str],
    budget=None,
    interesting=(),
    eq=None,
    charge: bool = True,
):
    """The DP table fill over ``names`` (a node subset of ``graph``).

    Fills the bottom-up table over the connected subsets of ``names``
    and returns ``(entries, masks_expanded)``: ``entries`` maps order
    spec -> (cost, plan) for the full subset, or is ``None`` when the
    induced sub-hypergraph is disconnected.  ``ws`` and ``graph`` may
    cover a superset of ``names`` -- the partitioned tier shares one
    workspace across every partition it solves.

    ``interesting`` (normalized, non-empty order specs) and ``eq``
    (attribute -> equality class, for Szlichta-style free orders) turn
    on the enforcer and dominance-prune steps; with no interesting
    orders every entry is the single order-blind ``()`` key.  With
    ``charge`` each filled subset is charged to ``budget`` as one
    plan; without it (the order pass) the budget only bounds time.
    """
    where = "dp_join_order" if charge else "dp_order_pareto"
    ordered = sorted(names)
    table: dict[frozenset[str], dict] = {}
    for name in ordered:
        leaf = frozenset((name,))
        entries = {(): (0.0, ws.leaves[name])}
        if interesting:
            _add_enforcers(ws, leaf, entries, interesting, eq)
            _prune_dominated(entries, eq)
        table[leaf] = entries

    bit = graph.node_bit
    masks_expanded = 0
    for size in range(2, len(ordered) + 1):
        for combo in combinations(ordered, size):
            if budget is not None:
                budget.check_deadline(where)
            mask = 0
            for name in combo:
                mask |= bit[name]
            if not graph.is_connected_mask(mask):
                continue
            masks_expanded += 1
            subset = frozenset(combo)
            subset_attrs = ws.attrs_of(subset)
            output = ws.cardinality(subset)
            entries = {}
            for left, right in _splits(subset):
                if left not in table or right not in table:
                    continue
                applicable = ws.atoms_joining(
                    subset_attrs, ws.attrs_of(left), ws.attrs_of(right)
                )
                if applicable:
                    _join_into(entries, table[left], table[right], output, applicable)
            if not entries:
                # the subset is connected (a hyperedge spans it) yet no
                # split carries an evaluable atom -- e.g. a predicate
                # over three relations with only two of them present.
                # Without a fallback the subset never enters the table
                # and a *connected* query dies with a spurious
                # "disconnected" error; allow the cheapest cross-product
                # split instead, and let the atoms attach at the first
                # join where all their relations are available.
                for left, right in _splits(subset):
                    if left in table and right in table:
                        _join_into(entries, table[left], table[right], output, ())
            if entries:
                if charge and budget is not None:
                    budget.charge_plans(1, where)
                if interesting:
                    _add_enforcers(ws, subset, entries, interesting, eq)
                    _prune_dominated(entries, eq)
                table[subset] = entries

    return table.get(frozenset(ordered)), masks_expanded


def _solve(
    query: Expr, stats: Statistics, budget, interesting=(), eq=None, pareto=False
):
    """Shared shell of :func:`dp_join_order` and :func:`pareto_frontier`.

    Builds the workspace and hypergraph, fills the table under the
    ``optimize.dp`` span and returns ``(ws, root entries)``; the
    entries are ``None`` when the core has fewer than two relations.
    The order pass (``pareto``) tags the span and charges no plans.
    """
    ws = _Workspace(query, stats)
    if len(ws.leaves) < 2:
        return ws, None
    graph = hypergraph_of(query)
    tags = {"mode": "pareto"} if pareto else {}
    with span("optimize.dp", **tags) as sp:
        entries, masks_expanded = _fill_table(
            ws, graph, frozenset(ws.leaves), budget, interesting, eq, charge=not pareto
        )
        if sp is not None:
            sp.add_counter("masks_expanded", masks_expanded)
    if entries is None:
        raise DpError("query hypergraph is disconnected")
    return ws, entries


def pareto_frontier(
    query: Expr,
    stats: Statistics,
    interesting=(),
    budget=None,
    eq=None,
):
    """The root Pareto frontier of an inner-join core.

    Returns a ``dict`` mapping each surviving order spec to ``(cost,
    plan)``; the ``()`` entry is the order-blind optimum (identical
    plan and cost to :func:`dp_join_order`), and every other entry is
    the cheapest way to additionally provide that order.
    """
    interesting = tuple(
        dict.fromkeys(normalize_order(o) for o in interesting if o)
    )
    ws, entries = _solve(query, stats, budget, interesting, eq, pareto=True)
    if entries is None:
        entries = {(): (0.0, query)}
        _add_enforcers(ws, frozenset(ws.leaves), entries, interesting, eq)
    return entries


def dp_join_order_pareto(
    query: Expr,
    stats: Statistics,
    interesting=(),
    required: OrderSpec = (),
    budget=None,
    eq=None,
) -> tuple[Expr, float]:
    """Order-aware DP over an inner-join core.

    Returns ``(plan, cost)`` where the plan's output satisfies
    ``required`` (when non-empty) and the cost never exceeds the
    order-blind optimum plus a root Sort -- that candidate is always
    in the table, since enforcer entries are added at every subset
    including the root.
    """
    required = normalize_order(required)
    interesting = tuple(interesting) + ((required,) if required else ())
    entries = pareto_frontier(query, stats, interesting, budget, eq)
    if required:
        best = None
        for have, (cost, plan) in entries.items():
            if order_satisfies(have, required, eq):
                if best is None or (cost, _entry_rank(have)) < best[0]:
                    best = ((cost, _entry_rank(have)), plan)
        if best is None:
            # applicability can fail only if the order names unknown attrs
            raise DpError(
                f"required order references attributes outside the query: "
                f"{[a for a, _ in required]}"
            )
        return best[1], best[0][0]
    cost, plan = min(entries.values(), key=lambda entry: entry[0])
    return plan, cost


def dp_cost(plan: Expr, stats: Statistics) -> float:
    """The DP's own C_out measure applied to an arbitrary inner plan.

    Sum of shape-independent subset cardinalities over the plan's
    internal nodes; lets the tests compare the DP optimum with every
    plan of the transformation closure under one consistent measure.
    """
    ws = _Workspace(plan, stats)
    total = 0.0
    for _, node in iter_nodes(plan):
        if isinstance(node, Join):
            total += ws.cardinality(node.base_names)
    return total


def _splits(subset: frozenset[str]):
    items = sorted(subset)
    anchor = items[0]
    rest = items[1:]
    for size in range(0, len(rest)):
        for combo in combinations(rest, size):
            left = frozenset((anchor,) + combo)
            yield left, subset - left
