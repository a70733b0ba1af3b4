"""Enumeration tiers between full DP and the greedy closure.

The exact bitset DP (:mod:`repro.optimizer.dp`) is exponential in the
relation count; machine-generated queries at service scale reach 20-60
relations, where full enumeration cannot finish inside any reasonable
budget.  Before this module the degradation ladder jumped straight
from "full closure" to the tiny greedy closure -- an enormous quality
cliff.  Two intermediate tiers smooth it out:

* **GOO** (greedy operator ordering): repeatedly merge the pair of
  clusters whose join has the smallest estimated cardinality,
  preferring connected merges over cross products.  O(n^2 log n) with
  a lazily-invalidated heap; handles hundreds of relations.

* **Partitioned DP**: grow connected partitions of at most
  ``partition_size`` relations along hypergraph edges, solve each
  partition *exactly* with the DP's one table fill
  (:func:`repro.optimizer.dp._fill_table` over a shared workspace),
  then stitch partition plans with a bounded best-first
  search over inter-partition merges (the Schoenberger & Trummer
  partition-solve-stitch shape, with greedy-rollout best-first search
  standing in for the MILP solver to stay pure python).  A final
  O(n^3) *linearized refinement* runs an interval DP over the
  stitched plan's own leaf order: every binary tree is an interval
  tree of its own leaf order, so the refined plan is never worse than
  the stitched one, and on chain-shaped queries (where connected
  subsets *are* intervals) it recovers the exact bushy optimum --
  which is how this tier beats the System-R left-deep baseline.

Both tiers use the DP's shape-independent cardinality, so their output
is directly comparable to the exact optimum under
:func:`repro.optimizer.dp.dp_cost`, and both only emit inner joins
whose predicates are conjunctions of the query's own atoms -- every
produced plan is bag-equivalent to the input by construction.

Tier *choice* is a policy (:func:`choose_tier` consulting
:class:`repro.runtime.budget.TierThresholds`), applied by the
degradation ladder in :class:`repro.runtime.QuerySession` -- not a
crash path.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> optimizer)
    from repro.runtime.budget import Budget

from repro.core.simplify import simplify_outer_joins
from repro.expr.nodes import Expr, Join, JoinKind
from repro.expr.predicates import make_conjunction
from repro.hypergraph import hypergraph_of
from repro.optimizer.cost import estimated_cost
from repro.optimizer.dp import DpError, _Workspace, _fill_table
from repro.optimizer.planner import (
    OptimizationResult,
    peel_wrappers,
    rebuild_wrappers,
)
from repro.optimizer.stats import Statistics
from repro.runtime.budget import DEFAULT_TIERS, TierThresholds
from repro.runtime.tracing import span

#: CLI-facing tier names.
TIER_NAMES = ("auto", "dp", "partitioned", "goo")


def choose_tier(n_relations: int, thresholds: TierThresholds | None = None) -> str:
    """The enumeration tier policy for a join core of ``n_relations``."""
    th = thresholds or DEFAULT_TIERS
    if n_relations <= th.full_max_relations:
        return "dp"
    if n_relations <= th.partitioned_max_relations:
        return "partitioned"
    return "goo"


@dataclass(frozen=True)
class _Cluster:
    """One connected blob of already-joined relations.

    ``cost`` is the accumulated C_out of the cluster's plan under the
    DP's shape-independent measure; ``card`` its output cardinality.
    Clusters partition the leaves, so their attribute sets are
    disjoint and an atom is applied in exactly one cluster -- the one
    whose attributes first cover it.
    """

    subset: frozenset[str]
    attrs: frozenset[str]
    card: float
    cost: float
    expr: Expr


def _cluster(
    ws: _Workspace, subset: frozenset[str], cost: float, expr: Expr
) -> _Cluster:
    return _Cluster(
        subset=subset,
        attrs=frozenset(ws.attrs_of(subset)),
        card=ws.cardinality(subset),
        cost=cost,
        expr=expr,
    )


def _merge_clusters(ws: _Workspace, a: _Cluster, b: _Cluster) -> tuple[_Cluster, tuple]:
    """Join two clusters; returns the merged cluster and its preference
    key (connected merges first, then smaller cardinality, then name).

    The newly-applicable atoms are exactly the ones the DP attaches
    at this join (:meth:`_Workspace.atoms_joining`).  The incremental
    cardinality ``card_a * card_b * prod sel(new atoms)`` equals
    ``ws.cardinality(union)`` because cluster attribute sets are
    disjoint.
    """
    attrs = a.attrs | b.attrs
    new_atoms = ws.atoms_joining(attrs, a.attrs, b.attrs)
    card = a.card * b.card
    for atom in new_atoms:
        card *= ws.atom_selectivity[atom]
    merged = _Cluster(
        subset=a.subset | b.subset,
        attrs=attrs,
        card=card,
        cost=a.cost + b.cost + card,
        expr=Join(JoinKind.INNER, a.expr, b.expr, make_conjunction(new_atoms)),
    )
    return merged, (0 if new_atoms else 1, card, min(merged.subset))


def _cluster_sort_key(cluster: _Cluster) -> str:
    return min(cluster.subset)


def goo_join_order(
    query: Expr,
    stats: Statistics,
    budget: "Budget | None" = None,
) -> Expr:
    """Greedy operator ordering for an inner-join core.

    Starts from one cluster per relation and repeatedly merges the
    pair with the smallest resulting cardinality, preferring pairs
    joined by an applicable atom over cross products.  A
    lazily-invalidated heap keeps each step O(n log n) amortized, so
    the whole ordering is O(n^2 log n) -- fast enough for hundreds of
    relations where the DP table cannot even be allocated.
    """
    ws = _Workspace(query, stats)
    if len(ws.leaves) < 2:
        return query
    with span("optimize.goo") as sp:
        cost, plan, merges = _goo(ws, budget)
        if sp is not None:
            sp.add_counter("merges", merges)
    return plan


def _goo(
    ws: _Workspace, budget: "Budget | None"
) -> tuple[float, Expr, int]:
    alive: dict[int, _Cluster] = {}
    for i, name in enumerate(sorted(ws.leaves)):
        alive[i] = _cluster(ws, frozenset((name,)), 0.0, ws.leaves[name])
    next_id = len(alive)

    seq = itertools.count()
    heap: list[tuple[int, float, str, int, int, int]] = []

    def push_pair(i: int, j: int) -> None:
        _, key = _merge_clusters(ws, alive[i], alive[j])
        heapq.heappush(heap, key + (next(seq), i, j))

    ids = sorted(alive)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            push_pair(ids[x], ids[y])

    merges = 0
    while len(alive) > 1:
        if budget is not None:
            budget.check_deadline("goo_join_order")
        _, _, _, _, i, j = heapq.heappop(heap)
        if i not in alive or j not in alive:
            continue  # a stale pair; one side was merged away
        merged, _ = _merge_clusters(ws, alive[i], alive[j])
        del alive[i]
        del alive[j]
        mid = next_id
        next_id += 1
        alive[mid] = merged
        merges += 1
        for other in list(alive):
            if other != mid:
                push_pair(mid, other)

    (_, final) = alive.popitem()
    return final.cost, final.expr, merges


def _adjacency(graph) -> dict[str, set[str]]:
    """Each node's neighbours: the nodes sharing a hyperedge with it."""
    adjacency: dict[str, set[str]] = {name: set() for name in graph.nodes}
    for edge in graph.edges:
        for a in edge.nodes:
            adjacency[a].update(edge.nodes)
            adjacency[a].discard(a)
    return adjacency


def _partition_nodes(graph, max_size: int) -> list[frozenset[str]]:
    """Deterministic connected partitions of at most ``max_size`` nodes.

    BFS growth along hyperedges: each partition starts at the smallest
    unassigned name and absorbs adjacent unassigned nodes until full.
    Growing strictly along edges keeps every partition connected in
    the induced sub-hypergraph, so the per-partition DP always reaches
    its full subset.
    """
    adjacency = _adjacency(graph)
    unassigned = set(graph.nodes)
    parts: list[frozenset[str]] = []
    while unassigned:
        seed = min(unassigned)
        unassigned.discard(seed)
        part = {seed}
        frontier = sorted(adjacency[seed] & unassigned)
        while frontier and len(part) < max_size:
            name = frontier.pop(0)
            if name not in unassigned:
                continue
            unassigned.discard(name)
            part.add(name)
            for nxt in sorted(adjacency[name] & unassigned):
                if nxt not in frontier:
                    frontier.append(nxt)
        parts.append(frozenset(part))
    return parts


def partitioned_dp_join_order(
    query: Expr,
    stats: Statistics,
    budget: "Budget | None" = None,
    thresholds: TierThresholds | None = None,
) -> Expr:
    """Partition-solve-stitch join ordering for an inner-join core.

    The hypergraph is split into connected partitions of at most
    ``thresholds.partition_size`` relations; each partition is solved
    *exactly* with the shared-workspace DP table fill
    (:func:`repro.optimizer.dp._fill_table`), and the partition
    plans are stitched by a bounded best-first search over pairwise
    merges (``stitch_beam`` successors per expansion, at most
    ``stitch_expansions`` expansions, with a greedy rollout scoring
    every visited state so the search is anytime: the result is never
    worse than pure greedy stitching).
    """
    th = thresholds or DEFAULT_TIERS
    ws = _Workspace(query, stats)
    if len(ws.leaves) < 2:
        return query
    graph = hypergraph_of(query)

    with span("optimize.partition") as sp:
        parts = _partition_nodes(graph, th.partition_size)
        clusters: list[_Cluster] = []
        masks_total = 0
        for part in parts:
            entries, masks = _fill_table(ws, graph, part, budget)
            masks_total += masks
            if entries is None:  # pragma: no cover - partitions grow along edges
                raise DpError(f"partition {sorted(part)} is disconnected")
            clusters.append(_cluster(ws, part, *entries[()]))
        cost, plan, expansions = _stitch(
            ws, clusters, budget, th.stitch_beam, th.stitch_expansions
        )
        # refine over three linearizations: the stitched plan's own
        # leaf order (a plan is an interval tree of its own leaf
        # order, so refinement never loses), the hypergraph's BFS
        # order (on chain-shaped graphs this is the chain itself,
        # where interval trees contain the exact bushy optimum), and
        # the GOO plan's leaf order (a globally greedy view, which
        # also makes this tier never worse than the GOO tier).
        _, goo_plan, _ = _goo(ws, budget)
        orders = (_leaf_order(plan), _bfs_order(graph), _leaf_order(goo_plan))
        for order in orders:
            refined_cost, refined = _interval_dp(ws, order, budget)
            if refined_cost < cost:
                cost, plan = refined_cost, refined
        if sp is not None:
            sp.add_counter("partitions", len(parts))
            sp.add_counter("masks_expanded", masks_total)
            sp.add_counter("stitch_expansions", expansions)
    return plan


def _leaf_order(plan: Expr) -> list[str]:
    """Base relation names in the plan's left-to-right leaf order."""
    order: list[str] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            stack.append(node.right)
            stack.append(node.left)
        else:
            (name,) = node.base_names
            order.append(name)
    return order


def _bfs_order(graph) -> list[str]:
    """Deterministic BFS traversal of the hypergraph's nodes.

    Keeps edge-adjacent relations close together in the
    linearization, which is what the interval DP needs to find good
    structure; on a pure chain this is the chain order itself.
    """
    adjacency = _adjacency(graph)
    order: list[str] = []
    visited: set[str] = set()
    pending = sorted(graph.nodes)
    for seed in pending:
        if seed in visited:
            continue
        queue = [seed]
        visited.add(seed)
        while queue:
            name = queue.pop(0)
            order.append(name)
            for nxt in sorted(adjacency[name]):
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append(nxt)
    return order


def _interval_dp(
    ws: _Workspace, order: list[str], budget: "Budget | None"
) -> tuple[float, Expr]:
    """Optimal bushy plan among interval trees of ``order`` -- O(n^3).

    The classical linearized DP: restrict the exact DP to contiguous
    intervals of a fixed relation order, splitting each interval into
    two sub-intervals.  Any binary join tree is an interval tree of
    its own leaf order, so refining a heuristic plan through its
    linearization never makes it worse; on chain hypergraphs (where
    every connected subset is an interval of the chain) the result is
    the exact bushy optimum.  Cross products are allowed implicitly --
    a split with no applicable atom simply contributes no selectivity
    -- so the search space is complete over the given order.
    """
    n = len(order)
    leaf_attrs = [frozenset(ws.attrs_of(frozenset((name,)))) for name in order]
    rows = [ws.base_estimates[name].rows for name in order]

    # attrs[i][j] / card[i][j] for the interval order[i..j], built
    # incrementally: extending by one relation multiplies in its base
    # rows and the selectivities of the newly covered atoms.
    attrs: list[list[frozenset[str]]] = [[frozenset()] * n for _ in range(n)]
    card: list[list[float]] = [[0.0] * n for _ in range(n)]
    for i in range(n):
        a = leaf_attrs[i]
        c = ws.cardinality(frozenset((order[i],)))
        attrs[i][i] = a
        card[i][i] = c
        for j in range(i + 1, n):
            prev = a
            a = a | leaf_attrs[j]
            c *= rows[j]
            for atom in ws.atoms:
                if atom.attrs <= a and not atom.attrs <= prev:
                    c *= ws.atom_selectivity[atom]
            attrs[i][j] = a
            card[i][j] = c

    cost: list[list[float]] = [[0.0] * n for _ in range(n)]
    split: list[list[int]] = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        if budget is not None:
            budget.check_deadline("interval-dp")
        for i in range(0, n - length + 1):
            j = i + length - 1
            out = card[i][j]
            best_cost = None
            best_k = i
            for k in range(i, j):
                c = cost[i][k] + cost[k + 1][j] + out
                if best_cost is None or c < best_cost:
                    best_cost = c
                    best_k = k
            cost[i][j] = best_cost
            split[i][j] = best_k

    def build(i: int, j: int) -> Expr:
        if i == j:
            return ws.leaves[order[i]]
        k = split[i][j]
        left = build(i, k)
        right = build(k + 1, j)
        applicable = ws.atoms_joining(attrs[i][j], attrs[i][k], attrs[k + 1][j])
        return Join(JoinKind.INNER, left, right, make_conjunction(applicable))

    return cost[0][n - 1], build(0, n - 1)


def _greedy_rollout(
    ws: _Workspace, state: tuple[_Cluster, ...]
) -> tuple[float, Expr]:
    """Complete ``state`` to one cluster by repeated cheapest merges."""
    clusters = list(state)
    while len(clusters) > 1:
        best = None
        for x in range(len(clusters)):
            for y in range(x + 1, len(clusters)):
                merged, key = _merge_clusters(ws, clusters[x], clusters[y])
                if best is None or key < best[0]:
                    best = (key, x, y, merged)
        _, x, y, merged = best
        clusters = [c for k, c in enumerate(clusters) if k not in (x, y)]
        clusters.append(merged)
    (final,) = clusters
    return final.cost, final.expr


def _stitch(
    ws: _Workspace,
    clusters: list[_Cluster],
    budget: "Budget | None",
    beam: int,
    max_expansions: int,
) -> tuple[float, Expr, int]:
    """Bounded best-first search over inter-partition merges.

    States are sets of clusters; successors merge one pair, keeping
    the ``beam`` most promising (connected-first, then cardinality).
    Every popped state is greedily rolled out to a complete plan and
    the best rollout is returned -- an anytime search bounded by
    ``max_expansions``, never worse than plain greedy stitching.
    """
    if len(clusters) == 1:
        only = clusters[0]
        return only.cost, only.expr, 0

    seq = itertools.count()
    start = tuple(sorted(clusters, key=_cluster_sort_key))
    heap = [(sum(c.cost for c in start), next(seq), start)]
    seen = {frozenset(c.subset for c in start)}
    best: tuple[float, Expr] | None = None
    expansions = 0

    while heap and expansions < max_expansions:
        if budget is not None:
            budget.check_deadline("partition-stitch")
        total, _, state = heapq.heappop(heap)
        rollout_cost, rollout_plan = _greedy_rollout(ws, state)
        if best is None or rollout_cost < best[0]:
            best = (rollout_cost, rollout_plan)
        if len(state) == 1:
            continue
        expansions += 1
        candidates = []
        for x in range(len(state)):
            for y in range(x + 1, len(state)):
                merged, key = _merge_clusters(ws, state[x], state[y])
                candidates.append((key, x, y, merged))
        candidates.sort(key=lambda t: t[0])
        for _, x, y, merged in candidates[:beam]:
            rest = [c for k, c in enumerate(state) if k not in (x, y)]
            rest.append(merged)
            nxt = tuple(sorted(rest, key=_cluster_sort_key))
            key = frozenset(c.subset for c in nxt)
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(heap, (sum(c.cost for c in nxt), next(seq), nxt))

    return best[0], best[1], expansions


def _tier_reorder(
    order_core,
    query: Expr,
    stats: Statistics,
) -> OptimizationResult:
    """Shared peel/order/rebuild shell for the tier entry points."""
    normalized = simplify_outer_joins(query)
    stack, core = peel_wrappers(normalized)
    ordered = order_core(core)
    best = rebuild_wrappers(stack, ordered)
    best_cost = estimated_cost(best, stats)
    return OptimizationResult(
        best=best,
        best_cost=best_cost,
        original_cost=estimated_cost(query, stats),
        plans_considered=1,
        ranked=[(best_cost, best)],
    )


def goo_reorder(
    query: Expr,
    stats: Statistics,
    budget: "Budget | None" = None,
) -> OptimizationResult:
    """GOO tier entry point: peel wrappers, order the core greedily.

    Raises :class:`repro.optimizer.dp.DpError` (an
    :class:`repro.errors.OptimizerInternalError`) when the core is not
    a pure inner-join tree -- the ladder then falls through to the
    greedy closure, which handles outer joins.
    """
    return _tier_reorder(
        lambda core: goo_join_order(core, stats, budget=budget), query, stats
    )


def partitioned_reorder(
    query: Expr,
    stats: Statistics,
    budget: "Budget | None" = None,
    thresholds: TierThresholds | None = None,
) -> OptimizationResult:
    """Partitioned-DP tier entry point; same contract as :func:`goo_reorder`."""
    return _tier_reorder(
        lambda core: partitioned_dp_join_order(
            core, stats, budget=budget, thresholds=thresholds
        ),
        query,
        stats,
    )
