"""Order-aware planning: the Pareto DP and the session order pass.

The acceptance bar (ISSUE criterion 3): a plan produced by the
order-aware DP under a required order is **never costlier than the
order-blind optimum plus one root sort** -- the DP can always fall
back to exactly that plan, so anything worse is a search bug.  We
assert it across chain and star topologies and seeds, and separately
check the pieces: interesting-order seeding, equality-derived free
orders, enforcer placement below joins when the discount pays, and
``order_aware_reorder``'s never-worse contract on wrapped queries.
"""

import math
import random

import pytest

from repro.expr import evaluate
from repro.expr.nodes import GroupBy, Sort
from repro.expr.orderprops import order_satisfies, provided_order
from repro.expr.predicates import eq
from repro.optimizer import Statistics, TableStats
from repro.optimizer.cost import CostModel, sort_penalty
from repro.optimizer.dp import (
    DpError,
    dp_cost,
    dp_join_order,
    dp_join_order_pareto,
    pareto_frontier,
)
from repro.optimizer.orders import (
    equality_classes,
    interesting_orders,
    order_aware_reorder,
)
from repro.relalg.aggregates import AggregateFunction, AggregateSpec
from repro.workloads.random_db import random_database
from repro.workloads.topologies import chain_query, star_query

from tests.optimizer.test_dp import chain_stats
from tests.optimizer.test_tiers import star_stats


def _root_sort_bound(query, stats, required):
    """Cost of the order-blind optimum with one sort bolted on top."""
    blind = dp_join_order(query, stats)
    model = CostModel(stats)
    rows = model.estimate(blind).rows
    return dp_cost(blind, stats) + sort_penalty(rows, rows or 1.0)


class TestCriterionThree:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chain_never_worse_than_blind_plus_root_sort(self, n, seed):
        query = chain_query(n)
        stats = chain_stats(n, seed)
        required = ((f"r1_a0", False),)
        plan, cost = dp_join_order_pareto(query, stats, required=required)
        eq_classes = equality_classes(query)
        assert order_satisfies(provided_order(plan), required, eq_classes)
        assert cost <= _root_sort_bound(query, stats, required) + 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_star_never_worse_than_blind_plus_root_sort(self, n, seed):
        query = star_query(n)
        stats = star_stats(n, seed)
        required = (("r0_a0", False),)
        plan, cost = dp_join_order_pareto(query, stats, required=required)
        eq_classes = equality_classes(query)
        assert order_satisfies(provided_order(plan), required, eq_classes)
        assert cost <= _root_sort_bound(query, stats, required) + 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_blind_entry_matches_blind_dp(self, seed):
        """The ()-order frontier entry replicates the order-blind DP
        move for move: the same plan at exactly the blind optimum."""
        cases = [(chain_query(n), chain_stats(n, seed)) for n in range(3, 9)]
        cases += [(star_query(n), star_stats(n, seed)) for n in range(3, 7)]
        for query, stats in cases:
            cost, plan = pareto_frontier(query, stats)[()]
            blind = dp_join_order(query, stats)
            assert plan == blind
            assert cost == pytest.approx(dp_cost(blind, stats))

    def test_unsatisfiable_required_order_raises(self):
        query = chain_query(3)
        stats = chain_stats(3)
        with pytest.raises(DpError):
            dp_join_order_pareto(
                query, stats, required=(("not_an_attr", False),)
            )


class TestFrontier:
    def test_interesting_order_entries_are_satisfied(self):
        query = chain_query(4)
        stats = chain_stats(4)
        interesting = interesting_orders(query)
        assert interesting  # equi-join atoms seed candidate orders
        frontier = pareto_frontier(query, stats, interesting)
        eq_classes = equality_classes(query)
        for order, (cost, plan) in frontier.items():
            if order:
                assert order_satisfies(
                    provided_order(plan), order, eq_classes
                )
            assert cost >= frontier[()][0] - 1e-9  # order is never free

    def test_dominance_pruning_keeps_frontier_small(self):
        query = chain_query(5)
        stats = chain_stats(5)
        interesting = interesting_orders(query)
        frontier = pareto_frontier(query, stats, interesting)
        # at most one entry per distinct interesting order plus ()
        assert len(frontier) <= len(interesting) + 1

    def test_equality_classes_union_join_atoms(self):
        query = chain_query(3)  # r1_a1 = r2_a0, r2_a1 = r3_a0
        classes = equality_classes(query)
        assert classes["r1_a1"] == frozenset({"r1_a1", "r2_a0"})
        assert classes["r2_a1"] == frozenset({"r2_a1", "r3_a0"})

    def test_free_order_via_equality_class(self):
        """A required order on the *other* side of an equi atom is
        satisfied without a second sort (Szlichta-style free order)."""
        query = chain_query(3)
        stats = chain_stats(3)
        required = (("r2_a0", False),)  # r1_a1 = r2_a0 in the query
        plan, cost = dp_join_order_pareto(query, stats, required=required)
        sorts = [n for n in plan.walk() if isinstance(n, Sort)]
        assert len(sorts) <= 1
        assert order_satisfies(
            provided_order(plan), required, equality_classes(query)
        )


class TestEnforcerPlacement:
    def test_sort_below_join_when_cheaper(self):
        """With a large final result and a small ordered relation, the
        DP pushes the enforcer below the joins instead of sorting the
        whole output at the root."""
        stats = Statistics()
        stats.add("r1", TableStats(10, {"r1_a0": 5, "r1_a1": 5}))
        stats.add("r2", TableStats(1000, {"r2_a0": 500, "r2_a1": 500}))
        stats.add("r3", TableStats(1000, {"r3_a0": 500, "r3_a1": 500}))
        query = chain_query(3)
        plan, cost = dp_join_order_pareto(
            query, stats, required=(("r1_a0", False),)
        )
        sorts = [n for n in plan.walk() if isinstance(n, Sort)]
        assert sorts, "expected an enforcer somewhere in the plan"
        # the enforcer sorts the 10-row relation, not the join output
        model = CostModel(stats)
        assert all(model.estimate(s.child).rows <= 10 for s in sorts)


class TestOrderAwareReorder:
    def test_never_worse_and_semantics_preserved(self):
        rng = random.Random(7)
        query = chain_query(3)
        stats = chain_stats(3)
        wrapped = GroupBy(
            query,
            ("r1_a0",),
            (AggregateSpec("n", AggregateFunction.COUNT),),
            name="g",
        )
        required = (("r1_a0", False),)
        plan = order_aware_reorder(wrapped, stats, required=required)
        db = random_database(
            rng, tuple(sorted(query.base_names)), max_rows=6, min_rows=1
        )
        assert evaluate(plan, db).same_content(evaluate(wrapped, db))

    def test_group_by_prefix_makes_order_by_free(self):
        """Ordering below a GROUP BY on the group key yields a plan
        whose output is already sorted: no root Sort is needed.

        (Seed 2's statistics make the streaming plan the cheaper one;
        under other statistics a root sort over few groups can
        legitimately win, which is the point of costing enforcers
        instead of always pushing them down.)"""
        query = chain_query(3)
        stats = chain_stats(3, seed=2)
        wrapped = GroupBy(
            query,
            ("r1_a0",),
            (AggregateSpec("n", AggregateFunction.COUNT),),
            name="g",
        )
        required = (("r1_a0", False),)
        plan = order_aware_reorder(wrapped, stats, required=required)
        assert order_satisfies(
            provided_order(plan), required, equality_classes(query)
        )
        assert not isinstance(plan, Sort), (
            "enforcer should sit below the aggregation, not at the root"
        )

    def test_no_required_order_is_a_no_op_or_improvement(self):
        query = chain_query(4)
        stats = chain_stats(4)
        blind = dp_join_order(query, stats)
        plan = order_aware_reorder(blind, stats)
        model = CostModel(stats)
        assert model.cost(plan) <= model.cost(blind) + 1e-9
