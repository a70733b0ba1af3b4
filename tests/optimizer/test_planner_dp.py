"""The FULL rung's planner: the exact DP on inner cores, the closure otherwise.

Queries here come from SQL text through :func:`repro.sql.translate`,
so every join core has the ``Rename``/``Select`` leaves the front-end
puts on each table -- the shape the DP, GOO and the partitioned tier
must take as single relations.
"""

import random

import pytest

from repro.core.pipeline import reorder_pipeline
from repro.errors import PlanBudgetExceeded
from repro.expr import evaluate
from repro.expr.evaluate import Database
from repro.expr.nodes import Join, JoinKind, Sort
from repro.expr.orderprops import order_satisfies, provided_order
from repro.optimizer import Statistics
from repro.optimizer import orders as orders_module
from repro.optimizer import planner
from repro.optimizer.dp import _Workspace, dp_cost, dp_join_order
from repro.optimizer.orders import order_aware_reorder
from repro.optimizer.planner import optimize, peel_wrappers
from repro.optimizer.tiers import goo_reorder, partitioned_reorder
from repro.relalg import Relation
from repro.runtime import Budget, FeedbackStore
from repro.sql import SqlCatalog, parse_statements, translate
from repro.testing import assert_equivalent

COLUMNS = ("k", "a", "b", "v")


def _tables(n: int) -> dict[str, tuple[str, ...]]:
    return {f"t{i}": COLUMNS for i in range(1, n + 1)}


def chain_sql(n: int, where: str = "") -> str:
    """``t1 .. tn`` joined left-deep on ``t(i-1).b = ti.a``."""
    text = "t1"
    for i in range(2, n + 1):
        text = f"({text} join t{i} on t{i - 1}.b = t{i}.a)"
    select = f"select t1.k as k1, t{n}.k as kn from {text}"
    return select + (f" where {where}" if where else "")


def star_sql(n: int) -> str:
    """Hub ``t1`` joined to satellites ``t2 .. tn`` on distinct columns."""
    text = "t1"
    hub_cols = ("a", "b", "v", "k")
    for i in range(2, n + 1):
        text = f"({text} join t{i} on t1.{hub_cols[(i - 2) % 4]} = t{i}.a)"
    return f"select t1.k as k1, t{n}.v as vn from {text}"


def sql_query(text: str, n: int):
    catalog = SqlCatalog(_tables(n))
    return translate(parse_statements(text)[0], catalog).expr


def database(n: int, seed: int = 1) -> Database:
    """Tables of different sizes and key spreads, so join orders differ."""
    rng = random.Random(seed)
    db = Database()
    for i in range(1, n + 1):
        rows = rng.choice((4, 12, 30))
        spread = rng.choice((2, 5, 10))
        data = [
            (k, rng.randrange(spread), rng.randrange(spread), rng.randrange(20))
            for k in range(rows)
        ]
        db.add(f"t{i}", Relation.base(f"t{i}", list(COLUMNS), data))
    return db


def _core_dp_cost(plan, stats) -> float:
    return dp_cost(peel_wrappers(plan)[1], stats)


class TestSqlShapedLeaves:
    """GOO and the partitioned tier take translated leaves as relations."""

    N = 14

    @pytest.fixture(scope="class")
    def chain(self):
        query = sql_query(chain_sql(self.N, where="t1.v >= 3"), self.N)
        db = database(self.N, seed=3)
        return query, db, Statistics.from_database(db)

    def test_the_core_has_rename_and_select_leaves(self, chain):
        query, _, stats = chain
        ws = _Workspace(peel_wrappers(query)[1], stats)
        assert sorted(ws.leaves) == sorted(f"t{i}" for i in range(1, self.N + 1))
        assert {type(leaf).__name__ for leaf in ws.leaves.values()} >= {"Rename"}

    @pytest.mark.parametrize("tier", [goo_reorder, partitioned_reorder])
    def test_tier_accepts_a_translated_chain(self, chain, tier):
        query, db, stats = chain
        result = tier(query, stats)
        assert result.best.base_names == query.base_names
        assert evaluate(result.best, db).same_content(evaluate(query, db))


class TestOrderPassCap:
    def test_above_the_cap_only_the_root_sort_is_enforced(self, monkeypatch):
        def frontier_must_not_run(*args, **kwargs):
            raise AssertionError("pareto_frontier ran above the cap")

        monkeypatch.setattr(orders_module, "pareto_frontier", frontier_must_not_run)
        n = 6
        query = sql_query(chain_sql(n), n)
        stats = Statistics.from_database(database(n))
        required = (("t1_k", False),)
        plan = order_aware_reorder(query, stats, required, max_relations=n - 1)
        assert isinstance(plan, Sort)
        assert order_satisfies(provided_order(plan), required)
        assert plan.child == query

    def test_at_the_cap_the_frontier_still_runs(self, monkeypatch):
        calls = []
        real = orders_module.pareto_frontier

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(orders_module, "pareto_frontier", counting)
        n = 4
        query = sql_query(chain_sql(n), n)
        stats = Statistics.from_database(database(n))
        order_aware_reorder(query, stats, (("t1_k", False),), max_relations=n)
        assert calls == [1]


class TestDpPath:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("shape", [chain_sql, star_sql])
    def test_optimum_equals_the_closure_minimum(self, shape, n):
        query = sql_query(shape(n), n)
        db = database(n, seed=n)
        stats = Statistics.from_database(db)
        closure = reorder_pipeline(query, max_plans=50_000)
        assert len(closure) < 50_000  # the closure is whole, not cut
        closure_min = min(_core_dp_cost(p, stats) for p in closure)
        chosen = optimize(query, stats).best
        assert _core_dp_cost(chosen, stats) == pytest.approx(closure_min)
        assert_equivalent(query, chosen, trials=40)

    def test_inner_core_never_enters_the_closure(self, monkeypatch):
        def closure_must_not_run(*args, **kwargs):
            raise AssertionError("reorder_pipeline ran on an inner core")

        monkeypatch.setattr(planner, "reorder_pipeline", closure_must_not_run)
        query = sql_query(chain_sql(5), 5)
        result = optimize(query, Statistics.from_database(database(5)))
        assert result.plans_considered <= 3

    def test_outer_join_keeps_the_closure(self, monkeypatch):
        calls = []
        real = planner.reorder_pipeline

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(planner, "reorder_pipeline", counting)
        text = (
            "select t1.k as k1, t3.k as k3 from "
            "((t1 join t2 on t1.b = t2.a) left outer join t3 on t2.b = t3.a)"
        )
        query = sql_query(text, 3)
        stats = Statistics.from_database(database(3))
        result = optimize(query, stats)
        assert calls == [1]
        # the closure's own count, as before the DP routing
        assert result.plans_considered == len(real(query, max_plans=5000))
        assert result.plans_considered == 8

    def test_plan_budget_is_charged_per_table_entry(self):
        query = sql_query(chain_sql(3), 3)
        stats = Statistics.from_database(database(3))
        core = peel_wrappers(query)[1]
        with pytest.raises(PlanBudgetExceeded):
            dp_join_order(core, stats, budget=Budget(max_plans=1))
        budget = Budget(max_plans=10)
        dp_join_order(core, stats, budget=budget)
        assert budget.plans == 3  # {t1,t2}, {t2,t3}, {t1,t2,t3}

    def test_feedback_moves_the_subset_cardinality(self):
        query = sql_query(chain_sql(3), 3)
        stats = Statistics.from_database(database(3))
        core = peel_wrappers(query)[1]
        pair = frozenset(("t1", "t2"))
        before = _Workspace(core, stats).cardinality(pair)
        join = next(
            node for node in core.walk()
            if isinstance(node, Join) and node.base_names == pair
        )
        assert join.kind is JoinKind.INNER
        store = FeedbackStore()
        store.observe(join, est=before, actual=before * 8, stats_version=stats.version)
        stats.feedback = store
        after = _Workspace(core, stats).cardinality(pair)
        assert after == pytest.approx(before * 8)
        # the t2-t3 atom was never observed, so its subset is unchanged
        stats.feedback = None
        untouched = _Workspace(core, stats).cardinality(frozenset(("t2", "t3")))
        stats.feedback = store
        assert _Workspace(core, stats).cardinality(
            frozenset(("t2", "t3"))
        ) == pytest.approx(untouched)
