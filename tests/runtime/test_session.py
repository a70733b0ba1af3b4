"""The QuerySession ladder: degradation, verification, containment."""

import json

import pytest

from repro.errors import OptimizerInternalError
from repro.expr import Database, evaluate
from repro.expr.nodes import BaseRel, Join, JoinKind, left_outer
from repro.expr.predicates import eq
from repro.optimizer import OptimizationResult, Statistics
from repro.relalg import Relation
from repro.runtime import Budget, DegradationLevel, QuerySession
from repro.testing import assert_equivalent
from repro.workloads.topologies import chain_query


def chain_database(n: int, rows: int = 4) -> Database:
    """Small relations matching chain_query's r<i>(r<i>_a0, r<i>_a1)."""
    db = Database()
    for i in range(1, n + 1):
        name = f"r{i}"
        db.add(
            name,
            Relation.base(
                name,
                [f"{name}_a0", f"{name}_a1"],
                [(j % 3, (j + i) % 3) for j in range(rows)],
            ),
        )
    return db


@pytest.fixture()
def emp_db() -> Database:
    return Database(
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


EMP_DEPT_LOJ = left_outer(
    BaseRel("emp", ("eid", "dept", "salary")),
    BaseRel("dept", ("did", "dname")),
    eq("dept", "did"),
)


class TestHappyPath:
    def test_unbudgeted_run_uses_full_optimization(self, emp_db):
        session = QuerySession(emp_db)
        result = session.run(EMP_DEPT_LOJ)
        assert result.degradation_level is DegradationLevel.FULL
        assert result.degradation_reason is None
        assert result.plans_considered >= 2
        assert result.relation.same_content(evaluate(EMP_DEPT_LOJ, emp_db))

    @pytest.mark.parametrize("executor", ["reference", "hash", "vector"])
    def test_both_executors_agree(self, emp_db, executor):
        session = QuerySession(emp_db, executor=executor)
        result = session.run(EMP_DEPT_LOJ)
        assert result.relation.same_content(evaluate(EMP_DEPT_LOJ, emp_db))

    def test_run_sql_views_and_selects(self, emp_db):
        session = QuerySession(emp_db)
        outcomes = session.run_sql(
            """
            create view busy as
              select dept as d, n = count(*) from emp group by dept;
            select dname, n from busy left outer join dept on busy.d = dept.did;
            """
        )
        assert [o.kind for o in outcomes] == ["view", "select"]
        assert len(outcomes[1].result.relation) == 3


class TestFallbackChain:
    """The acceptance fixture: a tiny plan budget must degrade to the
    greedy/DP baseline and still return bag-equivalent results."""

    def test_tiny_plan_budget_degrades_to_heuristic(self):
        query = chain_query(4)  # enumeration yields dozens of plans
        db = chain_database(4)
        session = QuerySession(db, budget=Budget(max_plans=1))
        result = session.run(query)
        assert result.degradation_level is DegradationLevel.GREEDY
        assert "PlanBudgetExceeded" in str(
            session.incidents.records[0].detail["error"]
        )
        assert result.degradation_reason is not None
        # the degraded answer is still the right answer ...
        assert result.relation.same_content(evaluate(query, db))
        # ... and the chosen heuristic plan is bag-equivalent to the
        # original on randomized databases (repro.testing checker)
        assert_equivalent(query, result.chosen, trials=40)

    def test_tiny_deadline_degrades_to_as_written(self):
        query = chain_query(4, complex_every=2)
        db = chain_database(4)
        session = QuerySession(db, budget=Budget(deadline_ms=0.0))
        result = session.run(query)
        assert result.degradation_level is DegradationLevel.AS_WRITTEN
        assert result.chosen == query
        assert "deadline" in result.degradation_reason
        assert result.relation.same_content(evaluate(query, db))

    def test_heuristic_handles_outer_joins(self, emp_db):
        session = QuerySession(emp_db, budget=Budget(max_plans=1))
        result = session.run(EMP_DEPT_LOJ)
        assert result.degradation_level is DegradationLevel.GREEDY
        assert result.relation.same_content(evaluate(EMP_DEPT_LOJ, emp_db))
        assert_equivalent(EMP_DEPT_LOJ, result.chosen, trials=40)

    def test_budgets_do_not_leak_between_queries(self):
        query = chain_query(3)
        db = chain_database(3)
        session = QuerySession(db, budget=Budget(max_plans=200))
        first = session.run(query)
        second = session.run(query)
        # a shared budget would exhaust on the second run; a fresh
        # per-query budget keeps both at full optimization
        assert first.degradation_level is DegradationLevel.FULL
        assert second.degradation_level is DegradationLevel.FULL

    def test_every_rung_reports_machine_readable_summary(self):
        query = chain_query(3)
        db = chain_database(3)
        session = QuerySession(db, budget=Budget(max_plans=1))
        summary = session.run(query).to_dict()
        assert summary["degradation_level"] == 3
        assert summary["degradation_stage"] == "greedy"
        assert summary["budget"]["max_plans"] == 1


def _wrong_plan_for(query):
    """An INNER-for-LEFT 'rewrite' -- the classic subtle outer-join bug."""
    from repro.expr.rewrite import iter_nodes, replace_at

    for path, node in iter_nodes(query):
        if isinstance(node, Join) and node.kind is JoinKind.LEFT:
            return replace_at(
                query,
                path,
                Join(JoinKind.INNER, node.left, node.right, node.predicate),
            )
    raise AssertionError("query has no left outer join to corrupt")


def _planner_returning(plan):
    def bad_optimize(query, stats, max_plans=5000, budget=None, **kwargs):
        return OptimizationResult(
            best=plan,
            best_cost=1.0,
            original_cost=2.0,
            plans_considered=1,
            ranked=[(1.0, plan)],
        )

    return bad_optimize


class TestVerificationSafetyNet:
    """Injected wrong rewrite: verification must quarantine the plan
    and fall back to the original -- contained, not silent."""

    def test_mismatch_is_quarantined_and_contained(self, emp_db):
        wrong = _wrong_plan_for(EMP_DEPT_LOJ)
        # sanity: the wrong plan really does return different rows
        assert not evaluate(wrong, emp_db).same_content(
            evaluate(EMP_DEPT_LOJ, emp_db)
        )
        session = QuerySession(
            emp_db, verify=True, optimize_fn=_planner_returning(wrong)
        )
        result = session.run(EMP_DEPT_LOJ)
        # the user still gets the *correct* rows
        assert result.relation.same_content(evaluate(EMP_DEPT_LOJ, emp_db))
        assert result.verified is False
        assert result.degradation_level is DegradationLevel.AS_WRITTEN
        assert "quarantined" in result.degradation_reason
        # the plan is quarantined and the incident is structured
        assert wrong in session.quarantined
        assert result.incident is not None
        assert result.incident.kind == "verification-mismatch"
        record = json.loads(session.incidents.to_json_lines().splitlines()[0])
        assert record["kind"] == "verification-mismatch"
        assert record["detail"]["reference_rows"] != record["detail"]["plan_rows"]

    def test_second_run_skips_the_quarantined_plan(self, emp_db):
        wrong = _wrong_plan_for(EMP_DEPT_LOJ)
        session = QuerySession(
            emp_db, verify=True, optimize_fn=_planner_returning(wrong)
        )
        session.run(EMP_DEPT_LOJ)
        result = session.run(EMP_DEPT_LOJ)
        # the poisoned planner only offers the quarantined plan, so the
        # ladder moves to the heuristic -- which verifies clean
        assert result.degradation_level is DegradationLevel.GREEDY
        assert result.verified is True
        assert result.relation.same_content(evaluate(EMP_DEPT_LOJ, emp_db))

    def test_correct_plans_verify_clean(self, emp_db):
        session = QuerySession(emp_db, verify=True)
        result = session.run(EMP_DEPT_LOJ)
        assert result.verified is True
        assert result.incident is None
        assert len(session.incidents) == 0
        assert result.degradation_level is DegradationLevel.FULL

    def test_pick_plan_raises_when_everything_is_quarantined(self, emp_db):
        wrong = _wrong_plan_for(EMP_DEPT_LOJ)
        session = QuerySession(emp_db)
        session.quarantined.add(wrong)
        with pytest.raises(OptimizerInternalError):
            session._pick_plan(
                OptimizationResult(
                    best=wrong,
                    best_cost=1.0,
                    original_cost=2.0,
                    plans_considered=1,
                    ranked=[(1.0, wrong)],
                )
            )


class TestPlanFacade:
    def test_plan_reports_stage_without_executing(self, emp_db):
        session = QuerySession(emp_db, budget=Budget(max_plans=1))
        optimized, level, reason = session.plan(EMP_DEPT_LOJ)
        assert optimized is not None
        assert level is DegradationLevel.GREEDY
        assert "plans budget" in reason


class TestSeededVerification:
    """Differential verification samples rows with a seeded RNG: the
    same seed must draw the same sample, so quarantine incidents are
    reproducible run to run."""

    def _big_db(self) -> Database:
        # emp is larger than verify_sample_rows (50), forcing sampling;
        # a third of the rows have no matching dept, so any sample
        # exposes the INNER-for-LEFT corruption
        rows = [(i, 10 if i % 3 else 99, i * 10) for i in range(1, 121)]
        return Database(
            {
                "emp": Relation.base("emp", ["eid", "dept", "salary"], rows),
                "dept": Relation.base("dept", ["did", "dname"], [(10, "eng")]),
            }
        )

    def test_sampler_is_deterministic_per_seed(self):
        session = QuerySession(self._big_db(), verify=True, verify_seed=7)
        first = session._sample_database()
        second = session._sample_database()
        assert first["emp"].same_content(second["emp"])
        assert len(first["emp"]) == session.verify_sample_rows
        # small tables are taken whole
        assert len(first["dept"]) == 1

    def test_different_seeds_draw_different_samples(self):
        db = self._big_db()
        a = QuerySession(db, verify=True, verify_seed=0)._sample_database()
        b = QuerySession(db, verify=True, verify_seed=1)._sample_database()
        assert not a["emp"].same_content(b["emp"])

    def test_same_seed_reproduces_identical_incidents(self):
        wrong = _wrong_plan_for(EMP_DEPT_LOJ)

        def one_run():
            session = QuerySession(
                self._big_db(),
                verify=True,
                verify_seed=42,
                optimize_fn=_planner_returning(wrong),
            )
            result = session.run(EMP_DEPT_LOJ)
            assert result.verified is False
            return session.incidents.to_json_lines()

        assert one_run() == one_run()

    def test_incident_records_the_seed(self):
        wrong = _wrong_plan_for(EMP_DEPT_LOJ)
        session = QuerySession(
            self._big_db(),
            verify=True,
            verify_seed=42,
            optimize_fn=_planner_returning(wrong),
        )
        session.run(EMP_DEPT_LOJ)
        record = json.loads(session.incidents.to_json_lines().splitlines()[0])
        assert record["detail"]["verify_seed"] == 42


class TestEnumerationTiers:
    """The tier policy: which rungs run, forced tiers, and the metric."""

    def test_unknown_enum_tier_rejected(self, emp_db):
        with pytest.raises(ValueError, match="enum_tier"):
            QuerySession(emp_db, enum_tier="exhaustive")

    def test_greedy_rung_keeps_its_place_on_the_ladder(self):
        assert DegradationLevel(3) is DegradationLevel.GREEDY
        assert DegradationLevel(3).name == "GREEDY"
        assert not hasattr(DegradationLevel, "HEURISTIC")  # alias retired
        assert int(DegradationLevel.AS_WRITTEN) == 4

    def test_forced_goo_tier_answers_at_the_goo_rung(self):
        query = chain_query(4)
        db = chain_database(4)
        session = QuerySession(db, enum_tier="goo")
        result = session.run(query)
        assert result.degradation_level is DegradationLevel.GOO
        assert result.relation.same_content(evaluate(query, db))

    def test_forced_partitioned_tier_answers_at_its_rung(self):
        query = chain_query(4)
        db = chain_database(4)
        session = QuerySession(db, enum_tier="partitioned")
        result = session.run(query)
        assert result.degradation_level is DegradationLevel.PARTITIONED_DP
        assert result.relation.same_content(evaluate(query, db))

    def test_auto_policy_routes_large_queries_to_partitioned(self):
        from repro.runtime.budget import TierThresholds

        query = chain_query(5)
        db = chain_database(5)
        tiers = TierThresholds(full_max_relations=3, partitioned_max_relations=8)
        session = QuerySession(db, budget=Budget(tiers=tiers))
        result = session.run(query)
        assert result.degradation_level is DegradationLevel.PARTITIONED_DP
        assert result.relation.same_content(evaluate(query, db))

    def test_auto_policy_routes_huge_queries_to_goo(self):
        from repro.runtime.budget import TierThresholds

        query = chain_query(5)
        db = chain_database(5)
        tiers = TierThresholds(full_max_relations=2, partitioned_max_relations=3)
        session = QuerySession(db, budget=Budget(tiers=tiers))
        result = session.run(query)
        assert result.degradation_level is DegradationLevel.GOO

    def test_small_queries_still_use_full_optimization(self, emp_db):
        session = QuerySession(emp_db)
        result = session.run(EMP_DEPT_LOJ)
        assert result.degradation_level is DegradationLevel.FULL

    def test_tier_metric_counts_the_answering_rung(self):
        from repro.runtime.metrics import MetricsRegistry

        registry = MetricsRegistry()
        query = chain_query(4)
        session = QuerySession(
            chain_database(4), enum_tier="goo", metrics=registry
        )
        session.run(query)
        family = registry.counter("repro_enum_tier_total")
        assert family.value_for(tier="goo") == 1.0
        assert family.value_for(tier="full") == 0.0

    def test_forced_tier_still_degrades_to_greedy_on_outer_join(self):
        # the GOO workspace declines outer-join cores; the ladder must
        # still answer at the greedy rung below
        session = QuerySession(
            Database(
                {
                    "emp": Relation.base(
                        "emp", ["eid", "dept", "salary"], [(1, 10, 100)]
                    ),
                    "dept": Relation.base("dept", ["did", "dname"], [(10, "x")]),
                }
            ),
            enum_tier="goo",
        )
        result = session.run(EMP_DEPT_LOJ)
        assert result.degradation_level is DegradationLevel.GREEDY
        assert "goo stage abandoned" in result.degradation_reason
