"""Cross-query plan cache: keying, invalidation, session integration."""

import json

from repro.expr import BaseRel, Database, JoinKind, left_outer
from repro.expr.evaluate import evaluate
from repro.expr.nodes import Join
from repro.expr.predicates import cmp_const, eq
from repro.expr.rewrite import iter_nodes, replace_at
from repro.optimizer import OptimizationResult, TableStats
from repro.relalg import Relation
from repro.runtime import DegradationLevel, PlanCache, QuerySession, query_fingerprint

EMP = BaseRel("emp", ("eid", "dept"))
DEPT = BaseRel("dept", ("did", "dname"))
QUERY = left_outer(EMP, DEPT, eq("dept", "did"))


def emp_db() -> Database:
    db = Database()
    db.add(
        "emp",
        Relation.base(
            "emp", ["eid", "dept"], [(1, 10), (2, 10), (3, 20), (4, 99)]
        ),
    )
    db.add(
        "dept",
        Relation.base("dept", ["did", "dname"], [(10, "eng"), (20, "ops")]),
    )
    return db


class TestFingerprint:
    def test_structurally_equal_queries_share_a_fingerprint(self):
        other = left_outer(
            BaseRel("emp", ("eid", "dept")),
            BaseRel("dept", ("did", "dname")),
            eq("dept", "did"),
        )
        assert query_fingerprint(QUERY) == query_fingerprint(other)

    def test_different_constants_give_different_fingerprints(self):
        a = left_outer(EMP, DEPT, eq("dept", "did"))
        from repro.expr.nodes import Select

        sel1 = Select(a, cmp_const("eid", "=", 1))
        sel2 = Select(a, cmp_const("eid", "=", 2))
        assert query_fingerprint(sel1) != query_fingerprint(sel2)


class TestPlanCacheUnit:
    def _result(self, plan):
        return OptimizationResult(
            best=plan,
            best_cost=1.0,
            original_cost=2.0,
            plans_considered=3,
            ranked=[(1.0, plan)],
        )

    def test_lookup_counts_hits_and_misses(self):
        cache = PlanCache()
        assert cache.lookup(QUERY, 0) is None
        cache.store(QUERY, 0, self._result(QUERY))
        assert cache.lookup(QUERY, 0) is not None
        assert cache.counters() == {
            "hits": 1,
            "misses": 1,
            "entries": 1,
            "evictions": 0,
        }

    def test_stats_version_invalidates(self):
        cache = PlanCache()
        cache.store(QUERY, 0, self._result(QUERY))
        assert cache.lookup(QUERY, 1) is None

    def test_lru_bound(self):
        cache = PlanCache(max_entries=2)
        for version in range(3):
            cache.store(QUERY, version, self._result(QUERY))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup(QUERY, 0) is None  # the oldest fell out

    def test_evict_plan(self):
        cache = PlanCache()
        cache.store(QUERY, 0, self._result(QUERY))
        assert cache.evict_plan(QUERY) == 1
        assert len(cache) == 0

    def _queries(self, n):
        from repro.expr.nodes import Select

        return [Select(QUERY, cmp_const("eid", "=", i)) for i in range(n)]

    def test_evict_plan_drops_every_fingerprint(self):
        cache = PlanCache()
        # the same chosen plan cached under many fingerprints
        for q in self._queries(10):
            cache.store(q, 0, self._result(QUERY))
        assert cache.evict_plan(QUERY) == 10
        assert len(cache) == 0
        assert cache.evictions == 10

    def test_clear_drops_entries_and_keeps_counters(self):
        cache = PlanCache()
        for q in self._queries(5):
            assert cache.lookup(q, 0) is None
            cache.store(q, 0, self._result(q))
        cache.clear()
        assert len(cache) == 0
        assert cache.counters() == {
            "hits": 0,
            "misses": 5,
            "entries": 0,
            "evictions": 0,
        }


class TestSessionIntegration:
    def test_second_run_hits_the_cache_at_full_level(self):
        session = QuerySession(emp_db())
        first = session.run(QUERY)
        second = session.run(QUERY)
        assert first.plan_cache["hit"] is False
        assert second.plan_cache["hit"] is True
        assert second.degradation_level is DegradationLevel.FULL
        assert second.chosen == first.chosen
        assert second.relation.same_content(first.relation)
        assert session.plan_cache.hits == 1
        assert session.plan_cache.misses == 1

    def test_counters_surface_in_to_dict(self):
        session = QuerySession(emp_db())
        session.run(QUERY)
        summary = session.run(QUERY).to_dict()
        assert summary["plan_cache"]["hit"] is True
        assert summary["plan_cache"]["hits"] == 1
        assert summary["plan_cache"]["entries"] == 1

    def test_stats_refresh_invalidates_sessions_cache(self):
        session = QuerySession(emp_db())
        session.run(QUERY)
        session.stats.add("emp", TableStats(10_000, {"dept": 50}))
        result = session.run(QUERY)
        assert result.plan_cache["hit"] is False
        assert session.plan_cache.misses == 2

    def test_explain_plan_path_uses_the_cache_too(self):
        session = QuerySession(emp_db())
        session.plan(QUERY)
        session.plan(QUERY)
        assert session.plan_cache.hits == 1
        # and run() piggybacks on the entry plan() stored
        result = session.run(QUERY)
        assert result.plan_cache["hit"] is True

    def test_failed_verification_is_never_cached(self):
        wrong = None
        for path, node in iter_nodes(QUERY):
            if isinstance(node, Join) and node.kind is JoinKind.LEFT:
                wrong = replace_at(
                    QUERY,
                    path,
                    Join(JoinKind.INNER, node.left, node.right, node.predicate),
                )
                break
        assert wrong is not None

        def bad_optimize(query, stats, max_plans=5000, budget=None, **kwargs):
            return OptimizationResult(
                best=wrong,
                best_cost=1.0,
                original_cost=2.0,
                plans_considered=1,
                ranked=[(1.0, wrong)],
            )

        db = emp_db()
        session = QuerySession(db, verify=True, optimize_fn=bad_optimize)
        result = session.run(QUERY)
        assert result.verified is False
        assert len(session.plan_cache) == 0
        # the quarantine incident carries the cache counters
        record = json.loads(session.incidents.to_json_lines().splitlines()[-1])
        assert record["kind"] == "verification-mismatch"
        assert "plan_cache" in record["detail"]

    def test_cached_plan_still_produces_correct_rows(self):
        db = emp_db()
        session = QuerySession(db, verify=True)
        first = session.run(QUERY)
        second = session.run(QUERY)
        expected = evaluate(QUERY, db)
        assert first.relation.same_content(expected)
        assert second.relation.same_content(expected)
        assert second.plan_cache["hit"] is True


class TestCrossSessionQuarantine:
    """A plan quarantined by one session must not be re-served by another
    session sharing the same cache (the service's workers do exactly this)."""

    def _wrong_rewrite(self):
        for path, node in iter_nodes(QUERY):
            if isinstance(node, Join) and node.kind is JoinKind.LEFT:
                return replace_at(
                    QUERY,
                    path,
                    Join(JoinKind.INNER, node.left, node.right, node.predicate),
                )
        raise AssertionError("no outer join in the fixture query")

    def test_quarantined_plan_is_not_served_to_a_sibling_session(self):
        wrong = self._wrong_rewrite()

        def bad_optimize(query, stats, max_plans=5000, budget=None, **kwargs):
            return OptimizationResult(
                best=wrong,
                best_cost=1.0,
                original_cost=2.0,
                plans_considered=1,
                ranked=[(1.0, wrong)],
            )

        db = emp_db()
        shared_cache = PlanCache()
        quarantined: set = set()
        first = QuerySession(
            db,
            verify=True,
            optimize_fn=bad_optimize,
            plan_cache=shared_cache,
            quarantined=quarantined,
        )
        # the poisoned entry is cached before verification catches it
        shared_cache.store(
            QUERY,
            first.stats.version,
            OptimizationResult(
                best=wrong,
                best_cost=1.0,
                original_cost=2.0,
                plans_considered=1,
                ranked=[(1.0, wrong)],
            ),
        )
        result = first.run(QUERY)
        assert result.verified is False
        assert wrong in quarantined
        assert len(shared_cache) == 0  # evicted, not just bypassed

        # a sibling session sharing cache + quarantine set plans afresh
        # and never picks the quarantined plan, even if re-offered
        second = QuerySession(
            db,
            verify=True,
            optimize_fn=bad_optimize,
            plan_cache=shared_cache,
            quarantined=quarantined,
        )
        sibling = second.run(QUERY)
        assert sibling.chosen != wrong
        assert sibling.relation.same_content(evaluate(QUERY, db))
        assert len(shared_cache) == 0  # a quarantined best is never re-cached


class TestConcurrentAccess:
    def test_parallel_store_lookup_evict_is_safe(self):
        import threading

        from repro.expr.nodes import Select

        cache = PlanCache(max_entries=8)
        queries = [
            Select(QUERY, cmp_const("eid", "=", i)) for i in range(16)
        ]

        def result_for(q):
            return OptimizationResult(
                best=q,
                best_cost=1.0,
                original_cost=2.0,
                plans_considered=1,
                ranked=[(1.0, q)],
            )

        errors = []

        def worker(offset: int) -> None:
            try:
                for round_ in range(50):
                    q = queries[(offset + round_) % len(queries)]
                    cache.store(q, 0, result_for(q))
                    cache.lookup(q, 0)
                    if round_ % 7 == 0:
                        cache.evict_plan(q)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 8
        counters = cache.counters()
        assert counters["hits"] + counters["misses"] == 8 * 50
