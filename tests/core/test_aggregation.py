"""Tests for aggregation push-up (Example 3.1 machinery)."""

import random

import pytest

from repro.core.aggregation import (
    PullUpError,
    pull_up_aggregations,
    pull_up_once,
    raise_genselect,
    spine_virtuals,
)
from repro.expr import (
    BaseRel,
    GenSelect,
    GroupBy,
    Join,
    JoinKind,
    evaluate,
    full_outer,
    inner,
    left_outer,
    preserved_for,
)
from repro.expr.nodes import AdjustPadding
from repro.expr.predicates import Arith, Col, Comparison, Const, eq, make_conjunction
from repro.relalg.aggregates import count_star, min_, sum_
from repro.workloads.random_db import random_database

R1 = BaseRel("r1", ("r1_a0", "r1_a1"))
R2 = BaseRel("r2", ("r2_a0", "r2_a1"))
R3 = BaseRel("r3", ("r3_a0", "r3_a1"))


def assert_equiv(original, transformed, names, trials=120, seed=41):
    rng = random.Random(seed)
    for trial in range(trials):
        db = random_database(rng, names, null_probability=0.1, max_rows=4)
        want = evaluate(original, db)
        got = evaluate(transformed, db)
        assert got.same_content(want), (
            f"trial {trial}\nwant:\n{want.to_text()}\ngot:\n{got.to_text()}"
        )


def gp_of(rel, name="g"):
    """count(*) + sum + min grouped on the first attribute."""
    prefix = rel.name
    return GroupBy(
        rel,
        (f"{prefix}_a0",),
        (
            count_star("cnt"),
            sum_(f"{prefix}_a1", "total"),
            min_(f"{prefix}_a1", "low"),
        ),
        name,
    )


def _witnesses(expr):
    """COUNT-bug witness names anywhere in ``expr`` (``AdjustPadding``
    consumes its witness, so the root does not expose it)."""
    return {
        a for node in expr.walk() for a in node.all_attrs if a.startswith("__witness")
    }


class TestSpine:
    def test_base_and_joins(self):
        assert spine_virtuals(R1) == {"#r1"}
        assert spine_virtuals(inner(R1, R2, eq("r1_a0", "r2_a0"))) == {
            "#r1",
            "#r2",
        }
        assert spine_virtuals(left_outer(R1, R2, eq("r1_a0", "r2_a0"))) == {"#r1"}
        assert spine_virtuals(full_outer(R1, R2, eq("r1_a0", "r2_a0"))) == frozenset()

    def test_groupby(self):
        g = GroupBy(R1, ("#r1",), (count_star("n"),), "g")
        assert "#g" in spine_virtuals(g)
        assert "#r1" in spine_virtuals(g)


class TestPullUpOnce:
    def test_gp_on_preserved_side_of_loj(self):
        q = left_outer(gp_of(R2), R1, eq("r2_a0", "r1_a0"))
        out = pull_up_once(q)
        assert isinstance(out, GroupBy)
        assert_equiv(q, out, ("r1", "r2"))

    def test_gp_on_null_side_of_loj_count_bug(self):
        """The COUNT-bug case: unmatched preserved rows must see NULL,

        not 0, in the count column.
        """
        q = left_outer(R1, gp_of(R2), eq("r1_a0", "r2_a0"))
        out = pull_up_once(q)
        assert isinstance(out, AdjustPadding)
        assert_equiv(q, out, ("r1", "r2"))

    def test_gp_under_inner_join(self):
        q = inner(gp_of(R2), R1, eq("r2_a0", "r1_a0"))
        out = pull_up_once(q)
        assert_equiv(q, out, ("r1", "r2"))

    def test_gp_under_full_outer_join(self):
        q = full_outer(R1, gp_of(R2), eq("r1_a0", "r2_a0"))
        out = pull_up_once(q)
        assert_equiv(q, out, ("r1", "r2"))

    def test_aggregate_referencing_atom_deferred(self):
        """Example 3.1's shape: the ON references the count column."""
        on = make_conjunction(
            [
                eq("r1_a0", "r2_a0"),
                Comparison(Col("r1_a1"), "<", Col("cnt")),
            ]
        )
        q = left_outer(R1, gp_of(R2), on)
        out = pull_up_once(q)
        assert isinstance(out, GenSelect)
        assert out.predicate.attrs & {"cnt"}
        assert_equiv(q, out, ("r1", "r2"), trials=160)

    def test_agg_atom_on_preserved_gp(self):
        on = make_conjunction(
            [
                eq("r2_a0", "r1_a0"),
                Comparison(Col("cnt"), ">", Col("r1_a1")),
            ]
        )
        q = left_outer(gp_of(R2), R1, on)
        out = pull_up_once(q)
        assert isinstance(out, GenSelect)
        assert_equiv(q, out, ("r1", "r2"), trials=160)

    def test_non_key_atom_refused(self):
        # predicate references r2_a1 which is aggregated away -- it is
        # neither a key nor an aggregate output at the GP level, so the
        # GP's own scope cannot even express it; use a key-looking attr
        # that is not in group_by: group on a0, predicate on the GP's
        # low output is an aggregate (fine); there is no expressible
        # non-key non-agg atom, so assert the guard via group counts:
        g = GroupBy(R2, ("r2_a0", "r2_a1"), (count_star("cnt"),), "g")
        on = eq("r2_a1", "r1_a0")  # references a key -> allowed
        q = left_outer(g, R1, on)
        out = pull_up_once(q)
        assert_equiv(q, out, ("r1", "r2"))

    def test_no_groupby_operand_raises(self):
        with pytest.raises(PullUpError):
            pull_up_once(inner(R1, R2, eq("r1_a0", "r2_a0")))


class TestRaiseGenSelect:
    def test_raise_through_join(self):
        inner_q = left_outer(R2, R3, make_conjunction([eq("r2_a1", "r3_a0"), eq("r2_a0", "r3_a1")]))
        from repro.core.split import defer_conjunct

        res = defer_conjunct(inner_q, (), eq("r2_a0", "r3_a1"))
        gs = res.expr
        q_with = inner(gs, R1, eq("r2_a0", "r1_a0"))
        q_orig = inner(inner_q, R1, eq("r2_a0", "r1_a0"))
        out = raise_genselect(q_with)
        assert isinstance(out, GenSelect)
        assert_equiv(q_orig, out, ("r1", "r2", "r3"), trials=150)


class TestHoistWrapper:
    def test_rename_hoisted_through_join(self):
        from repro.core.aggregation import hoist_wrapper
        from repro.expr import Rename

        renamed = Rename(R2, (("r2_a0", "k"), ("r2_a1", "v")))
        q = inner(renamed, R1, eq("k", "r1_a0"))
        out = hoist_wrapper(q)
        assert isinstance(out, Rename)
        assert_equiv(q, out, ("r1", "r2"), trials=60)

    def test_project_hoisted_through_join(self):
        from repro.core.aggregation import hoist_wrapper
        from repro.expr import Project

        projected = Project(R2, ("r2_a0",))
        q = left_outer(R1, projected, eq("r1_a0", "r2_a0"))
        out = hoist_wrapper(q)
        assert isinstance(out, Project)
        assert_equiv(q, out, ("r1", "r2"), trials=60)

    def test_sql_view_aggregation_pulled_up(self):
        """A view's GroupBy behind Rename/Project wrappers is exposed

        and pulled above the join by the full pipeline.
        """
        from repro.sql import SqlCatalog, parse_statements, translate

        catalog = SqlCatalog(
            {"t": ("k", "v"), "u": ("k2", "w")}
        )
        stmts = parse_statements(
            """
            create view agg as select k, n = count(*) from t group by k;
            select u.w, agg.n from u left outer join agg on u.k2 = agg.k;
            """
        )
        catalog.add_view(stmts[0])
        query = translate(stmts[1], catalog).expr
        out = pull_up_aggregations(query)
        # the GroupBy is no longer a (wrapped) operand of any join
        for node in out.walk():
            if isinstance(node, Join):
                for op in node.children():
                    assert not any(isinstance(n, GroupBy) for n in op.walk())
        from repro.expr import Database
        from repro.relalg import Relation

        rng = random.Random(77)
        for _ in range(40):
            db = Database(
                {
                    "t": Relation.base(
                        "t",
                        ["k", "v"],
                        [
                            (rng.choice((1, 2)), rng.choice((1, 2)))
                            for _ in range(rng.randint(0, 4))
                        ],
                    ),
                    "u": Relation.base(
                        "u",
                        ["k2", "w"],
                        [
                            (rng.choice((1, 2)), rng.choice((1, 2)))
                            for _ in range(rng.randint(0, 3))
                        ],
                    ),
                }
            )
            assert evaluate(out, db).same_content(evaluate(query, db))


class TestFullPipelinePullUp:
    def test_pull_to_root_two_joins(self):
        """GP below two joins ends at the root after iteration."""
        g = gp_of(R2)
        q = inner(
            left_outer(R1, g, eq("r1_a0", "r2_a0")),
            R3,
            eq("r1_a1", "r3_a0"),
        )
        out = pull_up_aggregations(q)
        # no GroupBy below a Join anymore
        for node in out.walk():
            if isinstance(node, Join):
                assert not isinstance(node.left, GroupBy)
                assert not isinstance(node.right, GroupBy)
        assert_equiv(q, out, ("r1", "r2", "r3"), trials=100)

    def test_pull_up_names_witnesses_from_the_tree(self):
        """One query normalizes to one tree, however often it runs."""
        q = inner(
            left_outer(R1, gp_of(R2), eq("r1_a0", "r2_a0")),
            R3,
            eq("r1_a1", "r3_a0"),
        )
        first = pull_up_aggregations(q)
        assert pull_up_aggregations(q) == first
        assert _witnesses(first) == {"__witness0"}

    def test_example_11_supplier_query(self):
        """Example 1.1: the analyst query pulls its aggregation up."""
        from repro.workloads.supplier import supplier_database, supplier_query

        q = supplier_query()
        out = pull_up_aggregations(q)
        assert out != q
        rng = random.Random(3)
        for _ in range(5):
            db = supplier_database(
                rng, n_suppliers=6, n_parts=4, detail_rows=30
            )
            want = evaluate(q, db)
            got = evaluate(out, db)
            assert got.same_content(want)
