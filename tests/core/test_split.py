"""Equivalence tests for conjunct deferral (split) on randomized data.

These encode the empirically-derived walking rules: every case was
first isolated by hand against brute-force evaluation (see DESIGN.md).
"""

import random

import pytest

from repro.core.split import SplitError, defer_conjunct, defer_conjuncts
from repro.expr import (
    BaseRel,
    Database,
    evaluate,
    full_outer,
    inner,
    left_outer,
    right_outer,
)
from repro.expr.nodes import Rename
from repro.expr.predicates import eq, make_conjunction
from repro.workloads.random_db import random_database

R1 = BaseRel("r1", ("r1_a0", "r1_a1"))
R2 = BaseRel("r2", ("r2_a0", "r2_a1"))
R3 = BaseRel("r3", ("r3_a0", "r3_a1"))
R4 = BaseRel("r4", ("r4_a0", "r4_a1"))
R5 = BaseRel("r5", ("r5_a0", "r5_a1"))

p12 = eq("r1_a0", "r2_a0")
p12b = eq("r1_a1", "r2_a1")
p13 = eq("r1_a1", "r3_a1")
p23 = eq("r2_a1", "r3_a0")
p34 = eq("r3_a1", "r4_a0")
p14 = eq("r1_a1", "r4_a0")
p52 = eq("r5_a1", "r2_a1")


def assert_equivalent(original, transformed, names, trials=120, seed=11):
    rng = random.Random(seed)
    for trial in range(trials):
        db = random_database(rng, names, null_probability=0.15)
        want = evaluate(original, db)
        got = evaluate(transformed, db)
        assert got.same_content(want), (
            f"mismatch on trial {trial}:\nwant:\n{want.to_text()}\n"
            f"got:\n{got.to_text()}"
        )


class TestBasicShapes:
    def test_split_at_root_loj(self):
        """Identity (1) via the general machinery."""
        q = left_outer(R1, R2, make_conjunction([p12, p12b]))
        res = defer_conjunct(q, (), p12b)
        assert res.groups == (frozenset({"r1"}),)
        assert_equivalent(q, res.expr, ("r1", "r2"))

    def test_split_at_root_foj(self):
        q = full_outer(R1, R2, make_conjunction([p12, p12b]))
        res = defer_conjunct(q, (), p12b)
        assert set(res.groups) == {frozenset({"r1"}), frozenset({"r2"})}
        assert_equivalent(q, res.expr, ("r1", "r2"))

    def test_split_at_root_inner(self):
        q = inner(R1, R2, make_conjunction([p12, p12b]))
        res = defer_conjunct(q, (), p12b)
        assert res.groups == ()
        assert_equivalent(q, res.expr, ("r1", "r2"))

    def test_split_complex_pred_identity3(self):
        """(r1 → r2) →^{p13∧p23} r3 = σ*_{p13}[r1r2](...)."""
        q = left_outer(left_outer(R1, R2, p12), R3, make_conjunction([p13, p23]))
        res = defer_conjunct(q, (), p13)
        assert res.groups == (frozenset({"r1", "r2"}),)
        assert_equivalent(q, res.expr, ("r1", "r2", "r3"))

    def test_split_only_conjunct_leaves_true_join(self):
        from repro.expr.predicates import TRUE

        q = left_outer(R1, R2, p12)
        res = defer_conjunct(q, (), p12)
        assert res.expr.child.predicate is TRUE
        assert_equivalent(q, res.expr, ("r1", "r2"))


class TestNonRootShapes:
    def test_inner_join_ancestor_extends_group(self):
        """pres extends through joins above: pres = {r1, r4}."""
        q = inner(
            left_outer(R1, inner(R2, R3, p23), make_conjunction([p12, p13])),
            R4,
            p14,
        )
        res = defer_conjunct(q, (0,), p13)
        assert res.groups == (frozenset({"r1", "r4"}),)
        assert_equivalent(q, res.expr, ("r1", "r2", "r3", "r4"))

    def test_renamed_attributes_still_extend_the_group(self):
        """The same shape with every table under a Rename, as SQL
        translation builds it: the ancestor's predicate names renamed
        attributes, which still belong to r1, so pres = {r1, r4}."""

        def renamed(rel):
            return Rename(rel, tuple((a, "x" + a) for a in rel.attrs))

        r1, r2, r3, r4 = (renamed(r) for r in (R1, R2, R3, R4))
        q = inner(
            left_outer(
                r1,
                inner(r2, r3, eq("xr2_a1", "xr3_a0")),
                make_conjunction([eq("xr1_a0", "xr2_a0"), eq("xr1_a1", "xr3_a1")]),
            ),
            r4,
            eq("xr1_a1", "xr4_a0"),
        )
        res = defer_conjunct(q, (0,), eq("xr1_a1", "xr3_a1"))
        assert res.groups == (frozenset({"r1", "r4"}),)
        assert_equivalent(q, res.expr, ("r1", "r2", "r3", "r4"))

    def test_loj_ancestor_null_side_drops_and_adds(self):
        """r5 →p52 (r1 →c (r2 ⋈ r3)): pres(h) dies, [r5] appears."""
        q = left_outer(
            R5,
            left_outer(R1, inner(R2, R3, p23), make_conjunction([p12, p13])),
            p52,
        )
        res = defer_conjunct(q, (1,), p13)
        assert res.groups == (frozenset({"r5"}),)
        assert_equivalent(q, res.expr, ("r1", "r2", "r3", "r5"))

    def test_foj_ancestor_adds_far_side(self):
        """(r1 →c (r2 ⋈ r3)) ↔p34 r4: compensation [r4, r1-kept?]."""
        q = full_outer(
            left_outer(R1, inner(R2, R3, p23), make_conjunction([p12, p13])),
            R4,
            p34,
        )
        res = defer_conjunct(q, (0,), p13)
        assert frozenset({"r4"}) in res.groups
        assert_equivalent(q, res.expr, ("r1", "r2", "r3", "r4"))

    def test_foj_below_in_null_hypernode_needs_only_pres(self):
        """r1 →^{p12∧p13} (r2 ↔p23 r3): [r1] alone."""
        q = left_outer(
            R1, full_outer(R2, R3, p23), make_conjunction([p12, p13])
        )
        res = defer_conjunct(q, (), p13)
        assert res.groups == (frozenset({"r1"}),)
        assert_equivalent(q, res.expr, ("r1", "r2", "r3"))

    def test_loj_ancestor_preserved_side_keeps_group(self):
        """(r1 →c (r2 ⋈ r3)) →p34 r4 with p34 on the null side of c's

        padding: group [r1] survives the preserving ancestor.
        """
        q = left_outer(
            left_outer(R1, inner(R2, R3, p23), make_conjunction([p12, p13])),
            R4,
            p34,
        )
        res = defer_conjunct(q, (0,), p13)
        assert res.groups == (frozenset({"r1"}),)
        assert_equivalent(q, res.expr, ("r1", "r2", "r3", "r4"))

    def test_loj_ancestor_predicate_within_group_extends(self):
        """(r1 →c (r2 ⋈ r3)) →p14 r4: q refs r1 ⊆ group → extend."""
        q = left_outer(
            left_outer(R1, inner(R2, R3, p23), make_conjunction([p12, p13])),
            R4,
            p14,
        )
        res = defer_conjunct(q, (0,), p13)
        assert res.groups == (frozenset({"r1", "r4"}),)
        assert_equivalent(q, res.expr, ("r1", "r2", "r3", "r4"))


class TestMultipleConjuncts:
    def test_q6_style_two_complex_predicates(self):
        """Q6: r1 ↔^{p12∧p14} (r2 →^{p23∧p24} (r3 → r4))."""
        p12_ = eq("r1_a0", "r2_a0")
        p14_ = eq("r1_a1", "r4_a1")
        p23_ = eq("r2_a1", "r3_a0")
        p24_ = eq("r2_a0", "r4_a0")
        p34_ = eq("r3_a1", "r4_a0")
        q = full_outer(
            R1,
            left_outer(R2, left_outer(R3, R4, p34_), make_conjunction([p23_, p24_])),
            make_conjunction([p12_, p14_]),
        )
        # break the root (independent) predicate first, then the inner one
        out = defer_conjuncts(q, [((), p14_), ((1,), p24_)])
        assert_equivalent(q, out, ("r1", "r2", "r3", "r4"), trials=150)

    def test_extension_subsumes_far_side(self):
        """FOJ ancestor whose predicate is covered by a group: the

        group extends and the far side must NOT be added separately
        (validated empirically -- [r2],[r1] mismatches 110/300).
        """
        p24p = eq("r2_a0", "r4_a1")
        p34_ = eq("r3_a1", "r4_a0")
        q = full_outer(
            R1,
            left_outer(R2, left_outer(R3, R4, p34_), make_conjunction([p23, p24p])),
            p12,
        )
        res = defer_conjunct(q, (1,), p24p)
        assert res.groups == (frozenset({"r1", "r2"}),)
        assert_equivalent(q, res.expr, ("r1", "r2", "r3", "r4"))

    def test_two_conjuncts_same_join(self):
        q = left_outer(R1, R2, make_conjunction([p12, p12b]))
        out = defer_conjuncts(q, [((), p12), ((), p12b)])
        assert_equivalent(q, out, ("r1", "r2"))


class TestErrors:
    def test_split_non_join_raises(self):
        with pytest.raises(SplitError):
            defer_conjunct(R1, (), p12)

    def test_split_missing_conjunct_raises(self):
        q = left_outer(R1, R2, p12)
        with pytest.raises(SplitError):
            defer_conjunct(q, (), p13)

    def test_split_below_groupby_raises(self):
        from repro.expr import GroupBy
        from repro.relalg.aggregates import count_star

        q = GroupBy(
            left_outer(R1, R2, make_conjunction([p12, p12b])),
            ("r1_a0",),
            (count_star("n"),),
            "g",
        )
        with pytest.raises(SplitError):
            defer_conjunct(q, (0,), p12b)
