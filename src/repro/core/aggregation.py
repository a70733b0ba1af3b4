"""Aggregation push-up with deferred predicates (Example 3.1, Section 4a).

The reordering algorithms need binary operations adjacent to each
other, so generalized projections (GROUP BYs) are pulled above the
joins (GUPT95 / BHAR95b style).  Predicate conjuncts that reference a
column *generated by an aggregation* cannot travel with the join; they
are deferred to a generalized selection above the pushed-up GP --
exactly the paper's Example 3.1 move.

One pull-up step over a join ``J`` with a GroupBy operand ``G``
rewrites

    J(G(C), O)   ~~>   σ*_{agg-atoms}[pres sides of J](
                           adjust( GP'( J'(C, O) ) ) )

where:

* atoms of ``J``'s predicate referencing ``G``'s aggregate outputs are
  deferred to the σ*; the remaining atoms must reference only
  ``G``'s group keys on that side (otherwise the step is refused);
* ``GP'`` groups by the original keys plus *all* attributes (real and
  virtual) of the other side ``O``, so each original group survives
  per ``O``-row;
* ``count(*)`` aggregates are rewritten to count a never-null *spine*
  row id of ``C`` so pad rows are not counted;
* ``adjust`` repairs the COUNT bug: groups with no ``C`` provenance
  (the null-supplied pads of an outer ``J``) get NULL aggregate
  outputs instead of count 0, via a hidden witness count.

``pull_up_aggregations`` iterates this step, raising inner
generalized selections above enclosing joins with the same
preserved-set walking rules used by :mod:`repro.core.split`, until no
GroupBy sits under a join.
"""

from __future__ import annotations

from repro.errors import OptimizerInternalError

from dataclasses import replace as dc_replace

from repro.expr.nodes import (
    AdjustPadding,
    BaseRel,
    Expr,
    GenSelect,
    GroupBy,
    Join,
    JoinKind,
    Preserved,
    Project,
    Rename,
    preserved_for,
)
from repro.expr.predicates import (
    Predicate,
    conjuncts_of,
    make_conjunction,
    substitute,
)
from repro.expr.rewrite import iter_nodes, replace_at
from repro.relalg.aggregates import AggregateFunction, AggregateSpec
from repro.relalg.relation import virtual_attr


class PullUpError(OptimizerInternalError):
    """Raised when a GroupBy cannot be pulled above its parent join."""


def _fresh_witness(join: Join) -> str:
    """The first ``__witness<k>`` no node under ``join`` carries.

    Named from the tree, not from a counter, so one query normalizes
    to the same tree on every request and in every process.  A witness
    is live only from its GroupBy to the AdjustPadding that consumes
    it, so names under ``join`` are the only ones it can meet.
    """
    taken: set[str] = set()
    for _, node in iter_nodes(join):
        taken.update(node.all_attrs)
    k = 0
    while f"__witness{k}" in taken:
        k += 1
    return f"__witness{k}"


def spine_virtuals(expr: Expr) -> frozenset[str]:
    """Virtual attributes guaranteed non-NULL in every row of ``expr``.

    A base relation's row id is always present; a join keeps the spine
    of each side it preserves (inner: both, left outer: left, full
    outer: neither).  GroupBy keeps spine group keys; its own id is
    always present.
    """
    if isinstance(expr, BaseRel):
        return frozenset((virtual_attr(expr.name),))
    if isinstance(expr, Join):
        left = spine_virtuals(expr.left)
        right = spine_virtuals(expr.right)
        if expr.kind is JoinKind.INNER:
            return left | right
        if expr.kind is JoinKind.LEFT:
            return left
        if expr.kind is JoinKind.RIGHT:
            return right
        return frozenset()
    if isinstance(expr, GroupBy):
        inherited = spine_virtuals(expr.child) & set(expr.group_by)
        return inherited | frozenset((virtual_attr(expr.name),))
    if isinstance(expr, GenSelect):
        # preserved padding may null any virtual except... be conservative
        if expr.preserved:
            return frozenset()
        return spine_virtuals(expr.child)
    children = expr.children()
    if children:
        return spine_virtuals(children[0])
    return frozenset()


def pull_up_once(join: Join) -> Expr:
    """Pull a GroupBy operand of ``join`` one level up (see module doc).

    Returns the equivalent replacement subtree.  Raises
    :class:`PullUpError` when the shapes or predicates do not admit an
    exact push-up.
    """
    if isinstance(join.left, GroupBy):
        side = 0
        group = join.left
        other = join.right
    elif isinstance(join.right, GroupBy):
        side = 1
        group = join.right
        other = join.left
    else:
        raise PullUpError("neither operand is a GroupBy")

    child = group.child
    agg_outputs = {spec.output for spec in group.aggregates}
    group_keys = set(group.group_by)

    agg_atoms: list[Predicate] = []
    key_atoms: list[Predicate] = []
    gp_attrs = set(group.all_attrs)
    for atom in conjuncts_of(join.predicate):
        refs_gp = atom.attrs & gp_attrs
        if refs_gp & agg_outputs:
            agg_atoms.append(atom)
        elif refs_gp <= group_keys:
            key_atoms.append(atom)
        else:
            raise PullUpError(
                f"atom {atom} references non-key GP attributes; push-up "
                "would change group counts"
            )

    # count(*) must not count pad rows: rewrite to count a spine id
    spine = spine_virtuals(child)
    new_aggs: list[AggregateSpec] = []
    for spec in group.aggregates:
        if spec.arg is None:
            if not spine:
                raise PullUpError(
                    "count(*) needs a never-null spine row id in the "
                    "aggregation input; none exists"
                )
            new_aggs.append(
                AggregateSpec(spec.output, AggregateFunction.COUNT, min(spine))
            )
        else:
            new_aggs.append(spec)

    outer_padded = (
        join.kind.preserves_left if side == 1 else join.kind.preserves_right
    )
    witness: str | None = None
    if outer_padded:
        # the other side is preserved: its pads form provenance-free
        # groups needing the COUNT-bug adjustment
        if not spine:
            raise PullUpError(
                "push-up over a preserving join needs a spine row id in "
                "the aggregation input"
            )
        witness = _fresh_witness(join)
        new_aggs.append(
            AggregateSpec(witness, AggregateFunction.COUNT, min(spine))
        )

    new_join = Join(
        join.kind,
        child if side == 0 else other,
        other if side == 0 else child,
        make_conjunction(key_atoms),
    )
    new_group = GroupBy(
        new_join,
        tuple(group.group_by) + tuple(other.all_attrs),
        tuple(new_aggs),
        group.name,
    )
    result: Expr = new_group
    if witness is not None:
        result = AdjustPadding(
            result,
            witness,
            tuple(spec.output for spec in group.aggregates),
        )
    if agg_atoms:
        groups: list[frozenset[str]] = []
        if join.kind.preserves_left:
            groups.append(join.left.base_names)
        if join.kind.preserves_right:
            groups.append(join.right.base_names)
        preserved = tuple(
            preserved_for(result, g, label="".join(sorted(g))) for g in groups
        )
        result = GenSelect(result, make_conjunction(agg_atoms), preserved)
    return result


def raise_genselect(join: Join) -> GenSelect:
    """Hoist a GenSelect operand above ``join`` (one walking step).

    The preserved groups are updated with the same rules as
    :mod:`repro.core.split`: a group whose relations cover every
    join-predicate attribute on its side extends across the join; an
    uncovered group survives only if the join preserves its side; the
    join's own preserved other side becomes a new group.
    """
    if isinstance(join.left, GenSelect):
        side = 0
        gs = join.left
        other = join.right
    elif isinstance(join.right, GenSelect):
        side = 1
        gs = join.right
        other = join.left
    else:
        raise PullUpError("neither operand is a GenSelect")

    x_side = gs
    x_attrs = frozenset(x_side.all_attrs)
    q_x = join.predicate.attrs & x_attrs
    x_preserved = (
        join.kind.preserves_left if side == 0 else join.kind.preserves_right
    )
    other_preserved = (
        join.kind.preserves_right if side == 0 else join.kind.preserves_left
    )

    new_join = Join(
        join.kind,
        gs.child if side == 0 else other,
        other if side == 0 else gs.child,
        join.predicate,
    )

    updated: list[Preserved] = []
    any_extended = False
    for pres in gs.preserved:
        covered = q_x <= (pres.real | pres.virtual)
        if covered:
            extended = preserved_for(
                new_join,
                _bases_of(gs.child, pres) | other.base_names,
            )
            updated.append(extended)
            any_extended = True
        elif x_preserved:
            updated.append(pres)
        # else: dropped -- padding dies at this join
    if other_preserved and not any_extended:
        updated.append(preserved_for(new_join, other.base_names))
    _check_pairwise_disjoint(updated)
    return GenSelect(new_join, gs.predicate, tuple(updated))


def _bases_of(scope: Expr, pres: Preserved) -> frozenset[str]:
    """The base relations a preserved spec covers within ``scope``."""
    owners = scope.attr_owners
    bases: frozenset[str] = frozenset()
    for attr in pres.real | pres.virtual:
        bases |= owners[attr]
    return bases


def _check_pairwise_disjoint(groups: list[Preserved]) -> None:
    seen_real: set[str] = set()
    seen_virtual: set[str] = set()
    for pres in groups:
        if pres.real & seen_real or pres.virtual & seen_virtual:
            raise PullUpError("preserved groups overlap while raising σ*")
        seen_real |= pres.real
        seen_virtual |= pres.virtual


def hoist_wrapper(join: Join) -> Expr | None:
    """Lift a Rename or bag-Project operand above ``join``.

    ``Join(k, Rename(x, m), y, p) = Rename(Join(k, x, y, p'), m)`` with
    the predicate's renamed attributes substituted back, and
    ``Join(k, Project(x, A), y, p) = Project(Join(k, x, y, p), A ∪
    attrs(y))`` for bag projections.  Both are what exposes a view's
    GroupBy to the pull-up machinery.
    """
    for side in (0, 1):
        operand = join.children()[side]
        other = join.children()[1 - side]
        if isinstance(operand, Rename):
            inverse = {new: old for old, new in operand.mapping}
            # renamed-back attributes must not collide with the other side
            if set(inverse.values()) & set(other.all_attrs):
                continue
            predicate = substitute(join.predicate, inverse)
            inner_join = Join(
                join.kind,
                operand.child if side == 0 else other,
                other if side == 0 else operand.child,
                predicate,
            )
            return Rename(inner_join, operand.mapping)
        if isinstance(operand, Project) and not operand.distinct:
            if set(operand.child.all_attrs) & set(other.all_attrs):
                continue
            inner_join = Join(
                join.kind,
                operand.child if side == 0 else other,
                other if side == 0 else operand.child,
                join.predicate,
            )
            keep = (
                operand.attrs + other.real_attrs
                if side == 0
                else other.real_attrs + operand.attrs
            )
            return Project(inner_join, keep)
    return None


def pull_up_aggregations(root: Expr) -> Expr:
    """Pull every GroupBy above the joins, iterating to a fixpoint.

    GenSelects introduced by deferrals are raised along the way.  When
    a step is not admissible (:class:`PullUpError`) the GroupBy stays
    where it is; the enumeration then simply treats its subtree as a
    single unit, which is sound, just less reorderable.
    """
    expr = root
    changed = True
    while changed:
        changed = False
        for path, node in iter_nodes(expr):
            if not isinstance(node, Join):
                continue
            if isinstance(node.left, GroupBy) or isinstance(node.right, GroupBy):
                try:
                    replacement = pull_up_once(node)
                except PullUpError:
                    continue
                expr = replace_at(expr, path, replacement)
                changed = True
                break
            if isinstance(node.left, GenSelect) or isinstance(node.right, GenSelect):
                try:
                    replacement = raise_genselect(node)
                except PullUpError:
                    continue
                expr = replace_at(expr, path, replacement)
                changed = True
                break
            if isinstance(node.left, AdjustPadding) or isinstance(
                node.right, AdjustPadding
            ):
                replacement = _raise_adjust(node)
                if replacement is not None:
                    expr = replace_at(expr, path, replacement)
                    changed = True
                    break
            if any(
                isinstance(op, (Rename, Project))
                and any(isinstance(n, GroupBy) for n in op.walk())
                for op in node.children()
            ):
                hoisted = hoist_wrapper(node)
                if hoisted is not None:
                    expr = replace_at(expr, path, hoisted)
                    changed = True
                    break
    return expr


def _raise_adjust(join: Join) -> Expr | None:
    """Hoist an AdjustPadding operand above ``join``.

    Sound because the adjustment is row-local and the join predicate
    must not reference the adjusted aggregate columns (those conjuncts
    are deferred beforehand); pad rows the join itself creates carry a
    NULL witness, which the adjustment leaves untouched.
    """
    if isinstance(join.left, AdjustPadding):
        side, adjust, other = 0, join.left, join.right
    elif isinstance(join.right, AdjustPadding):
        side, adjust, other = 1, join.right, join.left
    else:
        return None
    if join.predicate.attrs & set(adjust.targets):
        return None
    if join.predicate.attrs & {adjust.witness}:
        return None
    new_join = Join(
        join.kind,
        adjust.child if side == 0 else other,
        other if side == 0 else adjust.child,
        join.predicate,
    )
    return AdjustPadding(new_join, adjust.witness, adjust.targets)
