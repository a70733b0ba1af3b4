"""Deferred application of predicate conjuncts (Section 3).

``defer_conjunct`` removes one conjunct from a join's predicate and
compensates with a generalized selection at the root of the (sub)tree,
computing the preserved relations Theorem 1 prescribes.  It subsumes
identities (1)-(8) -- they are the one- and two-ancestor special cases
-- and extends them to arbitrary tree positions.

The preserved sets are computed by walking from the split operator up
to the root (see DESIGN.md, "Theorem 1 compensation, operationally"):

* start with the preserved side(s) of the split operator -- the full
  relation sets of its operand subtrees (``pres(h)`` seeds);
* at each ancestor join ``A`` (with the split node on side ``X`` and
  the other operand covering relations ``S``), for every preserved
  group ``g`` collected so far:

  - if every ``X``-side attribute of ``A``'s predicate belongs to
    ``g``'s relations, the null-padded ``g`` rows can still match
    across ``A`` -- the group *extends* to ``g ∪ S``;
  - otherwise the padding carries a NULL into ``A``'s predicate; the
    padded rows survive only if ``A`` preserves the ``X`` side (the
    group is kept, padding now covers ``S`` too), and are lost
    otherwise (the group is dropped);

* whenever ``A`` preserves the *other* side, that side's tuples can
  lose their padding to rows the deferred conjunct later rejects, so
  ``S`` joins the collection as a new group (the paper's
  ``pres_h(h_i)`` for each conflicting outer join ``h_i``).

Every rule above was validated on randomized databases before being
adopted; the property tests in ``tests/core`` re-check them on every
run.
"""

from __future__ import annotations

from repro.errors import OptimizerInternalError

from dataclasses import dataclass, replace as dc_replace

from repro.expr.nodes import (
    Expr,
    GenSelect,
    Join,
    JoinKind,
    preserved_for,
)
from repro.expr.predicates import Predicate, conjuncts_of, make_conjunction
from repro.expr.rewrite import Path, _respine, ancestors_of, node_at
from repro.runtime.tracing import add_counter


class SplitError(OptimizerInternalError):
    """Raised when a conjunct cannot be deferred from its position."""


@dataclass(frozen=True)
class DeferResult:
    """Outcome of deferring one conjunct.

    ``expr`` is the compensated tree (a GenSelect at the root);
    ``groups`` the preserved relation-name groups it uses.
    """

    expr: GenSelect
    conjunct: Predicate
    groups: tuple[frozenset[str], ...]


def defer_conjunct(root: Expr, path: Path, conjunct: Predicate) -> DeferResult:
    """Remove ``conjunct`` from the join at ``path``; compensate at the root.

    Every node on the path (including the root) must be a Join; the
    pipeline arranges this by operating on join cores.  Returns the
    equivalent expression ``σ*_conjunct[groups](root')``.  The walk is
    :func:`defer_step` folded over the ancestors, innermost first.
    """
    node, groups = defer_seed(node_at(root, path), conjunct)
    lineage = ancestors_of(root, path)
    for depth in range(len(lineage) - 1, -1, -1):
        node, groups = defer_step(lineage[depth][1], path[depth], node, groups)
    return compensate(node, conjunct, groups)


def defer_seed(target: Expr, conjunct: Predicate) -> tuple[Join, list[frozenset[str]]]:
    """``target`` without ``conjunct``, and the preserved groups it seeds.

    The groups are the full relation sets of the split operator's
    preserved operands (the paper's ``pres(h)``).  Each seed counts
    one ``defer_conjunct_calls`` on the enclosing span.
    """
    add_counter("defer_conjunct_calls")
    if not isinstance(target, Join):
        raise SplitError(f"the split node {type(target).__name__} is not a join")
    atoms = conjuncts_of(target.predicate)
    if conjunct not in atoms:
        raise SplitError(f"{conjunct} is not a conjunct of the join predicate")
    remaining = make_conjunction([a for a in atoms if a != conjunct])
    groups: list[frozenset[str]] = []
    if target.kind.preserves_left:
        groups.append(target.left.base_names)
    if target.kind.preserves_right:
        groups.append(target.right.base_names)
    return dc_replace(target, predicate=remaining), groups


def defer_step(
    ancestor: Expr,
    x_index: int,
    new_child: Expr,
    groups: list[frozenset[str]],
) -> tuple[Expr, list[frozenset[str]]]:
    """One ancestor of the preserved-set walk.

    ``ancestor`` is the original join whose child ``x_index`` holds the
    split; ``new_child`` is that child with the conjunct already
    removed.  Returns the ancestor rebuilt over ``new_child`` and the
    groups updated across it.  Raises :class:`SplitError` when the
    ancestor is not a join or the groups overlap.
    """
    if not isinstance(ancestor, Join):
        raise SplitError(
            f"ancestor {type(ancestor).__name__} above the split is not a "
            "join; defer within the join core"
        )
    x_side = ancestor.children()[x_index]
    other = ancestor.children()[1 - x_index]
    other_bases = other.base_names
    x_owners = x_side.attr_owners
    q_x = ancestor.predicate.attrs & x_owners.keys()
    x_preserved = (
        ancestor.kind.preserves_left
        if x_index == 0
        else ancestor.kind.preserves_right
    )
    other_preserved = (
        ancestor.kind.preserves_right
        if x_index == 0
        else ancestor.kind.preserves_left
    )

    updated: list[frozenset[str]] = []
    extended = False
    for group in groups:
        # by ownership: SQL renames every column above its table,
        # and a renamed column still belongs to its table's group
        if all(x_owners[a] <= group for a in q_x):
            updated.append(group | other_bases)
            extended = True
        elif x_preserved:
            updated.append(group)
        # otherwise the padding dies at this ancestor: drop the group
    if other_preserved and not extended:
        # a group extended across the ancestor already preserves the
        # other side's tuples (their padding pairs with the group's
        # parts), so the far-side group is only added when no
        # extension subsumes it -- validated empirically
        updated.append(other_bases)
    _check_disjoint(updated)
    children = (new_child, other) if x_index == 0 else (other, new_child)
    return _respine(ancestor, children), updated


def compensate(
    root: Expr, conjunct: Predicate, groups: list[frozenset[str]]
) -> DeferResult:
    """``σ*_conjunct[groups](root)``: the walk's result at the root."""
    groups = _dedupe(groups)
    preserved = tuple(
        preserved_for(root, g, label="".join(sorted(g))) for g in groups
    )
    return DeferResult(GenSelect(root, conjunct, preserved), conjunct, tuple(groups))


def _check_disjoint(groups: list[frozenset[str]]) -> None:
    seen: set[str] = set()
    for group in _dedupe(groups):
        if group & seen:
            raise SplitError(
                "preserved groups overlap after walking the ancestors; "
                "this split shape is not supported"
            )
        seen |= group


def _dedupe(groups: list[frozenset[str]]) -> list[frozenset[str]]:
    out: list[frozenset[str]] = []
    for group in groups:
        if group not in out:
            out.append(group)
    return out


def defer_conjuncts(
    root: Expr, picks: list[tuple[Path, Predicate]]
) -> Expr:
    """Defer several conjuncts, stacking compensations.

    Earlier picks end up *outermost*, matching the paper's Q6
    treatment (break the independent predicate first, then its
    dependents).  Each deferral is computed on the current core and
    wrapped inside the existing GenSelect stack.
    """
    stack: list[GenSelect] = []
    core = root
    for path, conjunct in picks:
        result = defer_conjunct(core, path, conjunct)
        stack.append(result.expr)
        core = result.expr.child
    # rebuild: each GenSelect wraps the final core, innermost last
    expr: Expr = core
    for gs in reversed(stack):
        expr = GenSelect(expr, gs.predicate, gs.preserved)
    return expr
