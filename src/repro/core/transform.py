"""Transformation-based plan enumeration (the Section 4 machinery).

``enumerate_plans`` computes the closure of a join core under verified
rewrite rules:

* commutativity of ``⋈``/``↔`` and the ``→``/``←`` mirror;
* inner-join associativity with conjunct redistribution;
* the valid outer-join associativities (join/LOJ pull-in and -out,
  LOJ-LOJ, FOJ-FOJ -- GALI92a/ROSE90);
* conjunct deferral at the root (``defer_conjunct`` -- the paper's
  identities (1)-(8) generalized), which is what breaks complex
  predicates and predicates over broken-up hyperedges;
* the generalized-join rule realizing the paper's MGOJ with GS:

      a →q (b ⋈p c)  =  σ*_p[a]((a →q b) →TRUE c)

  (the TRUE-predicate left join is a left-preserving pairing: it
  equals the cartesian product on non-empty right operands and keeps
  the left rows otherwise, which makes the identity exact on *all*
  inputs, empty relations included).

Every plan in the closure is equivalent to the seed; the rules were
validated on randomized databases and the property tests re-check
closure-wide equivalence.

The plans of a closure share almost all their subtrees (the 400
plans of the end-to-end benchmark's ``chain5_mixed_complex`` core
visit 6 192 nodes but hold 908 distinct subtrees), so the work is
memoized per subtree for the length of one call
(:class:`_ClosureMemo`): each rule fires once per distinct subtree,
each deferral walk steps once per distinct ancestor, and a variant
re-wraps the shared subtree objects one level at a time.  The variant
lists come out in the order of a pre-order walk of each whole plan,
so the plan list, its order and its cut at ``max_plans`` are those of
the plain per-plan walk (``tests/core/test_closure_memo.py`` keeps
that walk as the reference).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> core)
    from repro.runtime.budget import Budget

from repro.expr.nodes import (
    Expr,
    GenSelect,
    Join,
    JoinKind,
    preserved_for,
)
from repro.expr.predicates import (
    Predicate,
    TRUE,
    conjuncts_of,
    make_conjunction,
)
from repro.expr.rewrite import _respine, with_children
from repro.core.split import SplitError, compensate, defer_seed, defer_step
from repro.runtime.tracing import add_counter


def _mirror(kind: JoinKind) -> JoinKind:
    return {
        JoinKind.INNER: JoinKind.INNER,
        JoinKind.FULL: JoinKind.FULL,
        JoinKind.LEFT: JoinKind.RIGHT,
        JoinKind.RIGHT: JoinKind.LEFT,
    }[kind]


def commute(node: Expr) -> Iterator[Expr]:
    """a ⊙ b = b ⊙' a (⊙' mirrors outer joins)."""
    if isinstance(node, Join):
        yield Join(_mirror(node.kind), node.right, node.left, node.predicate)


def _attrs(expr: Expr) -> frozenset[str]:
    return frozenset(expr.all_attrs)


def _split_atoms(
    atoms: Iterable[Predicate], inner_left: Expr, inner_right: Expr
) -> tuple[list[Predicate], list[Predicate]]:
    """Partition atoms into (placeable on inner join, must stay on top)."""
    inner_scope = _attrs(inner_left) | _attrs(inner_right)
    inside, outside = [], []
    for atom in atoms:
        refs = atom.attrs
        if refs <= inner_scope and refs & _attrs(inner_left) and refs & _attrs(inner_right):
            inside.append(atom)
        else:
            outside.append(atom)
    return inside, outside


def assoc_inner(node: Expr) -> Iterator[Expr]:
    """(a ⋈p b) ⋈q c = a ⋈p' (b ⋈q' c), atoms redistributed by scope."""
    if not (isinstance(node, Join) and node.kind is JoinKind.INNER):
        return
    left, right = node.left, node.right
    if isinstance(left, Join) and left.kind is JoinKind.INNER:
        a, b, c = left.left, left.right, right
        atoms = conjuncts_of(left.predicate) + conjuncts_of(node.predicate)
        inside, outside = _split_atoms(atoms, b, c)
        if inside:
            new = Join(
                JoinKind.INNER,
                a,
                Join(JoinKind.INNER, b, c, make_conjunction(inside)),
                make_conjunction(outside),
            )
            yield new


def pull_join_into_loj(node: Expr) -> Iterator[Expr]:
    """(a ⋈p b) →q c = a ⋈p (b →q c)   when sch(q) ⊆ attrs(b, c)."""
    if not (isinstance(node, Join) and node.kind is JoinKind.LEFT):
        return
    left = node.left
    if isinstance(left, Join) and left.kind is JoinKind.INNER:
        a, b, c = left.left, left.right, node.right
        if node.predicate.attrs <= _attrs(b) | _attrs(c):
            yield Join(
                JoinKind.INNER,
                a,
                Join(JoinKind.LEFT, b, c, node.predicate),
                left.predicate,
            )


def push_loj_out_of_join(node: Expr) -> Iterator[Expr]:
    """a ⋈p (b →q c) = (a ⋈p b) →q c   when sch(p) ⊆ attrs(a, b)."""
    if not (isinstance(node, Join) and node.kind is JoinKind.INNER):
        return
    right = node.right
    if isinstance(right, Join) and right.kind is JoinKind.LEFT:
        a, b, c = node.left, right.left, right.right
        if node.predicate.attrs <= _attrs(a) | _attrs(b):
            yield Join(
                JoinKind.LEFT,
                Join(JoinKind.INNER, a, b, node.predicate),
                c,
                right.predicate,
            )


def loj_assoc(node: Expr) -> Iterator[Expr]:
    """(a →p b) →q c = a →p (b →q c)   when sch(q) ⊆ attrs(b, c).

    Both directions; valid because predicates are null-intolerant.
    """
    if not (isinstance(node, Join) and node.kind is JoinKind.LEFT):
        return
    left, right = node.left, node.right
    if isinstance(left, Join) and left.kind is JoinKind.LEFT:
        a, b, c = left.left, left.right, node.right
        if node.predicate.attrs <= _attrs(b) | _attrs(c) and node.predicate.attrs & _attrs(b):
            yield Join(
                JoinKind.LEFT,
                a,
                Join(JoinKind.LEFT, b, c, node.predicate),
                left.predicate,
            )
    if isinstance(right, Join) and right.kind is JoinKind.LEFT:
        a, b, c = node.left, right.left, right.right
        if node.predicate.attrs <= _attrs(a) | _attrs(b):
            yield Join(
                JoinKind.LEFT,
                Join(JoinKind.LEFT, a, b, node.predicate),
                c,
                right.predicate,
            )


def foj_assoc(node: Expr) -> Iterator[Expr]:
    """(a ↔p b) ↔q c = a ↔p (b ↔q c)  (GALI92, null-intolerant predicates)."""
    if not (isinstance(node, Join) and node.kind is JoinKind.FULL):
        return
    left, right = node.left, node.right
    if isinstance(left, Join) and left.kind is JoinKind.FULL:
        a, b, c = left.left, left.right, node.right
        if node.predicate.attrs <= _attrs(b) | _attrs(c) and node.predicate.attrs & _attrs(b):
            yield Join(
                JoinKind.FULL,
                a,
                Join(JoinKind.FULL, b, c, node.predicate),
                left.predicate,
            )
    if isinstance(right, Join) and right.kind is JoinKind.FULL:
        a, b, c = node.left, right.left, right.right
        if node.predicate.attrs <= _attrs(a) | _attrs(b) and node.predicate.attrs & _attrs(b):
            yield Join(
                JoinKind.FULL,
                Join(JoinKind.FULL, a, b, node.predicate),
                c,
                right.predicate,
            )


def generalized_join(node: Expr) -> Iterator[Expr]:
    """a →q (b ⋈p c) = σ*_p[a]((a →q b) →TRUE c)  -- MGOJ via GS.

    Fires when ``q`` references only ``a``/``b`` attributes and ``p``
    only ``b``/``c`` attributes; this is the rewrite that lets the
    null-supplying side of an outer join be joined piecemeal (the
    paper's plan for Q4's tree ``(r1.((r2.r4).(r5.r3)))``).
    """
    if not (isinstance(node, Join) and node.kind is JoinKind.LEFT):
        return
    a, right = node.left, node.right
    if not (isinstance(right, Join) and right.kind is JoinKind.INNER):
        return
    if right.predicate is TRUE:
        return
    for b, c in ((right.left, right.right), (right.right, right.left)):
        if node.predicate.attrs <= _attrs(a) | _attrs(b) and node.predicate.attrs & _attrs(b):
            if right.predicate.attrs <= _attrs(b) | _attrs(c):
                pairing = Join(
                    JoinKind.LEFT,
                    Join(JoinKind.LEFT, a, b, node.predicate),
                    c,
                    TRUE,
                )
                yield GenSelect(
                    pairing,
                    right.predicate,
                    (preserved_for(pairing, a.base_names),),
                )


def generalized_join_full(node: Expr) -> Iterator[Expr]:
    """a ↔q (b ⋈p c) = σ*_p[a]((a ↔q b) →TRUE c)  -- the FOJ variant.

    Verified on randomized data (0/400 mismatches, NULLs and empty
    relations included); the pairing's TRUE-predicate left join keeps
    the left rows alive on an empty ``c``.
    """
    if not (isinstance(node, Join) and node.kind is JoinKind.FULL):
        return
    a, right = node.left, node.right
    if not (isinstance(right, Join) and right.kind is JoinKind.INNER):
        return
    if right.predicate is TRUE:
        return
    for b, c in ((right.left, right.right), (right.right, right.left)):
        if node.predicate.attrs <= _attrs(a) | _attrs(b) and node.predicate.attrs & _attrs(b):
            if right.predicate.attrs <= _attrs(b) | _attrs(c):
                pairing = Join(
                    JoinKind.LEFT,
                    Join(JoinKind.FULL, a, b, node.predicate),
                    c,
                    TRUE,
                )
                yield GenSelect(
                    pairing,
                    right.predicate,
                    (preserved_for(pairing, a.base_names),),
                )


def hoist_genselect(node: Expr) -> Iterator[Expr]:
    """Raise a GenSelect operand above a join (one walking step).

    Uses the validated preserved-set walking rules; lets plans built by
    the generalized-join rules keep reordering above the compensation.
    """
    if not isinstance(node, Join):
        return
    if not (
        isinstance(node.left, GenSelect) or isinstance(node.right, GenSelect)
    ):
        return
    from repro.core.aggregation import PullUpError, raise_genselect

    try:
        yield raise_genselect(node)
    except PullUpError:
        return


def absorb_generalized_join(node: Expr) -> Iterator[Expr]:
    """The inverse of :func:`generalized_join` (restores the plain form)."""
    if not isinstance(node, GenSelect):
        return
    child = node.child
    if not (
        isinstance(child, Join)
        and child.kind is JoinKind.LEFT
        and child.predicate is TRUE
    ):
        return
    left = child.left
    if not (isinstance(left, Join) and left.kind is JoinKind.LEFT):
        return
    if len(node.preserved) != 1:
        return
    a, b, c = left.left, left.right, child.right
    pres = node.preserved[0]
    if pres.real != frozenset(a.real_attrs) or pres.virtual != frozenset(a.virtual_attrs):
        return
    if node.predicate.attrs <= _attrs(b) | _attrs(c):
        yield Join(
            JoinKind.LEFT,
            a,
            Join(JoinKind.INNER, b, c, node.predicate),
            left.predicate,
        )


LOCAL_RULES = (
    commute,
    assoc_inner,
    pull_join_into_loj,
    push_loj_out_of_join,
    loj_assoc,
    foj_assoc,
    generalized_join,
    generalized_join_full,
    hoist_genselect,
    absorb_generalized_join,
)


GS_FREE_RULES = tuple(
    rule
    for rule in LOCAL_RULES
    if rule
    not in (
        generalized_join,
        generalized_join_full,
        hoist_genselect,
        absorb_generalized_join,
    )
)


def enumerate_plans(
    seed: Expr,
    max_plans: int = 20000,
    with_deferral: bool = True,
    with_gs: bool = True,
    budget: "Budget | None" = None,
) -> list[Expr]:
    """The closure of ``seed`` under the rewrite rules (DFS, deduped).

    Every returned expression is equivalent to ``seed``.  The closure
    is capped at ``max_plans`` plans as a safety net; a cut closure
    records a ``closure_truncated`` counter on the enclosing span.
    ``with_gs=False`` restricts to the classical rules (no conjunct
    deferral, no generalized join) -- the pre-paper baseline where
    complex predicates freeze the order.

    ``budget`` adds *hard* limits on top of the soft cap: each
    expansion is a cooperative checkpoint (deadline check), and every
    distinct plan admitted to the closure charges the plan counter, so
    an exploding closure raises :class:`repro.errors.PlanBudgetExceeded`
    / :class:`repro.errors.DeadlineExceeded` instead of truncating
    silently -- the resilient runtime catches these and degrades.
    """
    if not with_gs:
        with_deferral = False
    memo = _ClosureMemo(LOCAL_RULES if with_gs else GS_FREE_RULES)
    if budget is not None:
        budget.charge_plans(1, "enumerate_plans")
    seen: dict[Expr, None] = {seed: None}
    frontier = [seed]
    expansions = 0
    while frontier:
        expr = frontier.pop()
        expansions += 1
        if budget is not None:
            budget.check_deadline("enumerate_plans")
        variants = memo.variants(expr)
        if with_deferral:
            variants += memo.deferrals(expr)
        for variant in variants:
            if variant not in seen:
                if len(seen) >= max_plans:
                    add_counter("closure_truncated")
                    return _accounted(seen, expansions)
                if budget is not None:
                    budget.charge_plans(1, "enumerate_plans")
                seen[variant] = None
                frontier.append(variant)
    return _accounted(seen, expansions)


class _ClosureMemo:
    """Per-subtree memo tables for one :func:`enumerate_plans` call.

    Both tables are keyed by (structurally equal) subtree; their lists
    come out in pre-order of the whole plan, the order the closure
    admits plans in (see the module docstring).
    """

    def __init__(self, rules: tuple) -> None:
        self.rules = rules
        self._variants: dict[Expr, list[Expr]] = {}
        self._partials: dict[Expr, list[tuple[Predicate, Expr, list]]] = {}

    def variants(self, node: Expr) -> list[Expr]:
        """Every single-rule rewrite of ``node`` or of one of its subtrees.

        The rules at ``node`` in rule order, then each child's variants
        re-wrapped one level, child by child.  Only the children's lists
        are kept: a plan is expanded once, so its own list would be
        held to the end of the call for nothing.
        """
        out = [new for rule in self.rules for new in rule(node)]
        children = node.children()
        if len(children) == 2:
            left, right = children
            out += [_respine(node, (v, right)) for v in self._memoized(left)]
            out += [_respine(node, (left, v)) for v in self._memoized(right)]
        elif children:
            out += [_respine(node, (v,)) for v in self._memoized(children[0])]
        return out

    def _memoized(self, node: Expr) -> list[Expr]:
        out = self._variants.get(node)
        if out is None:
            out = self._variants[node] = self.variants(node)
        return out

    def deferrals(self, expr: Expr) -> list[Expr]:
        """Defer one conjunct of any join whose predicate has several atoms.

        The deferral rewrites the join core into a standalone-equivalent
        GenSelect-over-core, so it applies transparently below any unary
        wrapper chain (GenSelect stack, GroupBy, padding adjustment) by
        congruence.
        """
        # locate the join core below the root's unary wrapper chain
        wrappers: list[Expr] = []
        core = expr
        while not isinstance(core, Join) and len(core.children()) == 1:
            wrappers.append(core)
            core = core.children()[0]
        if not isinstance(core, Join):
            return []
        out = []
        for conjunct, new_core, groups in self._partial_deferrals(core):
            rebuilt: Expr = compensate(new_core, conjunct, groups).expr
            for wrapper in reversed(wrappers):
                rebuilt = with_children(wrapper, (rebuilt,))
            out.append(rebuilt)
        return out

    def _partial_deferrals(self, node: Expr) -> list[tuple[Predicate, Expr, list]]:
        """Every conjunct deferral inside ``node``, walked up to ``node``.

        ``(conjunct, node without it, preserved groups)`` per multi-atom
        join site in pre-order and per atom; a walk that fails at some
        ancestor is dropped, as :func:`defer_conjunct` would raise.
        Only joins can be ancestors of a split, so any other node has
        none.
        """
        out = self._partials.get(node)
        if out is not None:
            return out
        out = []
        if isinstance(node, Join):
            atoms = conjuncts_of(node.predicate)
            if len(atoms) >= 2:
                for atom in atoms:
                    out.append((atom, *defer_seed(node, atom)))
            for index, child in enumerate(node.children()):
                for conjunct, new_child, groups in self._partial_deferrals(child):
                    try:
                        step = defer_step(node, index, new_child, groups)
                    except SplitError:
                        continue
                    out.append((conjunct, *step))
        self._partials[node] = out
        return out


def _accounted(seen: dict[Expr, None], expansions: int) -> list[Expr]:
    """Stamp the enumeration counters on the enclosing trace span."""
    add_counter("plans_admitted", len(seen))
    add_counter("frontier_expansions", expansions)
    return list(seen)
