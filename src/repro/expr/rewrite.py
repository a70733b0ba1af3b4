"""Structural tree utilities: paths, replacement, reconstruction.

Expression nodes are immutable; rewrites produce new trees.  A *path*
is a tuple of child indices from the root; it addresses a node even
when structurally equal subtrees occur in several places.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.expr.nodes import (
    AdjustPadding,
    Rename,
    SemiJoin,
    UnionAll,
    BaseRel,
    Expr,
    ExprError,
    GenSelect,
    GroupBy,
    Join,
    Project,
    Select,
)

Path = tuple[int, ...]


def node_at(root: Expr, path: Path) -> Expr:
    """The node addressed by ``path``."""
    node = root
    for index in path:
        children = node.children()
        if index >= len(children):
            raise ExprError(f"invalid path {path} at {node!r}")
        node = children[index]
    return node


def with_children(node: Expr, children: tuple[Expr, ...]) -> Expr:
    """Rebuild ``node`` with new children (same arity).

    Constructs directly rather than via ``dataclasses.replace`` -- this
    sits on the enumerator's innermost loop and the replace() field
    introspection is measurable there.
    """
    old = node.children()
    if len(old) != len(children):
        raise ExprError("child count mismatch")
    if isinstance(node, Join):
        return Join(node.kind, children[0], children[1], node.predicate)
    if isinstance(node, SemiJoin):
        return SemiJoin(children[0], children[1], node.predicate, node.anti)
    if isinstance(node, UnionAll):
        return UnionAll(children[0], children[1])
    if isinstance(node, Select):
        return Select(children[0], node.predicate)
    if isinstance(node, Project):
        return Project(children[0], node.attrs, node.distinct)
    if isinstance(node, GroupBy):
        return GroupBy(children[0], node.group_by, node.aggregates, node.name)
    if isinstance(node, GenSelect):
        return GenSelect(children[0], node.predicate, node.preserved)
    if isinstance(node, AdjustPadding):
        return AdjustPadding(children[0], node.witness, node.targets)
    if isinstance(node, Rename):
        return Rename(children[0], node.mapping)
    if isinstance(node, BaseRel):
        return node
    raise ExprError(f"cannot rebuild {type(node).__name__}")


def _respine(node: Expr, children: tuple[Expr, ...]) -> Expr:
    """``with_children`` minus re-validation, for ancestor rebuilds.

    ``replace_at`` swaps one subtree and rebuilds the spine above it.
    Every rewrite rule produces a replacement with the same output
    attribute *set* as the node it replaces, and every ancestor guard
    (predicate scope, attribute disjointness, projection membership)
    is set-based -- so the ancestors stay valid by construction and
    re-running ``__post_init__`` on each spine node is pure overhead
    on the enumerator's hot path.  Nodes are built via ``__new__`` and
    a direct ``__dict__`` fill; derived schemas stay lazy as usual.
    """
    cls = type(node)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(cls.__dataclass_fields__)
    src = node.__dict__
    new = object.__new__(cls)
    d = new.__dict__
    # copy only the constructor fields: the old node's lazily-computed
    # caches (schemas, hash) must not leak -- attribute *order* can
    # differ after a child swap even though the sets agree
    for name in names:
        d[name] = src[name]
    if isinstance(node, (Join, SemiJoin, UnionAll)):
        d["left"], d["right"] = children
    else:
        d["child"] = children[0]
    return new


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def replace_at(root: Expr, path: Path, new_node: Expr) -> Expr:
    """A copy of ``root`` with the node at ``path`` replaced.

    The replacement must keep the node's output attribute set (true of
    every rewrite rule); ancestors are rebuilt without re-validation.
    """
    if not path:
        return new_node
    children = list(root.children())
    index = path[0]
    children[index] = replace_at(children[index], path[1:], new_node)
    return _respine(root, tuple(children))


def iter_nodes(root: Expr) -> Iterator[tuple[Path, Expr]]:
    """Pre-order traversal yielding (path, node).

    Iterative (explicit stack): the enumerator walks every candidate
    plan, and nested generator frames are measurable there.  The order
    is identical to the recursive formulation.
    """
    stack: list[tuple[Path, Expr]] = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        children = node.children()
        for i in range(len(children) - 1, -1, -1):
            stack.append((path + (i,), children[i]))


def ancestors_of(root: Expr, path: Path) -> list[tuple[Path, Expr]]:
    """Ancestors of the node at ``path``, outermost first (root first)."""
    out = []
    node = root
    for depth in range(len(path)):
        out.append((path[:depth], node))
        node = node.children()[path[depth]]
    return out


def transform_leaves(
    root: Expr, fn: Callable[[BaseRel], Expr]
) -> Expr:
    """Replace every BaseRel leaf via ``fn``."""
    if isinstance(root, BaseRel):
        return fn(root)
    children = tuple(transform_leaves(c, fn) for c in root.children())
    return with_children(root, children)
