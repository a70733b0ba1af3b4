"""Cross-query plan cache: amortize optimization over repeated queries.

Optimization dominates latency for repeated or scripted workloads (the
same view expanded under several selects, a dashboard re-issuing one
query shape).  :class:`PlanCache` memoizes successful *full*
optimization results keyed by

* a **canonical query fingerprint** -- a digest of the expression
  tree's exact structure, constants included.  Binding different
  constants therefore misses the cache by design: constant-specific
  statistics (value frequencies) legitimately change the chosen plan,
  and reusing a plan across constants would silently pin a stale
  choice; and
* the **statistics version** (:attr:`Statistics.version`), so a
  refreshed catalog invalidates every entry without explicit flushes.
  The version may be any hashable -- the session composes it with the
  cardinality-feedback generation (``(stats_version, generation)``, see
  :mod:`repro.runtime.feedback`) so observed-cardinality corrections
  also self-invalidate stale plans.

Only trustworthy entries are stored: full-rung results whose
verification did not fail (``verified is not False``).  A later
quarantine of a cached plan evicts the entry (:meth:`evict_plan`).
The cache is bounded LRU; hit/miss counters surface in EXPLAIN, the
CLI, and session results.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.expr.nodes import Expr
from repro.runtime.faults import fault_point
from repro.runtime.tracing import add_counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.planner import OptimizationResult


def query_fingerprint(query: Expr) -> str:
    """Canonical fingerprint of a query's exact structure.

    ``repr`` of the (frozen dataclass) tree is unambiguous and covers
    every field -- operators, attribute tuples, predicates, constants.
    The digest is stable across processes, unlike ``hash()``.
    """
    return hashlib.sha256(repr(query).encode()).hexdigest()[:16]


class PlanCache:
    """Bounded LRU of optimization results, keyed by (fingerprint, stats version).

    Thread-safe: one cache is shared by every worker session of a
    :class:`repro.runtime.service.QueryService`, so the LRU reordering
    (a read-modify-write on the underlying ``OrderedDict``) and the
    counters are guarded by a lock.  Fault-injection checkpoints
    (``cache.get`` / ``cache.put``) fire *outside* the lock so an
    injected latency never serializes the whole pool.
    """

    def __init__(self, max_entries: int = 256) -> None:
        """Create a bounded cache.

        Args:
            max_entries: LRU bound; ``0`` disables caching entirely
                (every store is immediately evicted).
        """
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, int], "OptimizationResult"] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self, query: Expr, stats_version: int
    ) -> "OptimizationResult | None":
        """The cached result for ``query``, or ``None`` on a miss.

        Args:
            query: The logical expression being planned (fingerprinted
                structurally, constants included).
            stats_version: :attr:`Statistics.version` the caller plans
                under (or any hashable composed from it, e.g. a
                ``(stats_version, feedback_generation)`` tuple);
                entries stored under another version never hit.

        Both outcomes move the hit/miss counters and fire the
        ``cache.get`` fault/trace checkpoint.
        """
        fault_point("cache", op="get")
        key = (query_fingerprint(query), stats_version)
        with self._lock:
            found = self._entries.get(key)
            if found is None:
                self.misses += 1
                add_counter("cache_misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            add_counter("cache_hits")
            return found

    def store(
        self, query: Expr, stats_version: int, result: "OptimizationResult"
    ) -> None:
        """Cache ``result`` for ``(query, stats_version)``, LRU-evicting.

        Args:
            query: The logical expression the result was planned for.
            stats_version: Statistics version the plan was costed under.
            result: A full-rung :class:`OptimizationResult` whose
                verification (if any) did not fail.
        """
        fault_point("cache", op="put")
        key = (query_fingerprint(query), stats_version)
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def evict_plan(self, plan: Expr) -> int:
        """Drop every entry whose chosen plan is ``plan`` (quarantine).

        Returns the number of entries evicted.
        """
        with self._lock:
            stale = [k for k, v in self._entries.items() if v.best == plan]
            for key in stale:
                del self._entries[key]
            self.evictions += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def counters(self) -> dict:
        """Machine-readable counters for EXPLAIN / CLI / incidents."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "evictions": self.evictions,
            }
