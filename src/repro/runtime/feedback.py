"""Cardinality feedback: query-driven estimates and mid-query re-planning.

Static selectivity estimates go wrong exactly where the paper's
machinery lives -- generalized selections and outer-join reorderings
multiply per-conjunct guesses that no histogram backs up.  Following
the query-driven strategy of Shin (PAPERS.md), this module closes the
loop with two pieces:

* :class:`FeedbackStore` -- a bounded, thread-safe store of observed
  est/actual deltas, keyed two ways: by **predicate fingerprint**
  (a multiplicative selectivity correction that transfers across
  re-ordered join trees) and by **subtree fingerprint** (an exact
  observed row count for a logical subtree the engine has already
  run).  The cost model consults it through
  :meth:`FeedbackStore.corrected_rows`; every *material* correction
  bumps :attr:`FeedbackStore.generation`, which the session composes
  into the plan-cache key so stale plans self-invalidate.
  Suspect observations -- wild est/actual ratios or oscillating
  revisions, e.g. poisoned by a ``feedback:perturb`` fault -- are
  **quarantined** per fingerprint so a poisoned delta can never wedge
  the optimizer permanently.

* :class:`CardinalityMonitor` -- a contextvar-scoped watcher the three
  engines report to at their operator boundaries (the same places
  Budget ticks live).  It records est/actual pairs, caches bounded
  materialized intermediates keyed by ``(subtree, needed-columns)``,
  and -- when armed with an Nx threshold -- raises
  :class:`repro.errors.ReplanTriggered` the first time an operator's
  actual cardinality exceeds its estimate by that factor.  The session
  catches the signal, ingests the observations, re-optimizes with the
  corrected estimates, and re-executes; the monitor's intermediate
  cache turns shared subtrees of the new plan into O(1) lookups, so
  resumption pays only for the plan fragments that actually changed.

Observing is ingestion's fault site: :meth:`FeedbackStore.observe`
applies ``perturb_factor("feedback", "ingest")``, so a fault clause
like ``feedback:perturb=16x`` poisons the store the way a buggy
counter would -- which is precisely what the quarantine machinery is
tested against.

This module must stay import-light (stdlib + :mod:`repro.errors` +
the fault/tracing leaf modules): the engines import it at module load,
while ``repro.runtime``'s package init is still executing.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReplanTriggered, UserInputError
from repro.runtime.faults import _NODE_SITES, perturb_factor

_MONITOR: ContextVar["CardinalityMonitor | None"] = ContextVar(
    "repro_cardinality_monitor", default=None
)

#: corrections are clamped into [1/_MAX_FACTOR, _MAX_FACTOR]
_MAX_FACTOR = 1e6

_MIN_ROWS = 1e-9


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def subtree_key(expr) -> str:
    """Fingerprint of a whole logical subtree (order-sensitive)."""
    return "t:" + _digest(repr(expr))


def predicate_key(predicate) -> str:
    """Fingerprint of one predicate, independent of the join order
    around it -- the correction it indexes transfers to every plan
    that evaluates the same predicate."""
    return "p:" + _digest(repr(predicate))


def _node_site(expr) -> str:
    name = type(expr).__name__
    return _NODE_SITES.get(name, name.lower())


@dataclass
class FeedbackEntry:
    """One fingerprint's accumulated correction."""

    key: str
    kind: str  # "subtree" | "predicate"
    factor: float = 1.0  # predicate: multiplicative selectivity fix
    rows: float | None = None  # subtree: last observed cardinality
    observations: int = 0
    swings: int = 0  # large direction reversals seen so far
    last_log: float = 0.0  # log-ratio of the previous revision
    quarantined: bool = False
    stats_version: int = 0  # entries are inert under other stats

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "factor": self.factor,
            "rows": self.rows,
            "observations": self.observations,
            "swings": self.swings,
            "last_log": self.last_log,
            "quarantined": self.quarantined,
            "stats_version": self.stats_version,
        }

    @staticmethod
    def from_dict(data: dict) -> "FeedbackEntry":
        try:
            return FeedbackEntry(
                key=str(data["key"]),
                kind=str(data["kind"]),
                factor=float(data.get("factor", 1.0)),
                rows=None if data.get("rows") is None else float(data["rows"]),
                observations=int(data.get("observations", 0)),
                swings=int(data.get("swings", 0)),
                last_log=float(data.get("last_log", 0.0)),
                quarantined=bool(data.get("quarantined", False)),
                stats_version=int(data.get("stats_version", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise UserInputError(f"bad feedback entry {data!r}: {exc}") from None


class FeedbackStore:
    """Bounded, thread-safe est/actual feedback with self-invalidation.

    Args:
        max_entries: LRU bound on distinct fingerprints.
        bump_ratio: A revision that moves an applied value by more than
            this factor (either direction) is *material* and bumps
            :attr:`generation` -- well-estimated operators therefore
            never invalidate warm plan-cache entries.
        suspect_ratio: An observation this far off its baseline is
            treated as poisoned: the entry is quarantined, the delta
            discarded.
        swing_ratio: A revision reversing direction by more than this
            factor counts as one oscillation swing.
        max_swings: Oscillation swings tolerated before quarantine.
    """

    def __init__(
        self,
        max_entries: int = 512,
        *,
        bump_ratio: float = 2.0,
        suspect_ratio: float = 1e4,
        swing_ratio: float = 16.0,
        max_swings: int = 2,
    ) -> None:
        if max_entries < 1:
            raise UserInputError("feedback max_entries must be >= 1")
        self.max_entries = max_entries
        self.bump_ratio = bump_ratio
        self.suspect_ratio = suspect_ratio
        self.swing_ratio = swing_ratio
        self.max_swings = max_swings
        #: bumped on every material correction; the session composes it
        #: with ``stats_version`` into the plan-cache key
        self.generation = 0
        self._entries: dict[str, FeedbackEntry] = {}  # insertion = LRU order
        self._lock = threading.Lock()
        self.ingests = 0
        self.applied = 0
        self.quarantines = 0
        self.evictions = 0

    # -- ingestion -------------------------------------------------------

    def observe(
        self, expr, est: float | None, actual: float, stats_version: int = 0
    ) -> None:
        """Ingest one executed operator's est/actual pair.

        ``expr`` is the logical node the engine just finished;
        ``est`` is the optimizer's row estimate for it (``None`` when
        the node was never costed) and ``actual`` the observed count.
        This is the ``feedback.ingest`` fault site: an active
        ``feedback:perturb`` clause scales ``actual`` before it is
        believed, which is how chaos storms poison the store.
        """
        actual = float(actual) * perturb_factor("feedback", "ingest")
        with self._lock:
            self.ingests += 1
            self._ingest_subtree(subtree_key(expr), est, actual, stats_version)
            predicate = getattr(expr, "predicate", None)
            if predicate is not None and est is not None and est > 0:
                self._ingest_predicate(
                    predicate_key(predicate), est, actual, stats_version
                )

    def _ingest_subtree(
        self, key: str, est: float | None, actual: float, stats_version: int
    ) -> None:
        entry = self._entry(key, "subtree", stats_version)
        if entry.quarantined:
            return
        baseline = entry.rows if entry.rows is not None else est
        if not self._sane(entry, baseline, actual):
            return
        entry.rows = max(actual, 0.0)
        entry.observations += 1
        self._maybe_bump(baseline, actual)

    def _ingest_predicate(
        self, key: str, est: float, actual: float, stats_version: int
    ) -> None:
        entry = self._entry(key, "predicate", stats_version)
        if entry.quarantined:
            return
        ratio = max(actual, _MIN_ROWS) / max(est, _MIN_ROWS)
        if not self._sane(entry, est, actual):
            return
        # ``est`` already had ``entry.factor`` applied when it was
        # costed, so composing multiplicatively converges to a fixpoint
        # once the correction is right (ratio -> 1).
        entry.factor = min(max(entry.factor * ratio, 1.0 / _MAX_FACTOR), _MAX_FACTOR)
        entry.observations += 1
        self._maybe_bump(est, actual)

    def _entry(self, key: str, kind: str, stats_version: int) -> FeedbackEntry:
        entry = self._entries.pop(key, None)
        if entry is None or entry.stats_version != stats_version:
            entry = FeedbackEntry(key, kind, stats_version=stats_version)
        self._entries[key] = entry  # (re-)append = most recently used
        while len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        return entry

    def _sane(
        self, entry: FeedbackEntry, baseline: float | None, actual: float
    ) -> bool:
        """Quarantine checks; returns ``False`` when the delta must be
        discarded (and possibly the whole entry retired)."""
        if baseline is None or baseline <= 0:
            return True  # nothing to compare against yet
        log_ratio = math.log(max(actual, _MIN_ROWS) / max(baseline, _MIN_ROWS))
        if abs(log_ratio) > math.log(self.suspect_ratio):
            self._quarantine(entry)
            return False
        if (
            abs(log_ratio) > math.log(self.swing_ratio)
            and entry.last_log * log_ratio < 0
        ):
            entry.swings += 1
            if entry.swings >= self.max_swings:
                self._quarantine(entry)
                return False
        entry.last_log = log_ratio
        return True

    def _quarantine(self, entry: FeedbackEntry) -> None:
        entry.quarantined = True
        entry.factor = 1.0
        entry.rows = None
        self.quarantines += 1
        # plans costed with the now-retired correction are stale
        self.generation += 1

    def _maybe_bump(self, baseline: float | None, actual: float) -> None:
        if baseline is None or baseline <= 0:
            return
        ratio = max(actual, _MIN_ROWS) / max(baseline, _MIN_ROWS)
        if ratio > self.bump_ratio or ratio < 1.0 / self.bump_ratio:
            self.generation += 1

    # -- application -----------------------------------------------------

    def corrected_rows(
        self, expr, est_rows: float, stats_version: int = 0
    ) -> float | None:
        """The feedback-corrected row count for ``expr``, or ``None``
        when no applicable (non-quarantined, same-stats) entry exists.

        Exact subtree observations win over predicate factors: a
        subtree the engine has already executed needs no estimate at
        all."""
        if not self._entries:
            return None
        with self._lock:
            entry = self._entries.get(subtree_key(expr))
            if (
                entry is not None
                and not entry.quarantined
                and entry.rows is not None
                and entry.stats_version == stats_version
            ):
                self.applied += 1
                return entry.rows
            predicate = getattr(expr, "predicate", None)
            if predicate is not None:
                factor = self._factor(predicate, stats_version)
                if factor != 1.0:
                    return est_rows * factor
        return None

    def predicate_factor(self, predicate, stats_version: int = 0) -> float:
        """The selectivity correction observed for ``predicate`` (1.0
        when no applicable entry exists).  Keyed by the predicate
        alone, so the join DP can apply it per atom whatever plan
        shape produced the observation."""
        if not self._entries:
            return 1.0
        with self._lock:
            return self._factor(predicate, stats_version)

    def _factor(self, predicate, stats_version: int) -> float:
        entry = self._entries.get(predicate_key(predicate))
        if (
            entry is None
            or entry.quarantined
            or entry.factor == 1.0
            or entry.stats_version != stats_version
        ):
            return 1.0
        self.applied += 1
        return entry.factor

    # -- maintenance / introspection -------------------------------------

    def clear_quarantine(self) -> int:
        """Drop quarantined entries so their fingerprints may learn
        again; returns how many were released."""
        with self._lock:
            stale = [k for k, e in self._entries.items() if e.quarantined]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> dict:
        """Counters for snapshots and metric syncing."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "generation": self.generation,
                "ingests": self.ingests,
                "applied": self.applied,
                "quarantines": self.quarantines,
                "quarantined_entries": sum(
                    1 for e in self._entries.values() if e.quarantined
                ),
                "evictions": self.evictions,
            }

    # -- persistence -----------------------------------------------------

    def to_json(self) -> str:
        """Serialize entries + generation (LRU order preserved)."""
        with self._lock:
            return json.dumps(
                {
                    "version": 1,
                    "generation": self.generation,
                    "max_entries": self.max_entries,
                    "entries": [e.to_dict() for e in self._entries.values()],
                },
                indent=2,
            )

    @classmethod
    def from_json(cls, text: str, **kwargs) -> "FeedbackStore":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UserInputError(f"bad feedback JSON: {exc}") from None
        if not isinstance(data, dict) or "entries" not in data:
            raise UserInputError("bad feedback JSON: expected an object with 'entries'")
        kwargs.setdefault("max_entries", int(data.get("max_entries", 512)))
        store = cls(**kwargs)
        store.generation = int(data.get("generation", 0))
        for item in data["entries"]:
            entry = FeedbackEntry.from_dict(item)
            store._entries[entry.key] = entry
        return store

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path, **kwargs) -> "FeedbackStore":
        return cls.from_json(Path(path).read_text(), **kwargs)


class CardinalityMonitor:
    """Per-execution watcher of operator cardinalities.

    The session stamps it with the chosen plan's per-node estimates,
    activates it around execution via :func:`monitor_scope`, and the
    engines report through :func:`monitor_record` at every operator
    boundary.  When ``threshold`` is set (armed), an actual count
    beyond ``threshold``x its estimate raises
    :class:`~repro.errors.ReplanTriggered` -- once per node, so a
    re-executed plan can never trip over the same operator twice.

    Completed intermediates are cached keyed ``(subtree, needed)``
    (``needed`` is the vector engine's column-pruning context; row
    engines use ``None``), bounded by ``max_cached_rows``, so
    re-execution after a re-plan resumes from materialized results
    instead of recomputing shared subtrees.
    """

    def __init__(
        self,
        threshold: float | None = None,
        max_cached_rows: int = 200_000,
    ) -> None:
        if threshold is not None and threshold <= 1.0:
            raise UserInputError("replan threshold must be > 1")
        self.threshold = threshold
        self.max_cached_rows = max_cached_rows
        self.estimates: dict[str, float] = {}
        #: fingerprint -> (node, est, actual); drained at ingest time
        self.observed: dict[str, tuple[object, float | None, float]] = {}
        self._results: dict[tuple[str, object], object] = {}
        self.cached_rows = 0
        self.fired: set[str] = set()
        self.reused = 0

    def stamp(self, plan, estimator) -> None:
        """(Re-)record per-node row estimates for ``plan``'s tree."""
        self.estimates.clear()
        stack = [plan]
        while stack:
            node = stack.pop()
            self.estimates[subtree_key(node)] = float(estimator(node))
            stack.extend(node.children())

    def disarm(self) -> None:
        """Give up on re-planning: keep observing, stop triggering."""
        self.threshold = None

    @property
    def armed(self) -> bool:
        return self.threshold is not None

    def lookup(self, expr, needed=None):
        """A previously materialized result for ``(expr, needed)``."""
        result = self._results.get((subtree_key(expr), needed))
        if result is not None:
            self.reused += 1
        return result

    def record(self, expr, rows: int, result=None, needed=None) -> None:
        """Record one operator boundary; may raise ReplanTriggered."""
        key = subtree_key(expr)
        est = self.estimates.get(key)
        self.observed[key] = (expr, est, float(rows))
        if result is not None and self.cached_rows + rows <= self.max_cached_rows:
            self._results[(key, needed)] = result
            self.cached_rows += rows
        if (
            self.threshold is not None
            and est is not None
            and key not in self.fired
            and rows > max(est, 1.0) * self.threshold
        ):
            self.fired.add(key)
            raise ReplanTriggered(
                _node_site(expr), est, float(rows), self.threshold
            )

    def drain(self) -> list[tuple[object, float | None, float]]:
        """Observations since the last drain (for store ingestion)."""
        items = list(self.observed.values())
        self.observed.clear()
        return items


# -- the hooks the engines call ------------------------------------------


def monitor_lookup(expr, needed=None):
    """Materialized-intermediate lookup; ``None`` unless a monitor is
    active and has the result.  A single contextvar read when idle."""
    monitor = _MONITOR.get()
    if monitor is None:
        return None
    return monitor.lookup(expr, needed)


def monitor_record(expr, rows: int, result=None, needed=None) -> None:
    """Operator-boundary observation; a no-op unless a monitor is
    active.  May raise :class:`~repro.errors.ReplanTriggered`."""
    monitor = _MONITOR.get()
    if monitor is None:
        return
    monitor.record(expr, rows, result, needed)


def active_monitor() -> CardinalityMonitor | None:
    return _MONITOR.get()


@contextmanager
def monitor_scope(monitor: CardinalityMonitor | None):
    """Activate ``monitor`` for the current context (thread/task)."""
    if monitor is None:
        yield None
        return
    token = _MONITOR.set(monitor)
    try:
        yield monitor
    finally:
        _MONITOR.reset(token)


__all__ = [
    "CardinalityMonitor",
    "FeedbackEntry",
    "FeedbackStore",
    "active_monitor",
    "monitor_lookup",
    "monitor_record",
    "monitor_scope",
    "predicate_key",
    "subtree_key",
]
