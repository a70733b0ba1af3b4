#!/usr/bin/env python3
"""Dump the planner's decisions, to diff two checkouts of the repo.

A planner refactor that must not change plans is checked by running
this script on the parent and on the change and comparing the dumps
byte for byte:

    python tools/plan_identity.py PARENT_ROOT > parent.txt
    python tools/plan_identity.py CHANGE_ROOT > change.txt
    cmp parent.txt change.txt

``ROOT`` defaults to the checkout holding this file; the ``src`` and
``benchmarks/e2e`` of that root are imported.  Each line is one JSON
pair ``[case, decisions]``:

* ``session scale=S CLASS`` -- ``QuerySession.plan`` on each e2e query
  class at table scales 1, 10 and 60: rung, abandon reasons, chosen
  plan, ``best_cost``, ``plans_considered``, charged plans and the
  planning spans' tags and counters;
* ``chain/star/complex chain n=N seed=K dp|pareto|partitioned`` --
  ``dp_join_order``, every ``pareto_frontier`` entry under the orders
  the order pass seeds, and ``partitioned_dp_join_order``, with the
  charged plans and spans of each;
* ``x20 n=20`` / ``x20 n=40`` -- ``bench_x20_tiers.py``'s chain graphs.

``__witness<k>`` names are masked, so dumps of checkouts that name the
COUNT-bug witness differently still compare.
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent.parent)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from repro.optimizer import Statistics, TableStats  # noqa: E402
from repro.optimizer.dp import dp_join_order, pareto_frontier  # noqa: E402
from repro.optimizer.orders import equality_classes, interesting_orders  # noqa: E402
from repro.optimizer.planner import peel_wrappers  # noqa: E402
from repro.optimizer.tiers import partitioned_dp_join_order  # noqa: E402
from repro.runtime.budget import Budget  # noqa: E402
from repro.runtime.tracing import Tracer, trace_scope  # noqa: E402
from repro.workloads.topologies import chain_query, star_query  # noqa: E402

WITNESS = re.compile(r"__witness\d+")


def mask(text: str) -> str:
    return WITNESS.sub("__witnessN", text)


def chain_stats(n: int, seed: int = 1, choices=(10, 100, 1000)) -> Statistics:
    rng = random.Random(seed)
    stats = Statistics()
    for i in range(1, n + 1):
        rows = rng.choice(choices)
        stats.add(f"r{i}", TableStats(rows, {f"r{i}_a0": rows // 2, f"r{i}_a1": rows // 2}))
    return stats


def star_stats(n_satellites: int, seed: int = 1) -> Statistics:
    rng = random.Random(seed)
    stats = Statistics()
    stats.add("r0", TableStats(10, {f"r0_a{i}": 5 for i in range(n_satellites)}))
    for i in range(1, n_satellites + 1):
        rows = rng.choice((10, 100, 1000))
        stats.add(f"r{i}", TableStats(rows, {f"r{i}_a0": rows // 2, f"r{i}_a1": rows // 2}))
    return stats


def spans_of(tracer: Tracer) -> list:
    """Name, tags and counters of every planning span, in tree order."""
    out = []

    def walk(sp) -> None:
        if sp.name.startswith(("optimize.", "plan.")):
            out.append([sp.name, sorted(sp.tags.items()), sorted(sp.counters.items())])
        for child in sp.children:
            walk(child)

    for root in tracer.roots:
        walk(root)
    return out


def emit(case: str, decisions) -> None:
    print(json.dumps([case, decisions], sort_keys=True, default=str))


def traced(fn):
    """``fn(budget)`` under a fresh tracer: ``(result, plans, spans)``."""
    tracer = Tracer()
    budget = Budget()
    with trace_scope(tracer):
        result = fn(budget)
    return result, budget.plans, spans_of(tracer)


def graph_case(label: str, query, stats, dp=True, pareto=True) -> None:
    wrappers, core = peel_wrappers(query)
    if dp:
        plan, plans, spans = traced(lambda b: dp_join_order(core, stats, budget=b))
        emit(f"{label} dp", [mask(repr(plan)), plans, spans])
    if pareto:
        interesting = interesting_orders(core, wrappers, ())
        eq = equality_classes(core)
        frontier, plans, spans = traced(
            lambda b: pareto_frontier(core, stats, interesting, budget=b, eq=eq)
        )
        entries = sorted((repr(o), c, mask(repr(p))) for o, (c, p) in frontier.items())
        emit(f"{label} pareto", [entries, plans, spans])
    plan, plans, spans = traced(
        lambda b: partitioned_dp_join_order(core, stats, budget=b)
    )
    emit(f"{label} partitioned", [mask(repr(plan)), plans, spans])


def session_cases() -> None:
    import datagen
    import workloads as wl
    from repro.runtime.session import QuerySession
    from repro.sql import parse_statements, translate

    for scale in (1, 10, 60):
        db = wl.build_database(datagen.generate_tables(scale, 1))
        session = QuerySession(db, stats=Statistics.from_database(db), executor="vector")
        session.run_sql(datagen.VIEWS_SQL)
        for cls in datagen.QUERY_CLASSES:
            text = datagen.render(cls, 0)
            translation = translate(parse_statements(text)[0], session.catalog)
            (optimized, level, reason), plans, spans = traced(
                lambda b: session.plan(
                    translation.expr, b, required_order=translation.order_by
                )
            )
            emit(
                f"session scale={scale} {cls.name}",
                [
                    level.name,
                    reason,
                    mask(repr(optimized.best)),
                    optimized.best_cost,
                    optimized.plans_considered,
                    plans,
                    spans,
                ],
            )


def main() -> None:
    t0 = time.perf_counter()
    session_cases()
    for seed in (1, 2, 3):
        for n in range(3, 13):
            graph_case(f"chain n={n} seed={seed}", chain_query(n), chain_stats(n, seed))
        for n in range(3, 10):
            graph_case(f"star n={n} seed={seed}", star_query(n), star_stats(n, seed))
        for n in range(3, 11):
            graph_case(
                f"complex chain n={n} seed={seed}",
                chain_query(n, complex_every=2),
                chain_stats(n, seed),
            )
    # bench_x20_tiers.py's graphs: chain_query(n) under its chain_stats(n, 54)
    x20 = dict(seed=54, choices=(10, 100, 1000, 10000))
    graph_case("x20 n=20", chain_query(20), chain_stats(20, **x20))
    graph_case("x20 n=40", chain_query(40), chain_stats(40, **x20), dp=False, pareto=False)
    print(f"elapsed {time.perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
