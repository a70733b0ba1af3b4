"""The traced run: span-attributed replay plus layer probes.

Never mixed with the end-to-end numbers: ``--trace 1`` is its own
invocation.  It

1. sets the workload up once, warms it, and replays two untraced
   passes (the per-class baseline, ``query.<class>_ms``);
2. replays two passes with :class:`spans.Recorder` wrappers installed on
   the public functions at each layer boundary (``PATCHES``), in the
   order ``run_sql`` / ``optimize`` call them.  Worker threads and
   worker processes are opaque from outside, so for the two service
   workloads the staged spans come from a bare in-process session
   replaying the same list, and the service itself is one span;
3. runs the layer probes: direct timings of public functions that are
   not on the request path (or not separable on it).

A probe whose function no longer imports reports ``None`` with the
reason; the run goes on.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import sys
import time

import datagen
import stats as est
import workloads as wl
from spans import Patches, Recorder, self_times

#: (module, attribute, span name, wrap options).  The span name's
#: prefix is the layer its self time is booked to.
PATCHES = (
    ("repro.sql", "parse_statements", "sql.parse", {}),
    ("repro.sql", "translate", "sql.translate", {}),
    ("repro.runtime.session", "optimize", "optimizer.optimize", {}),
    ("repro.runtime.session", "partitioned_reorder", "optimizer.tier_partitioned", {}),
    ("repro.runtime.session", "goo_reorder", "optimizer.tier_goo", {}),
    ("repro.runtime.session", "greedy_reorder", "optimizer.tier_greedy", {}),
    ("repro.optimizer.planner", "reorder_pipeline", "core.pipeline", {}),
    ("repro.core.pipeline", "simplify_outer_joins", "core.normalize", {}),
    ("repro.core.pipeline", "pull_up_aggregations", "core.normalize", {}),
    ("repro.core.pipeline", "enumerate_plans", "core.enumerate", {"count": len}),
    ("repro.optimizer.dp", "hypergraph_of", "hypergraph.build", {}),
    ("repro.optimizer.tiers", "hypergraph_of", "hypergraph.build", {}),
    ("repro.optimizer.cost", "CostModel.cost", "optimizer.cost", {"outermost_only": True}),
    ("repro.optimizer.orders", "order_aware_reorder", "optimizer.order_pass", {}),
    ("repro.runtime.session", "_EXECUTORS.vector", "exec.vector", {"count": len}),
)

LAYERS = ("sql", "core", "hypergraph", "optimizer", "exec", "runtime")

#: classes the row-at-a-time engines are probed on (the 14-way chain
#: and the closure-heavy class add seconds and no information there)
REDUCED = tuple(
    c.name
    for c in datagen.QUERY_CLASSES
    if c.name not in ("chain14_inner", "chain5_mixed_complex")
)
PROBE_SCALE = 10


# -- traced replay ---------------------------------------------------------


def _staged_system(db, tables, recorder: Recorder) -> wl.System:
    """A bare in-process session whose own front-door methods are spans
    too.  Built after ``PATCHES`` are installed, so the session binds
    the wrapped ``optimize``."""
    system = wl.System("session", db, tables, clients=1)
    session = system.session
    session.run = recorder.wrap(session.run, "runtime.session_run")
    cache = session.plan_cache
    # start from a full cache, so evictions per pass read their steady
    # state (one per store) instead of how far the warm-up got: fillers
    # under versions nothing plans with, oldest in LRU order
    from repro.sql import parse_statements, translate

    text = datagen.render(datagen.CLASS_BY_NAME["nation_flow"], 0)
    query = translate(parse_statements(text)[0], session.catalog).expr
    optimized = session.plan(query)[0]
    for i in range(cache.max_entries):
        cache.store(query, ("e2e-filler", i), optimized)
    cache.lookup = recorder.wrap(cache.lookup, "runtime.plan_cache_lookup")
    cache.store = recorder.wrap(cache.store, "runtime.plan_cache_store")
    return system


class _Totals:
    """Self time (s), work counts and calls by span name, and self time
    by layer, over the spans whose root span is named ``root``."""

    def __init__(self, spans, root: str) -> None:
        self.by_name: dict[str, float] = {}
        self.by_layer: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        roots: list[int] = []  # parents precede their children
        for index, row in enumerate(spans):
            roots.append(index if row[3] is None else roots[row[3]])
        for row, own, top in zip(spans, self_times(spans), roots):
            if spans[top][0] != root:
                continue
            name = row[0]
            layer = name.split(".", 1)[0]
            self.by_name[name] = self.by_name.get(name, 0.0) + own
            self.by_layer[layer] = self.by_layer.get(layer, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            if row[5] is not None:
                self.counts[name] = self.counts.get(name, 0) + row[5]


def run_traced(workload, seed: int, quick: bool) -> dict:
    inputs = wl.prepare(workload, seed, quick)
    tables, db, requests, oracle = (
        inputs.tables, inputs.db, inputs.requests, inputs.oracle
    )
    tally = wl.Tally()
    metrics: dict[str, float | None] = {
        "bench.datagen_s": inputs.datagen_s,
        "bench.oracle_s": inputs.oracle_s,
    }
    recorder = Recorder()
    patches = Patches(recorder, PATCHES)
    repeats = 1 if quick else 2
    service = workload.door != "session"
    baseline, bare, traced, calib = [], [], [], []
    system, _ = wl.timed_setup(workload, inputs)
    try:
        tally.add(wl.run_pass(system, requests, oracle.same_bag))  # warm + full check
        with patches:
            staged = _staged_system(db, tables, recorder)
            # fill the fresh session's cache; full check under the wrappers
            tally.add(wl.run_pass(staged, requests, oracle.same_bag))
        evictions = -staged.session.plan_cache.evictions
        mark = len(recorder.rows)
        # untraced and traced passes take turns, so a slow minute on the
        # host lands on both sides of the comparison
        for _ in range(repeats):
            gc.collect()
            facts = _Facts(system)
            baseline.append(
                tally.add(wl.run_pass(system, requests, oracle.same_size, facts))
            )
            calib.append(est.calibration_ms())
            with patches:
                bare.append(_traced_pass(staged, "runtime.run_sql", inputs, recorder, tally))
                if service:
                    traced.append(_traced_pass(system, "runtime.client", inputs, recorder, tally))
        evictions += staged.session.plan_cache.evictions
    finally:
        system.close()
    metrics["bench.calib_ms"] = statistics.median(calib)
    metrics.update(facts.metrics())
    metrics["runtime.plan_cache_evictions"] = evictions // repeats
    notes = {f"patch:{target}": reason for target, reason in patches.missing.items()}

    spans = _slice(recorder, mark)
    totals = _Totals(spans, "runtime.run_sql")
    metrics.update(_span_metrics(totals, repeats * len(requests)))
    if not service:
        # the workload's path *is* the in-process session
        traced, bare = bare, None
    staged_sum = _class_root_ms(
        spans, requests, "runtime.client" if service else "runtime.run_sql"
    )
    report = _attribution_report(
        workload, requests, baseline, traced, bare, staged_sum, totals.by_layer
    )
    for cls, row in report["classes"].items():
        metrics[f"query.{cls}_ms"] = row["untraced_ms"]
    metrics["bench.trace_overhead_pct"] = report["trace_overhead_pct"]

    # 3. probes: the workload's own tables where set-up pays for them,
    # mid-size tables (the same for every workload) for the rest
    if workload.scale == PROBE_SCALE:
        probe_tables, probe_db = tables, db
    else:
        probe_tables = datagen.generate_tables(PROBE_SCALE, seed)
        probe_db = wl.build_database(probe_tables)
    run_probes(PROBES, ProbeContext(db, probe_db, probe_tables, seed), metrics, notes)

    _print_report(workload, report)
    return {
        "recorder": recorder,
        "metrics": metrics,
        "samples": {},
        "notes": notes,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "passes": len(baseline),
        "requests_per_pass": len(requests),
        "bench": {"report": report},
    }


def _traced_pass(system, root: str, inputs, recorder, tally):
    """One pass with every request under a ``root`` span."""

    def answer(index: int, request):
        recorder.set_request(index)
        with recorder.span(root):
            return system.answer(request.sql)

    gc.collect()
    return tally.add(
        wl.run_pass(system, inputs.requests, inputs.oracle.same_size, answer)
    )


class _Facts:
    """An ``answer_fn`` that also notes what the program says about each
    of its own results (answers are not held, so this is the moment)."""

    def __init__(self, system) -> None:
        self.system = system
        self.rows: list[tuple] = []

    def __call__(self, index: int, request):
        answer = self.system.answer(request.sql)
        result = getattr(answer.result, "session", answer.result)  # ServiceResult wraps one
        self.rows.append(
            (
                bool(result.plan_cache.get("hit")),
                bool(result.degradation_reason),
                len(answer.relation),
                result.plans_considered,
            )
        )
        return answer

    def metrics(self) -> dict[str, float]:
        n = len(self.rows)
        return {
            "runtime.plan_cache_hit_ratio": sum(hit for hit, _, _, _ in self.rows) / n,
            "runtime.degraded_share": sum(low for _, low, _, _ in self.rows) / n,
            "exec.rows_out": sum(rows for _, _, rows, _ in self.rows),
            "core.plans_enumerated": sum(
                plans for hit, _, _, plans in self.rows if not hit
            ),
        }


def _span_metrics(totals: _Totals, n_requests: int) -> dict[str, float | None]:
    """Per-request self time of each staged layer, and its unit costs."""
    by_name = totals.by_name

    def per_request_ms(*names: str) -> float:
        return sum(by_name.get(k, 0.0) for k in names) * 1000.0 / n_requests

    def unit_cost_us(name: str, units: int) -> float | None:
        return by_name.get(name, 0.0) * 1e6 / units if units else None

    exec_s = by_name.get("exec.vector", 0.0)
    return {
        "sql.parse_ms": per_request_ms("sql.parse"),
        "sql.translate_ms": per_request_ms("sql.translate"),
        "core.normalize_ms": per_request_ms("core.normalize"),
        "core.enumerate_ms": per_request_ms("core.enumerate", "core.pipeline"),
        "core.enumerate_us_per_plan": unit_cost_us(
            "core.enumerate", totals.counts.get("core.enumerate", 0)
        ),
        "optimizer.cost_ms": per_request_ms("optimizer.cost"),
        "optimizer.cost_us_per_plan": unit_cost_us(
            "optimizer.cost", totals.calls.get("optimizer.cost", 0)
        ),
        "optimizer.order_pass_ms": per_request_ms("optimizer.order_pass"),
        "exec.vector_ms": per_request_ms("exec.vector"),
        "exec.vector_rows_per_s": (
            totals.counts.get("exec.vector", 0) / exec_s if exec_s else None
        ),
        "runtime.session_self_ms": per_request_ms(
            "runtime.run_sql", "runtime.session_run"
        ),
    }


def _attribution_report(workload, requests, baseline, traced, bare, staged_sum, by_layer):
    """Layer shares, and per class whether the staged sum explains the
    untraced latency (within 15 %, else ``unattributed``)."""
    untraced = _best_class_ms(baseline, requests)
    traced_ms = _best_class_ms(traced, requests)
    report = {
        "layer_share": _shares(by_layer),
        "classes": {},
        "unattributed": [],
        "trace_overhead_pct": (
            est.geomean(list(traced_ms.values()))
            / est.geomean(list(untraced.values()))
            - 1.0
        ) * 100.0,
    }
    for cls, base_ms in untraced.items():
        gap = staged_sum[cls] / base_ms - 1.0
        report["classes"][cls] = {
            "untraced_ms": base_ms,
            "traced_ms": traced_ms[cls],
            "staged_sum_ms": staged_sum[cls],
            "gap": gap,
        }
        if abs(gap) > 0.15:
            report["unattributed"].append(cls)
    if bare is not None:
        bare_ms = _best_class_ms(bare, requests)
        weights = workload.weights
        report["outside_bare_session_share"] = 1.0 - sum(
            bare_ms[c] * weights[c] for c in bare_ms
        ) / sum(traced_ms[c] * weights[c] for c in traced_ms)
    return report


def run_probes(probes, context, metrics: dict, notes: dict) -> None:
    """Run each probe; one that raises (its function no longer imports,
    the host lacks shared memory) reports ``None`` with the reason and
    the run goes on."""
    for probe_fn in probes:
        try:
            metrics.update(probe_fn(context))
        except Exception as exc:
            for name in probe_fn.metrics:
                metrics[name] = None
                notes[name] = f"{type(exc).__name__}: {exc}"


def _slice(recorder: Recorder, mark: int) -> list[list]:
    """The spans recorded since ``mark``, parent ids made slice-relative.

    Every slice starts at a pass boundary, so no span in it has a
    parent before ``mark``.
    """
    return [
        [row[0], row[1], row[2], None if row[3] is None else row[3] - mark, row[4], row[5]]
        for row in recorder.rows[mark:]
    ]


def _best_class_ms(passes, requests) -> dict[str, float]:
    """Per class, the best pass's median latency (as the end-to-end
    run takes the best pass)."""
    per_pass = [wl.class_medians(p, requests) for p in passes]
    return {cls: min(p[cls] for p in per_pass) for cls in per_pass[0]}


def _class_root_ms(spans, requests, root: str) -> dict[str, float]:
    """Per class, the staged sum: all self times under one request's
    root span add up to the root's duration.  Median over a pass's
    requests, best over the passes, as for the untraced side."""
    n = len(requests)
    seen: dict[int, int] = {}  # request index -> how many passes so far
    per_pass: list[dict[str, list[float]]] = []
    for row in spans:
        if row[3] is None and row[0] == root and row[2] is not None:
            turn = seen[row[4]] = seen.get(row[4], -1) + 1
            if turn == len(per_pass):
                per_pass.append({})
            per_pass[turn].setdefault(requests[row[4]].cls, []).append(
                (row[2] - row[1]) * 1000.0
            )
    return {
        cls: min(statistics.median(p[cls]) for p in per_pass)
        for cls in per_pass[0]
    }


def _shares(by_layer: dict[str, float]) -> dict[str, float]:
    total = sum(by_layer.values())
    return {layer: by_layer.get(layer, 0.0) / total for layer in LAYERS}


def _print_report(workload, report) -> None:
    file = sys.stderr
    shares = ", ".join(f"{k} {v:.1%}" for k, v in report["layer_share"].items())
    print(f"-- {workload.name}: in-process request time by layer: {shares}", file=file)
    if "outside_bare_session_share" in report:
        print(
            f"-- {workload.name}: share of request time outside the bare "
            f"session: {report['outside_bare_session_share']:.1%}",
            file=file,
        )
    for cls, row in report["classes"].items():
        flag = "  unattributed" if cls in report["unattributed"] else ""
        print(
            f"   {cls:24s} untraced {row['untraced_ms']:8.3f} ms  "
            f"staged sum {row['staged_sum_ms']:8.3f} ms  gap {row['gap']:+.1%}{flag}",
            file=file,
        )


# -- probes ------------------------------------------------------------------


class ProbeContext:
    """Inputs the probes share, built lazily and once."""

    def __init__(self, db, probe_db, probe_tables, seed: int) -> None:
        self.db = db  # the workload's own tables
        self.probe_db = probe_db  # mid-size tables, the same for every workload
        self.probe_tables = probe_tables
        self.seed = seed
        self._planned = None

    def planned(self):
        """``(planned, stats, session)``: a bare session over the probe
        tables and, per class, what it made of the query --
        ``planned[class] = (as-written expr, chosen plan, result)``."""
        if self._planned is None:
            session = wl.System(
                "session", self.probe_db, self.probe_tables, clients=1
            ).session
            planned = {}
            for cls in datagen.QUERY_CLASSES:
                outcome = session.run_sql(datagen.render(cls, 0))[-1]
                planned[cls.name] = (
                    outcome.translation.expr,
                    outcome.result.chosen,
                    outcome.result,
                )
            self._planned = (planned, session.stats, session)
        return self._planned


def probe(*names):
    def mark(fn):
        fn.metrics = names
        return fn

    return mark


def _best_ms(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


@probe("optimizer.stats_scan_ms")
def probe_stats_scan(ctx):
    from repro.optimizer import Statistics

    return {"optimizer.stats_scan_ms": _best_ms(lambda: Statistics.from_database(ctx.db))}


@probe("hypergraph.build_ms", "hypergraph.conflicts_ms")
def probe_hypergraph(ctx):
    """Definition 3.1 / 3.3 over every class's join skeleton.  Today the
    session path only reaches the hypergraph through the DP tiers, so
    this is timed directly: build, then ``pres``/``ccoj``/``conf`` over
    all edges (classes whose graph is not simple are skipped there)."""
    from repro.hypergraph import HypergraphError, ccoj, conf, hypergraph_of, pres

    planned, _, _ = ctx.planned()
    queries = [expr for expr, _, _ in planned.values()]

    def build():
        return [hypergraph_of(query) for query in queries]

    def conflicts():
        for graph in build():  # fresh graphs: the analyses memoize per graph
            try:
                for edge in graph.edges:
                    if edge.directed:
                        pres(graph, edge)
                    elif edge.undirected:
                        ccoj(graph, edge)
                    conf(graph, edge)
            except HypergraphError:
                continue

    build_ms = _best_ms(build)
    return {
        "hypergraph.build_ms": build_ms,
        "hypergraph.conflicts_ms": max(0.0, _best_ms(conflicts) - build_ms),
    }


@probe("relalg.columnar_build_ms")
def probe_columnar(ctx):
    from repro.relalg import Relation
    from repro.relalg.columnar import ColumnarRelation

    def build():
        for name in ctx.db.names():
            source = ctx.db[name]
            # a fresh Relation object, so the memoized transpose misses
            ColumnarRelation.from_relation(
                Relation(source.real, source.virtual, source.rows)
            )

    return {"relalg.columnar_build_ms": _best_ms(build)}


@probe("relalg.pages_build_ms", "relalg.pages_attach_ms", "relalg.pages_bytes")
def probe_pages(ctx):
    from repro.relalg.pages import PageRegistry, attach_page, pages_supported

    if not pages_supported():
        raise RuntimeError("shared-memory pages unsupported on this host")
    t0 = time.perf_counter()
    registry = PageRegistry.build(ctx.db)
    build_ms = (time.perf_counter() - t0) * 1000.0
    try:
        t0 = time.perf_counter()
        pages = [attach_page(handle) for handle in registry.handles.values()]
        for page in pages:
            page.columnar()
        attach_ms = (time.perf_counter() - t0) * 1000.0
        for page in pages:
            page.close()
        return {
            "relalg.pages_build_ms": build_ms,
            "relalg.pages_attach_ms": attach_ms,
            "relalg.pages_bytes": registry.nbytes,
        }
    finally:
        registry.close()


@probe("relalg.result_pickle_ms", "relalg.result_pickle_bytes")
def probe_result_pickle(ctx):
    planned, _, _ = ctx.planned()
    results = [result for _, _, result in planned.values()]
    size = 0

    def round_trip():
        nonlocal size
        size = 0
        for result in results:
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            size += len(blob)
            pickle.loads(blob)

    ms = _best_ms(round_trip)
    return {"relalg.result_pickle_ms": ms, "relalg.result_pickle_bytes": size}


@probe("runtime.fingerprint_us", "runtime.plan_cache_hit_us", "runtime.plan_cache_store_us")
def probe_plan_cache(ctx):
    from repro.runtime.plan_cache import PlanCache, query_fingerprint

    planned, stats, session = ctx.planned()
    queries = [expr for expr, _, _ in planned.values()]
    optimized = session.plan(queries[0])[0]
    cache = PlanCache()
    rounds = 20
    calls = rounds * len(queries)

    def timed_us(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for query in queries:
                fn(query)
        return (time.perf_counter() - t0) * 1e6 / calls

    fingerprint_us = timed_us(query_fingerprint)
    store_us = timed_us(lambda q: cache.store(q, stats.version, optimized))
    hit_us = timed_us(lambda q: cache.lookup(q, stats.version))
    if cache.hits != calls:
        raise RuntimeError(f"expected {calls} hits, saw {cache.hits}")
    return {
        "runtime.fingerprint_us": fingerprint_us,
        "runtime.plan_cache_hit_us": hit_us,
        "runtime.plan_cache_store_us": store_us,
    }


@probe("optimizer.plan_gain_x", "optimizer.qerror_median", "optimizer.qerror_max")
def probe_plan_quality(ctx):
    from repro.exec import execute_vector
    from repro.optimizer.cost import CostModel

    planned, stats, _ = ctx.planned()
    model = CostModel(stats)
    gains, qerrors = [], []
    for written, chosen, result in planned.values():
        as_written = _best_ms(lambda: execute_vector(written, ctx.probe_db))
        optimized = _best_ms(lambda: execute_vector(chosen, ctx.probe_db))
        gains.append(as_written / optimized)
        estimate = max(1.0, model.estimate(chosen).rows)
        actual = max(1.0, float(len(result.relation)))
        qerrors.append(max(estimate / actual, actual / estimate))
    return {
        "optimizer.plan_gain_x": est.geomean(gains),
        "optimizer.qerror_median": statistics.median(qerrors),
        "optimizer.qerror_max": max(qerrors),
    }


@probe("exec.hash_ms")
def probe_hash_engine(ctx):
    from repro.exec import execute

    planned, _, _ = ctx.planned()
    plans = [planned[name][1] for name in REDUCED]
    return {"exec.hash_ms": _best_ms(lambda: [execute(p, ctx.probe_db) for p in plans], 2)}


@probe("physical.compile_ms", "physical.run_ms")
def probe_physical(ctx):
    from repro.physical import compile_plan, run_plan

    planned, _, _ = ctx.planned()
    plans = [planned[name][1] for name in REDUCED]
    compiled = []

    def compile_all():
        compiled[:] = [compile_plan(p) for p in plans]

    compile_ms = _best_ms(compile_all)
    run_ms = _best_ms(lambda: [run_plan(p, ctx.probe_db) for p in compiled], 2)
    return {"physical.compile_ms": compile_ms, "physical.run_ms": run_ms}


@probe("expr.reference_ms")
def probe_reference(ctx):
    """The oracle interpreter on the paper-size tables, every class as written."""
    from repro.expr import evaluate
    from repro.sql import parse_statements, translate

    tables = datagen.generate_tables(1, ctx.seed)
    db = wl.build_database(tables)
    catalog = wl.System("session", db, tables, clients=1).session.catalog
    queries = [
        translate(parse_statements(datagen.render(cls, 0))[0], catalog).expr
        for cls in datagen.QUERY_CLASSES
    ]
    return {"expr.reference_ms": _best_ms(lambda: [evaluate(q, db) for q in queries], 2)}


@probe("runtime.tracer_overhead_pct")
def probe_tracer(ctx):
    """The program's own tracer on vs off, same session, same list."""
    from repro.runtime.tracing import Tracer, trace_scope

    _, _, session = ctx.planned()
    texts = [datagen.render(datagen.CLASS_BY_NAME[name], 0) for name in REDUCED] * 3

    def replay(tracer):
        t0 = time.perf_counter()
        with trace_scope(tracer):
            for text in texts:
                session.run_sql(text)
        return time.perf_counter() - t0

    replay(None)
    off, on = [], []
    for _ in range(3):
        off.append(replay(None))
        on.append(replay(Tracer()))
    return {
        "runtime.tracer_overhead_pct": (
            statistics.median(on) / statistics.median(off) - 1.0
        ) * 100.0
    }


@probe(
    "runtime.queue_wait_ms",
    "runtime.service_overhead_ms",
    "runtime.procpool_overhead_ms",
    "runtime.procpool_spawn_s",
)
def probe_service(ctx):
    """One closed-loop client, the same list three ways: bare session,
    thread service, process service."""
    requests = [
        datagen.Request(cls.name, datagen.render(cls, 0))
        for cls in datagen.QUERY_CLASSES
        if cls.name in REDUCED
    ] * 5

    def one_client(door):
        t0 = time.perf_counter()
        system = wl.System(door, ctx.probe_db, ctx.probe_tables, clients=1)
        try:
            # workers start in the background: "spawned" means answering
            system.answer(datagen.render(datagen.CLASS_BY_NAME["orderby_groupby"], 0))
            built_s = time.perf_counter() - t0
            unchecked = lambda request, answer: None  # noqa: E731
            wl.run_pass(system, requests[: len(REDUCED)], unchecked)  # warm
            queue_ms = []

            def answer(index, request):
                out = system.answer(request.sql)
                queue_ms.append(getattr(out.result, "queue_ms", 0.0))
                return out

            result = wl.run_pass(system, requests, unchecked, answer)
        finally:
            system.close()
        if result.failures:
            raise RuntimeError(f"{door} service probe: {result.failures[0]}")
        return wl.class_medians(result, requests), statistics.mean(queue_ms), built_s

    bare, _, _ = one_client("session")
    thread, thread_queue_ms, thread_up_s = one_client("thread")
    process, _, process_up_s = one_client("process")
    classes = list(bare)
    return {
        "runtime.queue_wait_ms": thread_queue_ms,
        "runtime.service_overhead_ms": statistics.mean(
            thread[c] - bare[c] for c in classes
        ),
        "runtime.procpool_overhead_ms": statistics.mean(
            process[c] - thread[c] for c in classes
        ),
        "runtime.procpool_spawn_s": process_up_s - thread_up_s,
    }


PROBES = (
    probe_hypergraph,
    probe_stats_scan,
    probe_columnar,
    probe_pages,
    probe_result_pickle,
    probe_plan_cache,
    probe_plan_quality,
    probe_hash_engine,
    probe_physical,
    probe_reference,
    probe_tracer,
    probe_service,
)
