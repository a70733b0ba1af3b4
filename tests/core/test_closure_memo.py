"""The memoized rewrite closure returns exactly the plain closure.

``enumerate_plans`` shares rule firings and deferral walks across plans
through per-subtree memo tables.  The reference below is the plain
algorithm -- every rule at every node of every admitted plan
(``iter_nodes`` + ``replace_at``) and every deferral site re-walked per
plan with ``defer_conjunct`` -- and the memoized closure must return
the identical list, in the identical order, with the identical cut.
"""

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.identities import ALL_IDENTITIES
from repro.core.pipeline import normalize
from repro.core.split import SplitError, defer_conjunct
from repro.core.transform import GS_FREE_RULES, LOCAL_RULES, enumerate_plans
from repro.expr import BaseRel, JoinKind
from repro.expr.nodes import Join
from repro.expr.predicates import conjuncts_of, eq
from repro.expr.rewrite import iter_nodes, replace_at, with_children
from repro.optimizer.planner import peel_wrappers
from repro.runtime.tracing import Tracer, span, trace_scope
from repro.sql import SqlCatalog, parse_select, parse_statements, translate
from repro.workloads.supplier import supplier_query
from repro.workloads.topologies import chain_query, star_query
from tests.hypergraph.test_hypergraph import q4_expression
from tests.sql.test_fuzz import SqlFuzzer, make_catalog

L, F, I = JoinKind.LEFT, JoinKind.FULL, JoinKind.INNER


def reference_closure(seed, max_plans=20000, with_gs=True):
    rules = LOCAL_RULES if with_gs else GS_FREE_RULES
    seen = {seed: None}
    frontier = [seed]
    while frontier:
        expr = frontier.pop()
        variants = [
            replace_at(expr, path, new)
            for path, node in iter_nodes(expr)
            for rule in rules
            for new in rule(node)
        ]
        if with_gs:
            variants += reference_deferrals(expr)
        for variant in variants:
            if variant not in seen:
                if len(seen) >= max_plans:
                    return list(seen)
                seen[variant] = None
                frontier.append(variant)
    return list(seen)


def reference_deferrals(expr):
    wrappers, core = [], expr
    while not isinstance(core, Join) and len(core.children()) == 1:
        wrappers.append(core)
        core = core.children()[0]
    if not isinstance(core, Join):
        return []
    out = []
    for path, node in iter_nodes(core):
        atoms = conjuncts_of(node.predicate) if isinstance(node, Join) else []
        for atom in atoms if len(atoms) >= 2 else ():
            try:
                rebuilt = defer_conjunct(core, path, atom).expr
            except SplitError:
                continue
            for wrapper in reversed(wrappers):
                rebuilt = with_children(wrapper, (rebuilt,))
            out.append(rebuilt)
    return out


def x7_chain(n):
    kinds = tuple(L if i == 0 else I for i in range(n - 1))
    return chain_query(n, kinds=kinds, complex_every=3)


# -- SQL cores of the end-to-end benchmark's closure classes -------------

_CHAIN = {f"t{i}": ("k", "a", "b", "v") for i in range(1, 6)}
_TPCH = {
    "customer": ("c_key", "c_name", "c_nation", "c_segment"),
    "orders": ("o_key", "o_custkey", "o_status", "o_total"),
    "lineitem": ("l_key", "l_orderkey", "l_suppkey", "l_qty", "l_price"),
}
_VIEW = (
    "create view order_lines as select l_orderkey as okey, "
    "count(*) as nlines from lineitem group by l_orderkey"
)


def _chain_from(kinds, extra):
    text = "t1"
    for i in range(2, len(kinds) + 2):
        on = f"t{i - 1}.b = t{i}.a" + (f" and {extra[i]}" if i in extra else "")
        text = f"({text} {kinds[i - 2]} t{i} on {on})"
    return text


E2E_SHAPES = {
    "chain4_loj_complex": "select t1.k, t4.k from "
    + _chain_from(("left outer join",) * 3, {3: "t1.v < t3.v"})
    + " where t1.v >= 3",
    "chain5_mixed_complex": "select t1.k, t3.k, t5.k from "
    + _chain_from(
        ("join", "full outer join", "left outer join", "left outer join"),
        {4: "t2.v < t4.v + 2"},
    ),
    "foj3_complex": "select t1.k, t3.k from "
    + _chain_from(("full outer join",) * 2, {3: "t1.v < t3.v + 1"}),
    "segment_lines_complex": "select c.c_name, l.l_qty from (customer c "
    "left outer join orders o on c.c_key = o.o_custkey) left outer join "
    "lineitem l on o.o_key = l.l_orderkey and c.c_nation < l.l_qty",
    "agg_view_loj": "select c.c_name, order_lines.nlines from (customer c "
    "join orders o on c.c_key = o.o_custkey) left outer join order_lines "
    "on o.o_key = order_lines.okey and c.c_nation < 2 * order_lines.nlines "
    "where o.o_total > 5",
}


def sql_core(text, catalog):
    return peel_wrappers(normalize(translate(parse_select(text), catalog).expr))[1]


def e2e_catalog():
    catalog = SqlCatalog({**_CHAIN, **_TPCH})
    catalog.add_view(parse_statements(_VIEW)[0])
    return catalog


SEEDS = {
    "q4": q4_expression(),
    "supplier_core": peel_wrappers(normalize(supplier_query()))[1],
    "x7_n4": x7_chain(4),
    "x7_n5": x7_chain(5),
    "loj_chain_complex2": chain_query(5, kinds=(L, L, I, L), complex_every=2),
    "foj_chain_complex": chain_query(4, kinds=(F, I, F), complex_every=3),
    "star_mixed": star_query(4, kinds=(L, F, I, L)),
    "star_left": star_query(3, kinds=(L, L, I)),
}


class TestSameListSameOrder:
    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_paper_and_topology_seeds(self, name):
        seed = SEEDS[name]
        assert enumerate_plans(seed, max_plans=3000) == reference_closure(
            seed, max_plans=3000
        )

    @pytest.mark.parametrize("name", sorted(E2E_SHAPES))
    def test_e2e_class_cores(self, name):
        core = sql_core(E2E_SHAPES[name], e2e_catalog())
        got = enumerate_plans(core, max_plans=5000)
        assert len(got) > 1
        assert got == reference_closure(core, max_plans=5000)

    @pytest.mark.parametrize("name", ["q4", "x7_n5", "star_mixed"])
    def test_without_gs(self, name):
        seed = SEEDS[name]
        assert enumerate_plans(seed, with_gs=False) == reference_closure(
            seed, with_gs=False
        )

    @pytest.mark.parametrize("cut", [1, 2, 57, 150])
    def test_cut_is_the_same_prefix(self, cut):
        seed = SEEDS["x7_n5"]
        whole = enumerate_plans(seed)
        got = enumerate_plans(seed, max_plans=cut)
        assert got == whole[:cut] == reference_closure(seed, max_plans=cut)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_fuzzed_sql_cores(self, seed):
        sql = SqlFuzzer(random.Random(seed)).statement()
        core = sql_core(sql, make_catalog())
        for with_gs in (True, False):
            got = enumerate_plans(core, max_plans=400, with_gs=with_gs)
            want = reference_closure(core, max_plans=400, with_gs=with_gs)
            assert got == want, sql


class TestDeferralStep:
    R = [BaseRel(f"r{i}", (f"r{i}_a0", f"r{i}_a1")) for i in range(1, 5)]
    P12, P12B = eq("r1_a0", "r2_a0"), eq("r1_a1", "r2_a1")
    P13, P23 = eq("r1_a1", "r3_a1"), eq("r2_a1", "r3_a0")
    P23B, P24 = eq("r2_a0", "r3_a1"), eq("r2_a1", "r4_a0")

    def identity_cases(self):
        r1, r2, r3, r4 = self.R
        p12, p13, p23, p23b, p24 = self.P12, self.P13, self.P23, self.P23B, self.P24
        yield (), ALL_IDENTITIES[1](r1, r2, self.P12B, p12)
        yield (), ALL_IDENTITIES[2](r1, r2, self.P12B, p12)
        for kind in (I, L, JoinKind.RIGHT, F):
            yield (), ALL_IDENTITIES[3](r1, r2, r3, kind, p12, p13, p23)
        for kind in (I, L, F):
            yield (), ALL_IDENTITIES[4](r1, r2, r3, kind, p12, p13, p23)
        for number in (5, 6, 7):
            yield (1,), ALL_IDENTITIES[number](r1, r2, r3, p12, p23, p23b)
        yield (1, 0), ALL_IDENTITIES[8](r1, r2, r3, r4, p12, p23, p23b, p24)

    def test_defer_conjunct_reproduces_identities_1_to_8(self):
        for path, (lhs, rhs) in self.identity_cases():
            result = defer_conjunct(lhs, path, rhs.predicate)
            assert result.expr.child == rhs.child
            assert sorted(p.name for p in result.expr.preserved) == sorted(
                p.name for p in rhs.preserved
            )
            owners = rhs.child.attr_owners
            assert set(result.groups) == {
                frozenset().union(*(owners[a] for a in p.real))
                for p in rhs.preserved
            }


def test_two_threads_enumerate_equal_lists():
    seed = SEEDS["x7_n5"]
    out = [None, None]

    def run(slot):
        out[slot] = enumerate_plans(seed)

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert out[0] == out[1] == enumerate_plans(seed)


@pytest.mark.parametrize("n, cut", [(6, True), (4, False)])
def test_cut_closure_is_visible_on_its_span(n, cut):
    tracer = Tracer()
    with trace_scope(tracer):
        with span("pipeline.enumerate") as sp:
            plans = enumerate_plans(x7_chain(n), max_plans=6000)
    assert (len(plans) == 6000) is cut
    assert sp.counters.get("closure_truncated") == (1 if cut else None)
