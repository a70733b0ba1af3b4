"""Seeded tables and SQL request lists for the end-to-end benchmark.

Everything the program under test sees comes from here: plain Python
rows and SQL text, both a pure function of ``(scale, seed)``.  Nothing
in this module imports ``repro`` -- the tables are handed to
``repro.relalg.Relation.base`` by the workload driver and to stdlib
``sqlite3`` by the oracle, from the same lists.

Row counts, join fan-outs and NULL counts are *quotas* (fixed
multisets shuffled by the seed), not draws: two seeds give tables of
identical sizes whose joins produce results of nearly identical sizes,
so the timing metrics do not move with ``--seed``.  Only which row
carries which value does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Chain tables ``t1..t14``: ``k`` unique, ``a`` joins to the previous
#: table's ``b``, ``v`` is the payload the complex predicates compare.
CHAIN_TABLES = 14
CHAIN_COLUMNS = ("k", "a", "b", "v")

TPCH_COLUMNS = {
    "customer": ("c_key", "c_name", "c_nation", "c_segment"),
    "orders": ("o_key", "o_custkey", "o_status", "o_total"),
    "lineitem": ("l_key", "l_orderkey", "l_suppkey", "l_qty", "l_price"),
    "supplier": ("s_key", "s_name", "s_nation"),
}

#: Views are registered once per session/catalog at set-up (a second
#: ``create view`` of the same name is a catalog error in ``repro`` and
#: in SQLite alike); requests are single SELECTs.
VIEWS_SQL = """
create view cust_orders as
  select c.c_key as ckey, c.c_nation as nation, count(o.o_key) as n
  from customer c left outer join orders o on c.c_key = o.o_custkey
  group by c.c_key, c.c_nation;
create view supp_volume as
  select l_suppkey as skey, count(*) as vol
  from lineitem
  group by l_suppkey;
create view order_lines as
  select l_orderkey as okey, count(*) as nlines
  from lineitem
  group by l_orderkey;
"""


@dataclass(frozen=True)
class QueryClass:
    """One query template; ``{k}`` is the per-request constant."""

    name: str
    sql: str
    #: constants ``k`` are drawn from ``range(k_base, k_base + n)`` -- a
    #: band narrow enough that the result size barely moves with ``k``.
    k_base: int = 0


def _chain(n: int, kinds: tuple[str, ...], extra: dict[int, str]) -> str:
    """FROM clause of a left-deep chain ``t1 .. tn``."""
    text = "t1"
    for i in range(2, n + 1):
        on = f"t{i - 1}.b = t{i}.a"
        if i in extra:
            on += f" and {extra[i]}"
        text = f"({text} {kinds[i - 2]} t{i} on {on})"
    return text


QUERY_CLASSES: tuple[QueryClass, ...] = (
    # -- TPC-H-lite: the production shapes the paper's intro motivates --
    QueryClass(
        # TPC-H Q13: GROUP BY over an outer-join view, re-aggregated
        "q13_distribution",
        "select n, count(*) as custdist from cust_orders "
        "where nation < {k} group by n",
        k_base=100,
    ),
    QueryClass(
        # outer join whose ON predicate references an aggregated column
        "supplier_volume",
        "select s.s_name, supp_volume.vol "
        "from supplier s left outer join supp_volume "
        "on s.s_key = supp_volume.skey and s.s_nation < 2 * supp_volume.vol "
        "where s.s_key < {k}",
        k_base=100000,
    ),
    QueryClass(
        # correlated COUNT subquery: the join-aggregate unnesting path
        "big_customers_nested",
        "select c_name from customer "
        "where c_nation < (select count(*) from orders "
        "where orders.o_custkey = customer.c_key and orders.o_total > {k})",
        k_base=0,
    ),
    QueryClass(
        # 4-way inner join with selective filters: pure join ordering
        "nation_flow",
        "select s.s_name, c.c_name "
        "from ((customer c join orders o on c.c_key = o.o_custkey) "
        "join lineitem l on o.o_key = l.l_orderkey) "
        "join supplier s on l.l_suppkey = s.s_key "
        "where c.c_segment = 'BUILDING' and s.s_nation = 0 and o.o_total > {k}",
        k_base=0,
    ),
    QueryClass(
        # outer-join chain with a complex (3-relation) ON predicate
        "segment_lines_complex",
        "select c.c_name, o.o_total, l.l_qty "
        "from (customer c left outer join orders o on c.c_key = o.o_custkey) "
        "left outer join lineitem l "
        "on o.o_key = l.l_orderkey and c.c_nation < l.l_qty "
        "where c.c_key < {k}",
        k_base=100000,
    ),
    # -- paper-shaped: the classes Section 1 says earlier work froze --
    QueryClass(
        # left-outer chain, one complex predicate: identities (1)-(8)
        "chain4_loj_complex",
        "select t1.k as k1, t2.k as k2, t3.k as k3, t4.k as k4 from "
        + _chain(
            4,
            ("left outer join",) * 3,
            {3: "t1.v < t3.v"},
        )
        + " where t1.v >= {k}",
        k_base=0,
    ),
    QueryClass(
        # inner+full+left mix with a complex predicate: the largest closure
        "chain5_mixed_complex",
        "select t1.k as k1, t3.k as k3, t5.k as k5 from "
        + _chain(
            5,
            ("join", "full outer join", "left outer join", "left outer join"),
            {4: "t2.v < t4.v + {k}"},
        ),
        k_base=0,
    ),
    QueryClass(
        # inner chain with filters: the no-outer-join baseline shape
        "chain5_inner_filter",
        "select t1.k as k1, t5.k as k5 from "
        + _chain(5, ("join",) * 4, {})
        + " where t1.v >= {k} and t5.v < 900",
        k_base=0,
    ),
    QueryClass(
        # full outer joins with a complex predicate (MGOJ territory)
        "foj3_complex",
        "select t1.k as k1, t2.k as k2, t3.k as k3 from "
        + _chain(
            3,
            ("full outer join", "full outer join"),
            {3: "t1.v < t3.v + {k}"},
        ),
        k_base=0,
    ),
    QueryClass(
        # Example 1.1: filtered join LOJ an aggregated view
        "agg_view_loj",
        "select c.c_name, o.o_key, order_lines.nlines "
        "from (customer c join orders o on c.c_key = o.o_custkey) "
        "left outer join order_lines "
        "on o.o_key = order_lines.okey and c.c_nation < 2 * order_lines.nlines "
        "where c.c_segment = 'BUILDING' and o.o_total > {k}",
        k_base=0,
    ),
    # -- extras: order-aware planning and the large-n tier ladder --
    QueryClass(
        # GROUP BY + ORDER BY: the order pass and streaming aggregate
        "orderby_groupby",
        "select o_custkey, count(*) as n, sum(o_total) as tot from orders "
        "where o_total > {k} group by o_custkey order by o_custkey",
        k_base=0,
    ),
    QueryClass(
        # 14 relations: past full DP, exercises the tier ladder
        "chain14_inner",
        "select t1.k as k1, t14.k as k14 from "
        + _chain(14, ("join",) * 13, {})
        + " where t1.v >= {k}",
        k_base=0,
    ),
)

CLASS_BY_NAME = {c.name: c for c in QUERY_CLASSES}


def _quota(rng: random.Random, pattern: tuple[int, ...], n: int) -> list[int]:
    """``n`` values cycling through ``pattern``, in seeded order."""
    values = [pattern[i % len(pattern)] for i in range(n)]
    rng.shuffle(values)
    return values


def _with_nulls(rng: random.Random, values: list, every: int) -> list:
    """Replace exactly ``len(values) // every`` entries with ``None``."""
    out = list(values)
    for index in rng.sample(range(len(out)), len(out) // every):
        out[index] = None
    return out


def generate_tables(scale: int, seed: int) -> dict[str, tuple[tuple[str, ...], list[tuple]]]:
    """``{table: (columns, rows)}`` at ``scale`` (1 = paper-size, tens of rows)."""
    rng = random.Random(f"e2e-tables-{scale}-{seed}")
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]] = {}

    customers = 20 * scale
    suppliers = max(8, 2 * scale)
    nations = 5
    segments = ("BUILDING", "MACHINERY", "AUTOMOBILE", "HOUSEHOLD")
    c_nation = _quota(rng, tuple(range(nations)), customers)
    c_segment = _quota(rng, segments, customers)
    tables["customer"] = (
        TPCH_COLUMNS["customer"],
        [(c, f"cust-{c}", c_nation[c], c_segment[c]) for c in range(customers)],
    )
    # a fifth of the customers place no orders (Q13's point)
    orders_of = _quota(rng, (0, 1, 1, 2, 2, 2, 3, 3, 0, 6), customers)
    order_rows = []
    for c in range(customers):
        for _ in range(orders_of[c]):
            order_rows.append((c, rng.choice("OFP"), rng.randint(10, 500)))
    rng.shuffle(order_rows)
    order_rows = [(i, *row) for i, row in enumerate(order_rows)]
    tables["orders"] = (TPCH_COLUMNS["orders"], order_rows)
    lines_of = _quota(rng, (0, 1, 1, 2, 2, 3, 3, 4), len(order_rows))
    l_supp = _quota(rng, tuple(range(suppliers)), sum(lines_of))
    line_rows = []
    for (okey, _, _, _), count in zip(order_rows, lines_of):
        for _ in range(count):
            line_rows.append(
                (okey, l_supp[len(line_rows)], rng.randint(1, 20), rng.randint(1, 100))
            )
    rng.shuffle(line_rows)
    tables["lineitem"] = (
        TPCH_COLUMNS["lineitem"],
        [(i, *row) for i, row in enumerate(line_rows)],
    )
    s_nation = _quota(rng, tuple(range(nations)), suppliers)
    tables["supplier"] = (
        TPCH_COLUMNS["supplier"],
        [(s, f"supp-{s}", s_nation[s]) for s in range(suppliers)],
    )

    # chain tables: t<i>.b = t<i+1>.a.  In t1..t5 each join key occurs
    # 0, 1 or 2 times in ``a`` (mean 1) and a twelfth of ``b`` is NULL,
    # so outer joins pad and inner joins lose and duplicate rows; from
    # t6 on both are permutations, so the 14-way chain keeps the
    # cardinality of its 5-way prefix instead of dying out.
    rows = 12 * scale
    for i in range(1, CHAIN_TABLES + 1):
        b_values = list(range(rows))
        rng.shuffle(b_values)
        if i <= 5:
            multiplicity = _quota(rng, (1, 0, 2, 1, 1), rows)
            a_values = [key for key, m in enumerate(multiplicity) for _ in range(m)]
            a_values = (a_values + list(range(rows)))[:rows]
            b_values = _with_nulls(rng, b_values, 12)
        else:
            a_values = list(range(rows))
        rng.shuffle(a_values)
        tables[f"t{i}"] = (
            CHAIN_COLUMNS,
            [
                (k, a_values[k], b_values[k], rng.randrange(1000))
                for k in range(rows)
            ],
        )
    return tables


@dataclass(frozen=True)
class Request:
    """One request of a pass: SQL text plus the class it belongs to."""

    cls: str
    sql: str


def render(cls: QueryClass, offset: int) -> str:
    return cls.sql.format(k=cls.k_base + offset)


def request_list(
    seed: int,
    weights: dict[str, int],
    distinct_constants: bool,
) -> list[Request]:
    """The fixed request list one pass replays.

    ``weights[name]`` requests of each class, interleaved by a seeded
    shuffle.  With ``distinct_constants`` every request of a class gets
    its own constant (so no two requests share a plan-cache key);
    otherwise all use offset 0 (so every repeat is a cache hit).
    """
    rng = random.Random(f"e2e-requests-{seed}")
    requests: list[Request] = []
    for name, count in weights.items():
        cls = CLASS_BY_NAME[name]
        for j in range(count):
            requests.append(
                Request(name, render(cls, j if distinct_constants else 0))
            )
    rng.shuffle(requests)
    return requests
