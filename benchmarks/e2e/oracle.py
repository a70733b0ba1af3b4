"""The independent oracle: every expected bag comes from stdlib sqlite3.

The generated tables are loaded into an in-memory SQLite database and
each distinct request text is run there once.  ``repro`` is never
asked what the right answer is.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

#: Join columns the oracle indexes so correlated subqueries and
#: outer joins over thousands of rows stay cheap on the SQLite side.
_INDEXED = {
    "orders": ("o_custkey",),
    "lineitem": ("l_orderkey", "l_suppkey"),
}


def expected_bags(
    tables: dict[str, tuple[tuple[str, ...], list[tuple]]],
    views_sql: str,
    sql_texts: list[str],
) -> dict[str, Counter]:
    """``{sql text: Counter(result tuples)}`` computed by SQLite."""
    conn = sqlite3.connect(":memory:")
    try:
        for name, (columns, rows) in tables.items():
            conn.execute(f"create table {name} ({', '.join(columns)})")
            marks = ",".join("?" * len(columns))
            conn.executemany(f"insert into {name} values ({marks})", rows)
            indexed = _INDEXED.get(name, ("a",) if name.startswith("t") else ())
            for column in indexed:
                conn.execute(f"create index ix_{name}_{column} on {name} ({column})")
        conn.executescript(views_sql)
        return {
            text: Counter(conn.execute(text).fetchall())
            for text in dict.fromkeys(sql_texts)
        }
    finally:
        conn.close()
