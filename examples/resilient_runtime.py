"""Resilient runtime: budgets, the degradation ladder, verification.

Run:  python examples/resilient_runtime.py

Reordering is exponential in the worst case, and a rewrite engine of
this size can harbor subtle semantic bugs (the INNER-for-LEFT class).
``repro.runtime.QuerySession`` wraps the optimizer so neither failure
mode reaches the caller: budgets bound the work, a degradation ladder
(full reorder -> greedy/DP baseline -> query as written) always
produces an answer, and an optional differential-verification pass
re-executes the chosen plan on a row-sample and quarantines it on any
mismatch.  See docs/ROBUSTNESS.md for the full story.
"""

from repro import Budget, QuerySession
from repro.expr import Database, evaluate
from repro.relalg import Relation
from repro.workloads.topologies import chain_query


def chain_database(n: int, rows: int = 12) -> Database:
    db = Database()
    for i in range(1, n + 1):
        name = f"r{i}"
        db.add(
            name,
            Relation.base(
                name,
                [f"{name}_a0", f"{name}_a1"],
                [(j % 5, (j + i) % 5) for j in range(rows)],
            ),
        )
    return db


def main() -> None:
    query = chain_query(4, complex_every=3)
    db = chain_database(4)
    expected = evaluate(query, db)

    # --- unconstrained: the FULL rung (exact DP on this inner chain) --
    session = QuerySession(db, verify=True)
    result = session.run(query)
    print("no budget:")
    print(f"  stage={result.degradation_level.name.lower()}"
          f"  plans={result.plans_considered}"
          f"  verified={result.verified}"
          f"  rows={len(result.relation)}")
    assert result.relation.same_content(expected)
    print()

    # --- a starved plan budget: degrade, don't hang -------------------
    session = QuerySession(db, budget=Budget(max_plans=1))
    result = session.run(query)
    print("max_plans=1:")
    print(f"  stage={result.degradation_level.name.lower()}"
          f"  reason={result.degradation_reason!r}")
    print(f"  rows still correct: {result.relation.same_content(expected)}")
    print()

    # --- an expired deadline: the last rung still answers -------------
    session = QuerySession(db, budget=Budget(deadline_ms=0.0))
    result = session.run(query)
    print("deadline_ms=0:")
    print(f"  stage={result.degradation_level.name.lower()}"
          f"  reason={result.degradation_reason!r}")
    print(f"  rows still correct: {result.relation.same_content(expected)}")
    print()

    # --- every run leaves a machine-readable trail --------------------
    print("incident log:")
    for record in session.incidents:
        print(f"  [{record.kind}] {record.action}")


if __name__ == "__main__":
    main()
