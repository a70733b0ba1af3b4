"""CLI tests: CSV loading, run, explain, demo."""

import io

import pytest

from repro.cli import (
    _parse_value,
    load_csv_database,
    main,
    run_demo,
    run_script,
)
from repro.relalg.nulls import NULL


@pytest.fixture()
def data_dir(tmp_path):
    (tmp_path / "emp.csv").write_text(
        "eid,dept,salary\n1,10,100\n2,10,200\n3,20,300\n4,99,\n"
    )
    (tmp_path / "dept.csv").write_text("did,dname\n10,eng\n20,ops\n30,hr\n")
    return tmp_path


class TestCsvLoading:
    def test_value_parsing(self):
        assert _parse_value("3") == 3
        assert _parse_value("2.5") == 2.5
        assert _parse_value("eng") == "eng"
        assert _parse_value("") == NULL

    def test_load(self, data_dir):
        db, catalog = load_csv_database(data_dir)
        assert len(db["emp"]) == 4
        assert catalog.is_table("dept")
        # empty cell became NULL
        assert any(row["salary"] == NULL for row in db["emp"])

    def test_empty_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            load_csv_database(tmp_path)


class TestRun:
    def test_run_select(self, data_dir):
        db, catalog = load_csv_database(data_dir)
        out = io.StringIO()
        run_script(
            "select eid from emp where salary > 150;", db, catalog, out=out
        )
        text = out.getvalue()
        assert "2 row(s)" in text

    def test_run_with_view_and_outer_join(self, data_dir):
        db, catalog = load_csv_database(data_dir)
        out = io.StringIO()
        run_script(
            """
            create view busy as
              select dept as d, n = count(*) from emp group by dept;
            select dname, n from busy left outer join dept on busy.d = dept.did;
            """,
            db,
            catalog,
            out=out,
        )
        text = out.getvalue()
        assert "view busy registered" in text
        assert "3 row(s)" in text

    def test_fast_matches_reference(self, data_dir):
        db, catalog = load_csv_database(data_dir)
        slow, fast = io.StringIO(), io.StringIO()
        sql = "select eid, dname from emp left outer join dept on emp.dept = dept.did;"
        run_script(sql, db, catalog, out=slow)
        run_script(sql, db, catalog, out=fast, fast=True)
        assert sorted(slow.getvalue().splitlines()) == sorted(
            fast.getvalue().splitlines()
        )

    def test_vector_engine_matches_reference(self, data_dir):
        db, catalog = load_csv_database(data_dir)
        slow, vec = io.StringIO(), io.StringIO()
        sql = (
            "select dept, n = count(*) from emp "
            "left outer join dept on emp.dept = dept.did group by dept;"
        )
        run_script(sql, db, catalog, out=slow)
        run_script(sql, db, catalog, out=vec, engine="vector")
        assert sorted(slow.getvalue().splitlines()) == sorted(
            vec.getvalue().splitlines()
        )

    def test_explain(self, data_dir):
        db, catalog = load_csv_database(data_dir)
        out = io.StringIO()
        run_script(
            "select eid, dname from emp, dept where emp.dept = dept.did;",
            db,
            catalog,
            out=out,
            explain=True,
        )
        text = out.getvalue()
        assert "plans considered" in text
        assert "chosen plan" in text


class TestMain:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        assert "row(s)" in capsys.readouterr().out

    def test_run_command(self, data_dir, tmp_path, capsys):
        script = tmp_path / "q.sql"
        script.write_text("select eid from emp;")
        assert main(["run", str(script), "--data", str(data_dir)]) == 0
        assert "4 row(s)" in capsys.readouterr().out

    def test_run_command_vector_engine(self, data_dir, tmp_path, capsys):
        script = tmp_path / "q.sql"
        script.write_text(
            "select eid, dname from emp left outer join dept "
            "on emp.dept = dept.did;"
        )
        args = ["run", str(script), "--data", str(data_dir), "--engine", "vector"]
        assert main(args) == 0
        assert "4 row(s)" in capsys.readouterr().out

    def test_explain_command(self, data_dir, tmp_path, capsys):
        script = tmp_path / "q.sql"
        script.write_text(
            "select eid, dname from emp left outer join dept "
            "on emp.dept = dept.did;"
        )
        assert main(["explain", str(script), "--data", str(data_dir)]) == 0
        assert "measured C_out" in capsys.readouterr().out

    def test_run_degrades_under_tiny_budget(self, data_dir, tmp_path, capsys):
        script = tmp_path / "q.sql"
        script.write_text(
            "select eid, dname from emp left outer join dept "
            "on emp.dept = dept.did;"
        )
        args = ["run", str(script), "--data", str(data_dir), "--max-plans", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 row(s)" in out
        assert "-- stage: greedy" in out

    def test_run_with_forced_enum_tier(self, data_dir, tmp_path, capsys):
        script = tmp_path / "q.sql"
        script.write_text(
            "select eid, dname from emp, dept where emp.dept = dept.did;"
        )
        args = [
            "run", str(script), "--data", str(data_dir),
            "--enum-tier", "goo",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        # the SQL core's leaves are Rename-wrapped tables, which the
        # GOO workspace takes as single relations -- the forced tier
        # answers itself, with the right rows
        assert "3 row(s)" in out
        assert "-- stage: goo" in out

    def test_explain_with_forced_enum_tier(self, data_dir, tmp_path, capsys):
        script = tmp_path / "q.sql"
        script.write_text(
            "select eid, dname from emp left outer join dept "
            "on emp.dept = dept.did;"
        )
        args = [
            "explain", str(script), "--data", str(data_dir),
            "--enum-tier", "partitioned",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "measured C_out" in out
        assert "-- stage: greedy" in out

    def test_unknown_enum_tier_rejected_by_argparse(self, data_dir, tmp_path):
        script = tmp_path / "q.sql"
        script.write_text("select eid from emp;")
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", str(script), "--data", str(data_dir),
                "--enum-tier", "exhaustive",
            ])
        assert excinfo.value.code == 2

    def test_row_cap_breach_is_a_clean_error(self, data_dir, tmp_path, capsys):
        script = tmp_path / "q.sql"
        script.write_text("select eid from emp;")
        args = ["run", str(script), "--data", str(data_dir), "--max-rows", "1"]
        assert main(args) == 3
        assert "rows budget exceeded" in capsys.readouterr().err


class TestServicePath:
    """`--workers` / `--faults` route through the concurrent service."""

    def _script(self, tmp_path):
        script = tmp_path / "q.sql"
        script.write_text(
            "select eid, dname from emp left outer join dept "
            "on emp.dept = dept.did;"
        )
        return script

    def test_workers_flag_uses_service_and_prints_rows(
        self, data_dir, tmp_path, capsys
    ):
        script = self._script(tmp_path)
        args = ["run", str(script), "--data", str(data_dir), "--workers", "2"]
        assert main(args) == 0
        assert "4 row(s)" in capsys.readouterr().out

    def test_faults_reroute_and_report(self, data_dir, tmp_path, capsys):
        script = self._script(tmp_path)
        args = [
            "run",
            str(script),
            "--data",
            str(data_dir),
            "--engine",
            "vector",
            "--faults",
            "vector:crash@1",
            "--fault-seed",
            "7",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 row(s)" in out
        assert "-- engine: hash" in out  # rerouted off the crashing engine
        assert "-- incidents:" in out

    def test_all_engines_crashing_is_exit_5(self, data_dir, tmp_path, capsys):
        script = self._script(tmp_path)
        args = [
            "run",
            str(script),
            "--data",
            str(data_dir),
            "--faults",
            "vector:crash@1,hash:crash@1,reference:crash@1",
        ]
        assert main(args) == 5
        assert "repro:" in capsys.readouterr().err

    def test_quarantine_fallback_is_exit_4(self, data_dir, tmp_path, capsys):
        from repro.expr.nodes import Join, JoinKind
        from repro.expr.rewrite import iter_nodes, replace_at
        from repro.optimizer import OptimizationResult
        from repro.runtime import QuerySession

        def wrongify(query):
            for path, node in iter_nodes(query):
                if isinstance(node, Join) and node.kind is JoinKind.LEFT:
                    return replace_at(
                        query,
                        path,
                        Join(
                            JoinKind.INNER, node.left, node.right, node.predicate
                        ),
                    )
            return query

        def bad_optimize(query, stats, max_plans=5000, budget=None, **kwargs):
            wrong = wrongify(query)
            return OptimizationResult(
                best=wrong,
                best_cost=1.0,
                original_cost=2.0,
                plans_considered=1,
                ranked=[(1.0, wrong)],
            )

        db, catalog = load_csv_database(data_dir)
        session = QuerySession(
            db, catalog=catalog, verify=True, optimize_fn=bad_optimize
        )
        out = io.StringIO()
        code = run_script(
            "select eid, dname from emp left outer join dept "
            "on emp.dept = dept.did;",
            db,
            catalog,
            out=out,
            verify=True,
            session=session,
        )
        assert code == 4
        text = out.getvalue()
        assert "MISMATCH" in text
        assert "4 row(s)" in text  # the original query's (correct) rows

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--help"])
        assert info.value.code == 0
        assert "exit codes:" in capsys.readouterr().out


class TestObservability:
    """`--analyze`, `--trace-out`, `--metrics-out`."""

    #: Example 3.1's shape in SQL: the join condition references the
    #: count column, so the full rewrite carries a generalized selection.
    EXAMPLE31_SQL = (
        "create view busy as "
        "select dept as d, n = count(*) from emp group by dept; "
        "select dname, n from busy left outer join dept "
        "on busy.d = dept.did where n < 3;"
    )

    def _script(self, tmp_path):
        script = tmp_path / "q.sql"
        script.write_text(self.EXAMPLE31_SQL)
        return script

    def test_analyze_prints_est_actual_and_spans(
        self, data_dir, tmp_path, capsys
    ):
        script = self._script(tmp_path)
        args = ["run", str(script), "--data", str(data_dir), "--analyze"]
        assert main(args) == 0
        out = capsys.readouterr().out
        # operator tree with estimated vs actual cardinalities + time
        assert "est=" in out and "rows=" in out and "time=" in out
        assert "Scan(emp)" in out
        # plan-lifecycle span timings follow the tree
        assert "-- spans:" in out
        assert "session.plan" in out
        assert "physical.execute" in out
        assert "ms" in out

    def test_trace_out_writes_chrome_trace(self, data_dir, tmp_path, capsys):
        import json

        script = self._script(tmp_path)
        trace = tmp_path / "trace.json"
        args = [
            "run", str(script), "--data", str(data_dir),
            "--trace-out", str(trace),
        ]
        assert main(args) == 0
        events = json.loads(trace.read_text())
        assert events, "no spans captured"
        names = {e["name"] for e in events}
        assert "session.run" in names
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid"}

    def test_metrics_out_prometheus_parses_back(
        self, data_dir, tmp_path, capsys
    ):
        from repro.runtime.metrics import parse_prometheus

        script = self._script(tmp_path)
        metrics = tmp_path / "metrics.prom"
        args = [
            "run", str(script), "--data", str(data_dir),
            "--metrics-out", str(metrics),
        ]
        assert main(args) == 0
        parsed = parse_prometheus(metrics.read_text())
        assert parsed["repro_admissions_total"]["type"] == "counter"
        samples = {
            name: value
            for name, labels, value in parsed["repro_admissions_total"][
                "samples"
            ]
        }
        assert samples["repro_admissions_total"] == 1
        latency = parsed["repro_query_latency_ms"]["samples"]
        assert any(n == "repro_query_latency_ms_count" for n, _, _ in latency)

    def test_metrics_out_json_on_service_path(
        self, data_dir, tmp_path, capsys
    ):
        import json

        script = self._script(tmp_path)
        metrics = tmp_path / "metrics.json"
        args = [
            "run", str(script), "--data", str(data_dir),
            "--workers", "2", "--metrics-out", str(metrics),
        ]
        assert main(args) == 0
        data = json.loads(metrics.read_text())
        (admissions,) = data["repro_admissions_total"]["series"]
        assert admissions["value"] == 1
        (latency,) = data["repro_query_latency_ms"]["series"]
        assert latency["count"] == 1 and latency["p50"] >= 0
