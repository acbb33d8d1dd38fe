"""End-to-end tests of the command-line interface."""

import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench import Reply, Workload, drive
from repro.cli import main
from repro.serving.stats import MetricsRegistry


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "city.jsonl"
    code = main(["generate", "NY", str(path), "--scale", "0.01"])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_jsonl(self, dataset_path):
        lines = dataset_path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "repro-mck-v1"
        record = json.loads(lines[1])
        assert {"x", "y", "keywords"} <= set(record)

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["generate", "NY", str(a), "--scale", "0.01", "--seed", "1"])
        main(["generate", "NY", str(b), "--scale", "0.01", "--seed", "2"])
        assert a.read_text() != b.read_text()


class TestQuery:
    def test_query_prints_group(self, dataset_path, capsys):
        code = main(
            ["query", str(dataset_path), "t0", "t1", "--algorithm", "EXACT"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "diameter" in out
        assert "EXACT" in out

    def test_approximate_algorithm(self, dataset_path, capsys):
        code = main(["query", str(dataset_path), "t0", "t1", "t2"])
        assert code == 0
        assert "SKECa+" in capsys.readouterr().out


class TestStats:
    def test_stats_table(self, dataset_path, capsys):
        code = main(["stats", str(dataset_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Objects" in out
        assert "NY-like" in out


class TestExperiment:
    def test_table1(self, capsys):
        code = main(["experiment", "table1", "--scale", "0.01"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_fig7_tiny(self, capsys):
        code = main(["experiment", "fig7", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig7a" in out and "Fig7b" in out


class TestUsage:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestTrace:
    def test_writes_chrome_trace_and_prometheus(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        code = main(
            [
                "trace",
                "--preset",
                "NY",
                "--scale",
                "0.005",
                "--m",
                "3",
                "--queries",
                "2",
                "--repeat",
                "2",
                "--algorithm",
                "SKECa+",
                "--trace-out",
                str(trace_path),
                "--prom-out",
                str(prom_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        document = json.loads(trace_path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "serve.request" in names
        assert "engine.query" in names
        prom = prom_path.read_text()
        assert 'mck_query_latency_seconds_bucket' in prom
        assert 'cache="hit"' in prom and 'cache="miss"' in prom

    def test_existing_dataset_and_histogram_summary(self, dataset_path, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "--dataset",
                str(dataset_path),
                "--m",
                "2",
                "--queries",
                "1",
                "--repeat",
                "1",
                "--algorithm",
                "GKG",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mck_query_latency_seconds" in out
        assert trace_path.exists()

    def test_rejects_bad_sample_rate(self, tmp_path, capsys):
        code = main(
            ["trace", "--sample-rate", "1.5", "--trace-out", str(tmp_path / "t.json")]
        )
        assert code == 2


class TestMetricsCommand:
    def test_wraps_nested_command(self, capsys):
        code = main(["metrics", "experiment", "table1", "--scale", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "mck_algorithm_seconds" in out

    def test_prometheus_flag(self, capsys):
        code = main(
            ["metrics", "--prometheus", "experiment", "table1", "--scale", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE mck_algorithm_seconds histogram" in out

    def test_bench_queries_reach_the_dumped_registry(self, capsys):
        # The default registry is process-wide, so compare before and after.
        before = MetricsRegistry.default().as_dict()["queries_total"]
        code = main(
            ["metrics", "bench", "--scale", "0.005", "--m", "2",
             "--queries", "3", "--operations", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        dumped = json.loads(out[out.rindex("\n{") + 1:])
        assert dumped["queries_total"] == before + 6

    def test_rejects_nested_metrics(self, capsys):
        assert main(["metrics", "metrics"]) == 2

    def test_requires_nested_command(self, capsys):
        assert main(["metrics"]) == 2


COMMON_BLOCKS = {"workload", "latency", "admission", "metrics", "slo", "cache"}


def _bench(tmp_path, *flags):
    out = tmp_path / "bench.json"
    code = main(
        ["bench", "--scale", "0.005", "--m", "2", "--queries", "4",
         "--output", str(out), *flags]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert COMMON_BLOCKS <= set(report)
    workload = report["workload"]
    assert workload["failures"] == 0
    assert workload["requests_total"] == (
        workload["reads"] + workload["inserts"] + workload["deletes"]
    )
    assert workload["setup_seconds"] >= 0 and workload["wall_seconds"] > 0
    return report


class TestBench:
    def test_sealed_closed_loop(self, tmp_path):
        report = _bench(tmp_path, "--operations", "8")
        assert report["workload"]["stack"] == "sealed"
        assert report["workload"]["reads"] == 8
        assert report["latency"]["read"]["count"] == 8
        assert report["cache"]["hits"] >= 4  # 8 reads over 4 keyword sets
        assert not {"live", "http", "topology"} & set(report)

    def test_sealed_http_open_loop(self, tmp_path):
        report = _bench(
            tmp_path, "--http", "--arrival-rate", "200", "--operations", "10"
        )
        http = report["http"]
        assert http["offered"] == 10
        assert http["completed"] + http["rejected"] + http["errors"] == 10
        assert http["status_counts"].get("200", 0) == http["completed"]
        assert http["latency_p95_seconds"] is not None
        assert report["workload"]["arrival_rate"] == 200.0

    def test_live_wal_and_compaction_fault(self, tmp_path):
        wal = tmp_path / "bench.wal"
        report = _bench(
            tmp_path, "--stack", "live", "--operations", "40",
            "--write-ratio", "0.5", "--compact-threshold", "4",
            "--wal", str(wal), "--inject-fault", "compaction-fail:times=1",
        )
        live = report["live"]
        assert live["wal_records"] > 0 and wal.exists()
        assert live["epoch"] >= 1
        assert live["compaction_failures"] == 1
        assert report["workload"]["inserts"] > 0
        assert report["latency"]["write"]["count"] > 0
        assert report["workload"]["injected_faults"] == ["compaction-fail:times=1"]

    def test_sharded_kill_primary(self, tmp_path):
        report = _bench(
            tmp_path, "--stack", "sharded", "--shards", "4",
            "--operations", "40", "--write-ratio", "0.5",
            "--kill-primary-at", "10",
        )
        assert report["failover"] == {"killed_at_op": 10, "failovers": 1}
        assert report["topology"]["shards_initial"] == 4
        assert report["splits"] == []
        assert set(report["replication_lag"]) == {"0", "1", "2", "3"}
        assert report["live"]["wal_records"] > 0

    def test_in_process_open_loop_sheds(self, tmp_path):
        # The admission queue holds more than CLIENT_THREADS: only a
        # non-blocking submit of every arrival can fill it.
        report = _bench(
            tmp_path, "--workers", "1", "--cache-size", "0",
            "--arrival-rate", "2000", "--admission-capacity", "40",
            "--queries", "60", "--operations", "100",
            "--inject-fault", "slow-scan:delay=0.01",
        )
        assert report["admission"]["submitted"] == 100
        assert report["workload"]["rejected"] > 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--write-ratio", "0.5"],
            ["--wal", "x.wal"],
            ["--stack", "sharded", "--compact-threshold", "8"],
            ["--stack", "live", "--kill-primary-at", "3"],
            ["--algorithms", "NOPE"],
            ["--inject-fault", "no-such-fault"],
        ],
    )
    def test_usage_errors_exit_2(self, flags, capsys):
        assert main(["bench", "--scale", "0.005", *flags]) == 2
        assert "bench:" in capsys.readouterr().err

    @pytest.mark.parametrize("old", ["serve-bench", "live-bench", "shard-bench"])
    def test_old_bench_commands_are_gone(self, old, capsys):
        with pytest.raises(SystemExit) as exc:
            main([old])
        assert exc.value.code == 2


class TestDrive:
    @staticmethod
    def _serial_send(server):
        """A stack that answers one operation at a time, 20 ms each."""

        def work():
            time.sleep(0.02)
            return Reply("ok", finished=time.perf_counter())

        return lambda op: server.submit(work)

    def test_open_loop_latency_runs_from_arrival(self):
        # Ten arrivals within ~10 ms: the last waits behind nine others,
        # and that wait belongs to its latency.
        ops = Workload([("a",)]).draw(10)
        with ThreadPoolExecutor(max_workers=1) as server:
            tally = drive(ops, self._serial_send(server), arrival_rate=1000.0)
        assert tally.completed == 10
        assert max(tally.latencies["read"]) >= 0.15

    def test_closed_loop_keeps_one_operation_in_flight(self):
        ops = Workload([("a",)]).draw(5)
        with ThreadPoolExecutor(max_workers=1) as server:
            tally = drive(ops, self._serial_send(server))
        assert tally.completed == 5
        assert tally.seconds >= 5 * 0.02
        assert all(latency < 0.15 for latency in tally.latencies["read"])
