"""Unit tests for the observability package: instruments, tracer,
exporters, telemetry/registry coherence, and the service-level
surfaces (``handle.trace()``, ``metrics_registry()``, the ``explain``
and traced-``serve`` CLI paths).

The structural trace invariants (nesting, one terminal per finished
root, ordered execution slices) are property-tested against the live
service in ``tests/test_obs_properties.py``; this module pins the unit
behaviour of each piece.
"""

import inspect
import json

import pytest

from repro.common.config import ExecutionConfig, SharingMode
from repro.data.figure1 import figure1_federation
from repro.data.inverted import InvertedIndex
from repro.keyword.queries import KeywordQuery
from repro.obs.export import validate_trace_lines, write_metrics, write_trace
from repro.obs.instruments import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import NO_TRACER, NullTracer, Tracer
from repro.service import (
    QService,
    ServiceConfig,
    ShardedQService,
    Telemetry,
)

K = 5


@pytest.fixture(scope="module")
def federation():
    return figure1_federation()


@pytest.fixture(scope="module")
def index(federation):
    return InvertedIndex(federation)


def exec_config(**overrides) -> ExecutionConfig:
    defaults = dict(mode=SharingMode.ATC_FULL, k=K, batch_window=1.0,
                    optimizer_time_scale=0.0, seed=11)
    return ExecutionConfig(**{**defaults, **overrides})


def small_load() -> list[KeywordQuery]:
    return [
        KeywordQuery("KQ1", ("protein", "plasma"), k=K, arrival=0.0),
        KeywordQuery("KQ2", ("membrane", "gene"), k=K, arrival=0.5),
        KeywordQuery("KQ3", ("protein", "plasma"), k=K, arrival=0.8),
        KeywordQuery("KQ4", ("kinase", "receptor"), k=K, arrival=1.2),
        KeywordQuery("KQ5", ("protein", "plasma"), k=K, arrival=400.0),
    ]


def outcome(report):
    """The observable result of a run: per-query status and answers."""
    return [(t.kq_id, str(t.status), t.answers) for t in report.tickets]


class TestInstruments:
    def test_counter_is_labelled_and_monotone(self):
        c = Counter("requests_total")
        c.inc(mode="a")
        c.inc(2.0, mode="a")
        c.inc(mode="b")
        assert c.value(mode="a") == 3.0
        assert c.value(mode="b") == 1.0
        assert c.value(mode="missing") == 0.0
        with pytest.raises(ValueError):
            c.inc(-1.0, mode="a")

    def test_gauge_moves_both_ways(self):
        g = Gauge("level")
        g.set(5.0)
        g.inc(-2.0)
        assert g.value() == 3.0

    def test_histogram_buckets_sum_count(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(106.2)
        rows = {(suffix, key): value for suffix, key, value in h.expose()}
        assert rows[("_bucket", (("le", "1"),))] == 2.0
        assert rows[("_bucket", (("le", "10"),))] == 3.0   # cumulative
        assert rows[("_bucket", (("le", "+Inf"),))] == 4.0
        assert rows[("_count", ())] == 4.0

    def test_histogram_set_samples_replaces(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        h.set_samples([2.0, 3.0])
        assert h.count() == 2
        assert h.sum() == pytest.approx(5.0)

    def test_registry_get_or_create_and_kind_conflict(self):
        r = MetricsRegistry()
        c1 = r.counter("x_total", "help text")
        assert r.counter("x_total") is c1
        with pytest.raises(TypeError):
            r.gauge("x_total")
        assert r.get("x_total") is c1
        assert r.get("absent") is None

    def test_collectors_refresh_derived_instruments(self):
        r = MetricsRegistry()
        source = {"n": 0}
        gauge = r.gauge("live")
        r.add_collector(lambda: gauge.set(source["n"]))
        source["n"] = 7
        snap = r.snapshot()
        assert snap["live"]["samples"][0]["value"] == 7.0

    def test_prometheus_rendering(self):
        r = MetricsRegistry()
        r.counter("hits_total", "hits").inc(3, mode="ATC-FULL")
        r.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = r.render_prometheus()
        assert "# TYPE hits_total counter" in text
        assert "# HELP hits_total hits" in text
        assert 'hits_total{mode="ATC-FULL"} 3' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert text.endswith("\n")

    def test_jsonl_lines_parse(self):
        r = MetricsRegistry()
        r.counter("hits_total").inc(3, shard="0")
        rows = [json.loads(line) for line in r.jsonl_lines()]
        assert rows[0]["name"] == "hits_total"
        assert rows[0]["samples"][0]["labels"] == {"shard": "0"}

    def test_merged_stamps_labels_and_adds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("served_total").inc(2)
        b.counter("served_total").inc(3)
        a.histogram("lat", buckets=(1.0,)).observe(0.5)
        b.histogram("lat", buckets=(1.0,)).observe(2.0)
        merged = MetricsRegistry.merged(
            [(a, {"shard": "0"}), (b, {"shard": "1"})])
        served = merged.get("served_total")
        assert served.value(shard="0") == 2.0
        assert served.value(shard="1") == 3.0
        lat = merged.get("lat")
        assert lat.count(shard="0") == 1
        assert lat.count(shard="1") == 1

    def test_merged_identical_labels_accumulate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("served_total").inc(2)
        b.counter("served_total").inc(3)
        merged = MetricsRegistry.merged([(a, {}), (b, {})])
        assert merged.get("served_total").value() == 5.0


class TestTracer:
    def test_lifecycle_builds_a_finished_tree(self):
        tr = Tracer()
        tr.start_query("Q1", 1.0, keywords="a b")
        tr.event("Q1", "admission", 1.0, action="accept")
        tr.span("Q1", "execution", 2.0, 5.0)
        tr.finish_query("Q1", 4.0, "done", via="engine")
        trace = tr.trace("Q1")
        assert trace.finished
        assert trace.root.name == "query"
        assert trace.disposition == "done"
        # The root clamps to cover the execution span that ran past
        # the terminal instant.
        assert trace.root.v_end == 5.0
        terminals = trace.find_all("terminal")
        assert len(terminals) == 1
        assert terminals[0].attrs["disposition"] == "done"

    def test_start_query_joins_open_and_archives_finished(self):
        tr = Tracer()
        first = tr.start_query("Q1", 0.0)
        joined = tr.start_query("Q1", 0.5, shard=2)
        assert joined is first                    # front door + worker
        assert first.root.attrs["shard"] == 2
        tr.finish_query("Q1", 1.0, "done")
        fresh = tr.start_query("Q1", 9.0)         # genuine re-submit
        assert fresh is not first
        assert len(tr.traces()) == 2              # archive kept

    def test_events_clamp_into_the_root(self):
        tr = Tracer()
        tr.start_query("Q1", 5.0)
        span = tr.event("Q1", "cache_lookup", 3.0)
        assert span.v_start == 5.0 and span.v_end == 5.0

    def test_child_clamps_inside_parent(self):
        tr = Tracer()
        tr.start_query("Q1", 0.0)
        parent = tr.span("Q1", "optimize", 1.0, 4.0)
        child = tr.child(parent, "factorization", 0.5, 9.0)
        assert child.v_start == 1.0 and child.v_end == 4.0
        assert child in parent.children

    def test_alias_repoints_on_promotion(self):
        tr = Tracer()
        tr.start_query("LEADER", 0.0)
        tr.start_query("FOLLOWER", 0.2)
        tr.alias("UQ1", "LEADER")
        tr.span_uq("UQ1", "execution", 1.0, 1.5)
        tr.alias("UQ1", "FOLLOWER")               # leader cancelled
        tr.span_uq("UQ1", "execution", 2.0, 2.5)
        assert len(tr.trace("LEADER").find_all("execution")) == 1
        assert len(tr.trace("FOLLOWER").find_all("execution")) == 1
        assert tr.span_uq("UNKNOWN", "x", 0.0, 0.0) is None

    def test_recording_against_unknown_query_is_a_noop(self):
        tr = Tracer()
        assert tr.event("ABSENT", "x", 0.0) is None
        tr.finish_query("ABSENT", 0.0, "done")    # must not raise
        assert tr.traces() == []

    def test_null_tracer_is_inert(self):
        assert NO_TRACER.enabled is False
        assert NO_TRACER.start_query("Q", 0.0) is None
        assert NO_TRACER.event("Q", "x", 0.0) is None
        assert NO_TRACER.traces() == []
        assert NO_TRACER.jsonl_lines() == []

    def test_null_tracer_mirrors_every_tracer_method(self):
        """Record sites call the tracer unconditionally, so a method
        missing from the null object fails every untraced run."""
        def params(fn):
            return list(inspect.signature(fn).parameters)

        methods = [name for name, fn in inspect.getmembers(
            Tracer, inspect.isfunction) if not name.startswith("_")]
        assert methods
        for name in methods:
            null = getattr(NullTracer, name, None)
            assert callable(null), f"NullTracer lacks {name}"
            assert params(null) == params(getattr(Tracer, name)), name
        assert isinstance(Tracer().wall(), float)
        assert NO_TRACER.wall() == 0.0


class TestExportAndValidation:
    def make_tracer(self) -> Tracer:
        tr = Tracer()
        tr.start_query("Q1", 0.0, keywords="protein plasma")
        parent = tr.span("Q1", "optimize", 0.5, 2.0)
        tr.child(parent, "factorization", 0.6, 1.5)
        tr.span("Q1", "execution", 2.0, 6.0)
        tr.finish_query("Q1", 6.0, "done")
        tr.start_query("Q2", 1.0)
        tr.finish_query("Q2", 3.0, "cancelled", reason="client")
        return tr

    def test_round_trip_validates_clean(self):
        lines = self.make_tracer().jsonl_lines()
        assert validate_trace_lines(lines) == []

    def test_validator_flags_structural_damage(self):
        lines = self.make_tracer().jsonl_lines()
        rows = [json.loads(line) for line in lines]

        missing = [json.dumps({k: v for k, v in rows[0].items()
                               if k != "name"})]
        assert validate_trace_lines(missing)

        escape = [dict(row) for row in rows]
        escape[2]["virtual_end"] = 1e9            # child escapes optimize
        assert validate_trace_lines(
            [json.dumps(row) for row in escape])

        double = rows + [rows[-1] | {"span": 99}]  # second terminal
        assert any("terminal" in err for err in validate_trace_lines(
            [json.dumps(row) for row in double]))

        orphan = [json.dumps(rows[1])]             # span before its root
        assert any("before" in err for err in validate_trace_lines(orphan))

    def test_write_trace_and_check(self, tmp_path):
        path = write_trace(self.make_tracer(), tmp_path)
        assert path.name == "trace.jsonl"
        assert validate_trace_lines(path.read_text().splitlines()) == []

    def test_write_metrics_format_by_extension(self, tmp_path):
        r = MetricsRegistry()
        r.counter("hits_total").inc(1)
        assert write_metrics(r, tmp_path / "m.prom") == "prometheus"
        assert (tmp_path / "m.prom").read_text().startswith("# TYPE")
        assert write_metrics(r, tmp_path / "m.jsonl") == "jsonl"
        row = json.loads((tmp_path / "m.jsonl").read_text().splitlines()[0])
        assert row["name"] == "hits_total"


class TestTelemetryRegistryCoherence:
    def test_every_counter_field_is_instrument_backed(self):
        """Each scalar counter reads through a registry instrument, so
        the rendered report and the exported metrics cannot drift."""
        tel = Telemetry()
        for i, name in enumerate(Telemetry.COUNTER_FIELDS):
            setattr(tel, name, i + 1)
        instrumented = sum(
            sample["value"]
            for body in tel.registry.snapshot().values()
            if body["type"] == "counter"
            for sample in body["samples"])
        expected = sum(range(1, len(Telemetry.COUNTER_FIELDS) + 1))
        assert instrumented == expected

    def test_merged_covers_every_counter_field(self):
        """The drift audit: a counter added to COUNTER_FIELDS is merged
        by construction -- no field may be dropped from the fleet sum."""
        parts = []
        for factor in (1, 2):
            tel = Telemetry()
            for i, name in enumerate(Telemetry.COUNTER_FIELDS):
                setattr(tel, name, factor * (i + 1))
            parts.append(tel)
        merged = Telemetry.merged(parts)
        for i, name in enumerate(Telemetry.COUNTER_FIELDS):
            assert getattr(merged, name) == 3 * (i + 1), name

    def test_latency_samples_reach_the_histogram(self):
        tel = Telemetry()
        tel.record_arrival(0.0)
        tel.record_completion(2.0, latency=2.0, ttfa=1.5)
        snap = tel.registry.snapshot()
        lat = snap["repro_service_latency_virtual_seconds"]
        count = [s["value"] for s in lat["samples"]
                 if s["suffix"] == "_count"]
        assert count == [1.0]


class TestServiceObservability:
    def test_traced_run_end_to_end(self, federation, index):
        tracer = Tracer()
        service = QService(federation, exec_config(),
                           ServiceConfig(max_in_flight=8),
                           index=index, tracer=tracer)
        report = service.run(small_load())
        assert all(t.terminal for t in report.tickets)
        for handle in report.tickets:
            trace = handle.trace()
            assert trace is not None, handle.kq_id
            assert trace.finished
            assert trace.disposition == str(handle.status)
        # KQ3 repeats KQ1 inside the cache TTL; its trace must show a
        # front-door serve, not an execution.
        kq3 = next(t for t in report.tickets if t.kq_id == "KQ3")
        assert kq3.via in ("cache", "coalesced")
        assert kq3.trace().find("execution") is None
        assert validate_trace_lines(tracer.jsonl_lines()) == []

    def test_metrics_registry_matches_telemetry(self, federation, index):
        service = QService(federation, exec_config(),
                           ServiceConfig(max_in_flight=8), index=index)
        report = service.run(small_load())
        registry = service.metrics_registry()
        assert registry.get("repro_service_submitted_total").value() \
            == report.telemetry.submitted
        assert registry.get("repro_service_completed_total").value() \
            == report.telemetry.completed
        # Engine work is published under the sharing-mode label.
        mode = str(service.workers[0].engine.config.mode)
        assert registry.get("repro_engine_stream_tuples_read_total") \
            .value(mode=mode) \
            == report.engine_report.metrics.stream_tuples_read

    def test_live_scrape_carries_the_optimizer_totals(self, federation,
                                                      index):
        """The shard's collector syncs the optimizer totals, so a scrape
        of a service nobody asked for a report shows them."""
        service = QService(federation, exec_config(),
                           ServiceConfig(max_in_flight=8), index=index)
        for kq in small_load()[:4]:
            service.submit(kq)
        service.step(50.0)
        records = service.workers[0].engine.report().metrics \
            .optimizer_records
        assert records
        registry = service.metrics_registry()
        assert registry.get("repro_optimizer_invocations_total").value() \
            == len(records)
        assert registry.get("repro_optimizer_plans_explored_total") \
            .value() == sum(r.plans_explored for r in records)

    def test_tracing_never_changes_answers(self, federation, index):
        def run(tracer):
            service = QService(federation, exec_config(),
                               ServiceConfig(max_in_flight=8),
                               index=index, tracer=tracer)
            return outcome(service.run(small_load()))

        assert run(None) == run(Tracer())

    def test_handle_trace_is_none_without_a_tracer(self, federation, index):
        service = QService(federation, exec_config(),
                           ServiceConfig(max_in_flight=8), index=index)
        report = service.run(small_load()[:1])
        assert report.tickets[0].trace() is None

    def test_sharded_fleet_shares_one_trace(self, federation, index):
        tracer = Tracer()
        fleet = ShardedQService(federation, exec_config(), n_shards=2,
                                routing="hash",
                                service=ServiceConfig(max_in_flight=8),
                                index=index, tracer=tracer)
        report = fleet.run(small_load())
        assert all(t.terminal for t in report.tickets)
        assert validate_trace_lines(tracer.jsonl_lines()) == []
        for handle in report.tickets:
            trace = handle.trace()
            assert trace is not None
            assert trace.disposition == str(handle.status)
        # A routed query's single tree spans both tiers: the front
        # door's route event and the worker's pipeline spans.
        routed = next(t for t in report.tickets if t.shard is not None
                      and t.via == "engine")
        trace = routed.trace()
        assert trace.find("route").attrs["shard"] == routed.shard
        assert trace.find("execution") is not None

    def test_sharded_metrics_merge_is_shard_labelled(self, federation,
                                                     index):
        fleet = ShardedQService(federation, exec_config(), n_shards=2,
                                routing="hash",
                                service=ServiceConfig(max_in_flight=8),
                                index=index)
        fleet.run(small_load())
        merged = fleet.metrics_registry()
        submitted = merged.get("repro_service_submitted_total")
        by_shard = sum(submitted.value(shard=str(i)) for i in range(2))
        assert by_shard == sum(w.telemetry.submitted
                               for w in fleet.workers)
        # The shared answer cache is published once, by the front door
        # (unlabelled) -- never double counted from the workers.
        hits = merged.get("repro_answer_cache_hits_total")
        assert hits.value() == fleet.cache.stats.hits
        assert hits.value(shard="0") == 0.0
        assert hits.value(shard="1") == 0.0


class TestObservabilityCLI:
    def test_explain_prints_tree_and_breakdown(self, capsys):
        from repro.cli import main
        assert main(["explain", "protein", "plasma"]) == 0
        out = capsys.readouterr().out
        assert "query" in out
        assert "terminal" in out
        assert "stage breakdown" in out

    def test_serve_exports_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main
        metrics = tmp_path / "metrics.prom"
        assert main(["serve", "--queries", "12",
                     "--trace-dir", str(tmp_path),
                     "--metrics-out", str(metrics)]) == 0
        trace = tmp_path / "trace.jsonl"
        assert validate_trace_lines(
            trace.read_text().splitlines()) == []
        assert "# TYPE repro_service_submitted_total counter" \
            in metrics.read_text()
        out = capsys.readouterr().out
        assert "traces" in out and "metrics" in out
