"""Telemetry spine: exposition conformance, tracing, span-to-metrics sink.

The exposition tests pin Prometheus text format 0.0.4 details that
real scrapers depend on -- label escaping, cumulative ``le`` buckets
ending at ``+Inf``, ``# HELP``/``# TYPE`` comment lines -- and prove
the module's own parser round-trips its renderer (the same parser the
cluster front and the CI smoke job use as a validator).
"""

from __future__ import annotations

import asyncio
import math

import pytest

import repro
from repro import PipelineConfig, tracing
from repro.runtime import telemetry
from repro.runtime.telemetry import (DEFAULT_SECONDS_BUCKETS,
                                     MetricsRegistry,
                                     ProfilingCollector, Tracer,
                                     parse_exposition,
                                     render_families,
                                     render_registries)
from repro.tracing import TRACER


# ----------------------------------------------------------------------
# Exposition format conformance
# ----------------------------------------------------------------------
class TestExposition:
    def test_counter_help_type_and_value_lines(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "Jobs processed.")
        counter.inc()
        counter.inc(2)
        text = registry.render()
        assert "# HELP jobs_total Jobs processed.\n" in text
        assert "# TYPE jobs_total counter\n" in text
        assert "jobs_total 3\n" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "Hits.", ("path",))
        counter.labels('a"b\\c\nd').inc()
        text = registry.render()
        assert 'hits_total{path="a\\"b\\\\c\\nd"} 1' in text
        # The escaped form must survive a parse round-trip verbatim.
        families = parse_exposition(text)
        ((_, labels, value),) = families["hits_total"]["samples"]
        assert labels == {"path": 'a"b\\c\nd'}
        assert value == 1

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency_seconds", "Latency.", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        text = registry.render()
        assert 'latency_seconds_bucket{le="0.1"} 1\n' in text
        assert 'latency_seconds_bucket{le="1"} 3\n' in text
        assert 'latency_seconds_bucket{le="10"} 4\n' in text
        assert 'latency_seconds_bucket{le="+Inf"} 5\n' in text
        assert "latency_seconds_count 5\n" in text
        assert "latency_seconds_sum 56.05" in text

    def test_histogram_observation_on_bucket_boundary(self):
        # Prometheus buckets are upper-inclusive: le="1" counts 1.0.
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "H.", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert 'h_bucket{le="1"} 1\n' in registry.render()

    def test_parse_back_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total", "Requests.",
                                   ("code", "path"))
        counter.labels("200", "/v1/diagnose").inc(7)
        counter.labels("404", "/v1/ghost").inc()
        registry.gauge("depth", "Queue depth.").set(3)
        histogram = registry.histogram("lat_seconds", "Latency.",
                                       buckets=(0.5, 1.0))
        histogram.observe(0.2)
        text = registry.render()

        families = parse_exposition(text)
        assert families["reqs_total"]["type"] == "counter"
        assert families["reqs_total"]["help"] == "Requests."
        samples = {tuple(sorted(labels.items())): value
                   for _, labels, value
                   in families["reqs_total"]["samples"]}
        assert samples[(("code", "200"),
                        ("path", "/v1/diagnose"))] == 7
        assert families["depth"]["samples"] == [("depth", {}, 3.0)]
        # Histogram child samples group under the family name.
        names = {name for name, _, _
                 in families["lat_seconds"]["samples"]}
        assert names == {"lat_seconds_bucket", "lat_seconds_sum",
                         "lat_seconds_count"}
        # And the re-renderer emits text the parser accepts again.
        assert parse_exposition(render_families(families)).keys() == \
            families.keys()

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_exposition("# TYPE x sideways\nx 1\n")
        with pytest.raises(ValueError):
            parse_exposition('x{a="unterminated} 1\n')
        with pytest.raises(ValueError):
            parse_exposition("x notanumber\n")

    def test_registry_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total", "X.")
        assert registry.counter("x_total", "X.") is counter
        with pytest.raises(ValueError):
            registry.gauge("x_total", "X.")
        with pytest.raises(ValueError):
            registry.counter("x_total", "X.", ("label",))

    def test_invalid_names_and_negative_counters(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "Bad.")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "Ok.", ("bad-label",))
        counter = registry.counter("ok_total", "Ok.")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_callback_evaluates_at_render(self):
        registry = MetricsRegistry()
        state = {"value": 1.0}
        registry.gauge("disk_bytes", "Disk.").set_function(
            lambda: state["value"])
        assert "disk_bytes 1\n" in registry.render()
        state["value"] = 2.0
        assert "disk_bytes 2\n" in registry.render()
        # A failing callback renders NaN instead of breaking a scrape.
        registry.gauge("disk_bytes", "Disk.").set_function(
            lambda: 1 / 0)
        rendered = registry.render()
        assert "disk_bytes NaN" in rendered

    def test_render_registries_concatenates(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("a_total", "A.").inc()
        second.counter("b_total", "B.").inc()
        families = parse_exposition(render_registries(first, second))
        assert {"a_total", "b_total"} <= families.keys()

    def test_nan_and_inf_render(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "G.")
        gauge.set(math.inf)
        assert "g +Inf\n" in registry.render()
        gauge.set(-math.inf)
        assert "g -Inf\n" in registry.render()


# ----------------------------------------------------------------------
# Trace spans + request ids
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans_nest_and_record_duration(self):
        tracer = Tracer()
        with tracer.span("outer", kind="request") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.children == [inner]
        assert inner.duration_s is not None
        assert inner.duration_s <= outer.duration_s
        assert tracer.current() is None
        tree = outer.to_dict()
        assert tree["name"] == "outer"
        assert tree["attrs"] == {"kind": "request"}
        assert tree["children"][0]["name"] == "inner"
        assert tree["children"][0]["duration_ms"] >= 0.0

    def test_concurrent_tasks_get_separate_trees(self):
        tracer = Tracer()

        async def worker(name):
            with tracer.span(name) as root:
                await asyncio.sleep(0)
                with tracer.span(f"{name}.child"):
                    await asyncio.sleep(0)
            return root

        async def run():
            return await asyncio.gather(worker("a"), worker("b"))

        roots = {span.name: span.to_dict()
                 for span in asyncio.run(run())}
        assert set(roots) == {"a", "b"}
        assert [c["name"] for c in roots["a"]["children"]] == \
            ["a.child"]
        assert [c["name"] for c in roots["b"]["children"]] == \
            ["b.child"]

    def test_span_end_fires_each_sink_once(self):
        tracer = Tracer()
        events = []
        sink = tracer.add_sink(events.append)
        assert tracer.add_sink(sink) is sink      # idempotent
        with tracer.span("pipeline.exact", circuit="rc") as outer:
            with tracer.span("engine.solve") as inner:
                pass
        # Children end first; every span reaches the sink.
        assert events == [inner, outer]
        assert outer.duration_s >= 0.0
        assert outer.attrs == {"circuit": "rc"}
        tracer.remove_sink(sink)
        with tracer.span("ignored"):
            pass
        assert len(events) == 2

    def test_raising_span_fires_sinks_and_reraises(self):
        tracer = Tracer()
        events = []
        tracer.add_sink(events.append)
        with pytest.raises(RuntimeError, match="solver"):
            with tracer.span("engine.solve", engine="batched"):
                raise RuntimeError("solver")
        (span,) = events
        assert span.name == "engine.solve"
        assert span.duration_s is not None
        assert tracer.current() is None

    def test_suspended_spans_are_idle(self):
        tracer = Tracer()
        events = []
        tracer.add_sink(events.append)
        with tracer.suspended():
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    inner.attrs["chunks"] = 3
                    inner.attrs.update(variants=4)
                assert tracer.current() is None
        assert outer is inner
        assert not inner.attrs and inner.duration_s is None
        assert events == []
        with tracer.span("live"):
            pass
        assert [span.name for span in events] == ["live"]

    def test_request_id_validation(self):
        good = telemetry.ensure_request_id("req-1.A_2")
        assert good == "req-1.A_2"
        assert telemetry.current_request_id() == good
        # Injection attempts and garbage get replaced, not echoed.
        bad = telemetry.ensure_request_id("evil\r\nSet-Cookie: x")
        assert bad != "evil\r\nSet-Cookie: x"
        assert tracing._REQUEST_ID_RE.match(bad)
        assert tracing._REQUEST_ID_RE.match(telemetry.new_request_id())
        telemetry.set_request_id(None)
        assert telemetry.current_request_id() is None


# ----------------------------------------------------------------------
# Span sink: finished spans -> metric families
# ----------------------------------------------------------------------
def _collect(registry):
    """A private tracer whose spans feed only ``registry``."""
    tracer = Tracer()
    tracer.add_sink(ProfilingCollector(registry))
    return tracer


def _histogram_count(families, name, **labels):
    return sum(value for sample, sample_labels, value
               in families[name]["samples"]
               if sample.endswith("_count") and
               all(sample_labels.get(k) == v for k, v in labels.items()))


class TestProfilingBridge:
    def test_events_land_as_metric_families(self):
        registry = MetricsRegistry()
        tracer = _collect(registry)
        with tracer.span("engine.solve", engine="batched", variants=32,
                         freqs=100, chunks=4):
            pass
        with tracer.span("engine.stamp", engine="batched"):
            pass
        with tracer.span("pipeline.dictionary", circuit="rc_lowpass"):
            pass
        with tracer.span("ga.generation", generation=0, population=30):
            pass
        with tracer.span("surface.sample") as span:
            span.attrs.update(rows=40, freqs=4)
        # Spans outside the vocabulary (serving, HTTP) are ignored.
        with tracer.span("http.request", method="GET"):
            pass
        families = parse_exposition(registry.render())
        assert families["repro_engine_solve_seconds"]["type"] == \
            "histogram"
        solved = {tuple(labels.items()): value for _, labels, value
                  in families["repro_engine_variants_solved_total"]
                  ["samples"]}
        assert solved[(("engine", "batched"),)] == 32
        stages = {labels["stage"] for _, labels, _
                  in families["repro_pipeline_stage_seconds"]["samples"]
                  if "stage" in labels}
        assert "dictionary" in stages
        assert families["repro_ga_generations_total"]["samples"] \
            [0][2] == 1
        assert families["repro_surface_rows_total"]["samples"] \
            [0][2] == 40

    def test_lowrank_events_land_as_metric_families(self):
        """The factored engine's ``engine.solve`` attributes map onto
        the ``repro_engine_lowrank_*`` families, exposition-conformant."""
        registry = MetricsRegistry()
        tracer = _collect(registry)
        with tracer.span("engine.solve", engine="factored",
                         variants=39, chunks=1, mode="dense",
                         factor_seconds=0.02, update_seconds=0.005,
                         updates=36, fallback_conditioning=2,
                         fallback_rank=1, fallback_nonfinite=0):
            pass
        with tracer.span("engine.solve", engine="factored",
                         variants=5, chunks=1, mode="sparse",
                         factor_seconds=0.01, update_seconds=0.0):
            pass
        families = parse_exposition(registry.render())
        assert families["repro_engine_lowrank_updates_total"] \
            ["samples"][0][2] == 36
        fallbacks = {labels["reason"]: value for _, labels, value in
                     families["repro_engine_lowrank_fallbacks_total"]
                     ["samples"]}
        assert fallbacks == {"conditioning": 2, "rank": 1}
        assert families["repro_engine_lowrank_factor_seconds"] \
            ["type"] == "histogram"
        modes = {labels["mode"] for _, labels, _ in
                 families["repro_engine_lowrank_factor_seconds"]
                 ["samples"] if "mode" in labels}
        assert modes == {"dense", "sparse"}
        # One update-stage observation per factored solve.
        assert _histogram_count(
            families, "repro_engine_lowrank_update_seconds") == 2

    def test_factored_engine_feeds_lowrank_metrics_end_to_end(self):
        """A real FactoredMnaEngine solve under the collector books
        updates, a dense-mode factorisation, a factored solve and --
        for a variant wider than ``max_rank`` -- the dense fallback."""
        import numpy as np
        from repro import FactoredMnaEngine, rc_lowpass
        from repro.sim import VariantTable
        info = rc_lowpass()
        registry = MetricsRegistry()
        # R1 (floating) stamps a rank-2 delta, C1 (grounded) rank 1:
        # max_rank=1 routes R1 to the dense fallback.
        engine = FactoredMnaEngine(info.circuit, max_rank=1)
        r1, c1 = info.circuit["R1"], info.circuit["C1"]
        variants = VariantTable(
            (("R1", "value"), ("C1", "value")),
            [[r1.value, c1.value], [r1.value * 1.2, c1.value],
             [r1.value, c1.value * 1.2]],
            ("nominal", "R1:+20%", "C1:+20%"))
        with ProfilingCollector(registry):
            for _ in range(2):
                engine.transfer_block(info.output_node,
                                      np.array([100.0, 1000.0]),
                                      variants, info.input_source)
        families = parse_exposition(registry.render())
        assert families["repro_engine_lowrank_updates_total"] \
            ["samples"][0][2] == 2
        fallbacks = {labels["reason"]: value for _, labels, value in
                     families["repro_engine_lowrank_fallbacks_total"]
                     ["samples"]}
        assert fallbacks == {"rank": 2}
        modes = {labels.get("mode") for _, labels, _ in
                 families["repro_engine_lowrank_factor_seconds"]
                 ["samples"]}
        assert "dense" in modes
        assert _histogram_count(families, "repro_engine_solve_seconds",
                                engine="factored") == 2
        assert _histogram_count(families, "repro_engine_solve_seconds",
                                engine="factored_fallback") == 2
        assert _histogram_count(
            families, "repro_engine_lowrank_update_seconds") == 2

    def test_uninstall_detaches_the_sink(self):
        registry = MetricsRegistry()
        collector = ProfilingCollector(registry)
        collector.install()
        collector.uninstall()
        with TRACER.span("engine.stamp", engine="scalar"):
            pass
        families = parse_exposition(registry.render())
        assert _histogram_count(families,
                                "repro_engine_stamp_seconds") == 0

    def test_sink_errors_never_reach_the_hot_path(self):
        tracer = Tracer()
        events = []

        def broken(span):
            raise RuntimeError("boom")

        tracer.add_sink(broken)
        tracer.add_sink(events.append)
        with tracer.span("engine.stamp", engine="scalar"):
            pass
        # The broken sink is skipped; later sinks still see the span.
        assert [span.name for span in events] == ["engine.stamp"]

    def test_default_instrumentation_is_installed(self):
        # Importing repro.runtime.telemetry wires TRACER's hot-path
        # spans into the process registry exactly once.
        from repro import BatchedMnaEngine, rc_lowpass
        collector = telemetry.install_default_instrumentation()
        assert collector is telemetry.install_default_instrumentation()

        def stamps():
            return _histogram_count(
                parse_exposition(telemetry.REGISTRY.render()),
                "repro_engine_stamp_seconds", engine="batched")

        before = stamps()
        BatchedMnaEngine(rc_lowpass().circuit)
        assert stamps() == before + 1


# ----------------------------------------------------------------------
# Metric parity: observation counts per pipeline run
# ----------------------------------------------------------------------
#: Observations per family for ``repro.run("tow_thomas_biquad",
#: PipelineConfig.paper(), seed=2005)`` on the batched engine (the
#: factored engine's dense fallback), recorded with the previous
#: event-hook instrumentation.
#: Histograms count observations; counters give their value.
PAPER_BIQUAD_COUNTS = {
    ("repro_engine_stamp_seconds", "batched"): 1,
    ("repro_engine_solve_seconds", "batched"): 2,
    ("repro_engine_solve_chunks_total", "batched"): 13,
    ("repro_engine_variants_solved_total", "batched"): 114,
    ("repro_engine_lowrank_updates_total", ""): 0,
    ("repro_engine_lowrank_update_seconds", ""): 0,
    ("repro_pipeline_stage_seconds", "dictionary"): 1,
    ("repro_pipeline_stage_seconds", "ga_search"): 1,
    ("repro_pipeline_stage_seconds", "exact"): 1,
    ("repro_pipeline_stage_seconds", "trajectories"): 1,
    ("repro_ga_generation_seconds", ""): 14,
    ("repro_ga_generations_total", ""): 14,
    ("repro_surface_samples_total", ""): 15,
    ("repro_surface_rows_total", ""): 855,
}

#: The same run on the pipeline's own (factored) engine.
PAPER_BIQUAD_FACTORED_COUNTS = {
    **{key: value for key, value in PAPER_BIQUAD_COUNTS.items()
       if "engine" not in key[0]},
    ("repro_engine_stamp_seconds", "factored"): 1,
    ("repro_engine_solve_seconds", "factored"): 2,
    ("repro_engine_solve_chunks_total", "factored"): 2,
    ("repro_engine_variants_solved_total", "factored"): 114,
    ("repro_engine_lowrank_updates_total", ""): 112,
    ("repro_engine_lowrank_update_seconds", ""): 2,
    ("repro_engine_lowrank_factor_seconds", "dense"): 2,
}


def _observation_counts(registry):
    """``{(family, label value): count}`` over the hot-path families."""
    counts = {}
    for name, family in parse_exposition(registry.render()).items():
        for sample, labels, value in family["samples"]:
            if family["type"] == "histogram":
                if not sample.endswith("_count"):
                    continue
            label = "".join(labels.values())
            counts[(name, label)] = int(value)
    return counts


class TestMetricParity:
    @pytest.mark.parametrize("engine, expected", [
        (repro.BatchedMnaEngine, PAPER_BIQUAD_COUNTS),
        (repro.FactoredMnaEngine, PAPER_BIQUAD_FACTORED_COUNTS),
    ], ids=["batched", "factored"])
    def test_paper_run_observation_counts(self, engine, expected):
        registry = MetricsRegistry()
        info = repro.get_benchmark("tow_thomas_biquad")
        # Built outside the collector: the pipeline's own engine is
        # swapped for the one under test before anything is counted.
        atpg = repro.FaultTrajectoryATPG(info, PipelineConfig.paper())
        with ProfilingCollector(registry):
            atpg.engine = engine(info.circuit)
            atpg.run(seed=2005)
        assert _observation_counts(registry) == expected
