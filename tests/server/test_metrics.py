"""Unit tests for the metrics layer: instruments, exposition, parser, facade.

The exposition format is wire protocol (Prometheus scrapers consume it),
so the renderer is pinned through the same strict parser the overload
benchmark uses as its validity gate — a renderer bug and a parser bug
would have to cancel exactly to slip through.
"""

import json
import math
import threading
import urllib.request

import pytest

from repro.server.catalog import Catalog
from repro.server.http import create_server, wait_ready
from repro.server.metrics import (
    CONTENT_TYPE,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RawFamily,
    ServerMetrics,
    check_histogram_invariants,
    format_labels,
    format_value,
    histogram_series,
    parse_prometheus_text,
    quantile_bounds,
    route_label,
)

from tests.server.test_async_http import DISPATCH_PATHS, set_dispatch
from tests.skeleton.test_loader import BIB_XML


class TestFormatting:
    def test_integers_render_without_decimal_point(self):
        assert format_value(3.0) == "3"
        assert format_value(0.0) == "0"

    def test_floats_round_trip(self):
        assert float(format_value(0.0025)) == 0.0025

    def test_infinities_and_nan(self):
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"

    def test_label_escaping(self):
        rendered = format_labels({"path": 'a"b\\c\nd'})
        assert rendered == '{path="a\\"b\\\\c\\nd"}'
        # The strict parser undoes the escaping exactly.
        families = parse_prometheus_text(
            "# TYPE x counter\nx" + rendered + " 1\n"
        )
        assert families["x"]["samples"][0][1] == {"path": 'a"b\\c\nd'}


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        counter = Counter("c_total", "h", ("route",))
        counter.inc(route="/query")
        counter.inc(2, route="/query")
        counter.inc(route="/stats")
        assert counter.value(route="/query") == 3
        assert counter.value(route="/stats") == 1

    def test_counter_rejects_negative_increments(self):
        counter = Counter("c_total", "h")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_counter_rejects_wrong_labels(self):
        counter = Counter("c_total", "h", ("route",))
        with pytest.raises(ValueError, match="expected labels"):
            counter.inc(method="GET")

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g", "h")
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value() == 3

    def test_histogram_observe_and_snapshot(self):
        histogram = Histogram("h_seconds", "h", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["le"] == [0.1, 1.0]
        # Trailing slot is the overflow (+Inf) cumulative == count.
        assert snapshot["cumulative"] == [1, 3, 4]
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(6.05)

    def test_histogram_boundary_lands_in_le_bucket(self):
        # Prometheus buckets are upper-inclusive: observe(0.1) counts in le=0.1.
        histogram = Histogram("h_seconds", "h", buckets=(0.1, 1.0))
        histogram.observe(0.1)
        assert histogram.snapshot()["cumulative"] == [1, 1, 1]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", "h", buckets=(1.0, 0.5))

    def test_registry_returns_same_family_for_same_name(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "h")
        second = registry.counter("a_total", "h")
        assert first is second

    def test_registry_rejects_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "h")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a_total", "h")

    def test_concurrent_increments_do_not_lose_updates(self):
        counter = Counter("c_total", "h")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 8000


class TestExpositionRoundTrip:
    def test_render_parses_strictly(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "Things.", ("kind",))
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        gauge = registry.gauge("repro_level", "Level.")
        gauge.set(0.5)
        histogram = registry.histogram("repro_lat_seconds", "Latency.", buckets=(0.01, 0.1))
        histogram.observe(0.005)
        histogram.observe(0.05)
        histogram.observe(7)
        families = parse_prometheus_text(registry.render())
        assert families["repro_things_total"]["type"] == "counter"
        values = {tuple(sorted(labels.items())): value
                  for _, labels, value in families["repro_things_total"]["samples"]}
        assert values == {(("kind", "a"),): 1, (("kind", "b"),): 3}
        buckets, total_sum, count = histogram_series(
            families["repro_lat_seconds"]["samples"], "repro_lat_seconds"
        )
        assert buckets == [(0.01, 1), (0.1, 2), (math.inf, 3)]
        assert count == 3 and total_sum == pytest.approx(7.055)

    def test_collector_families_render_after_instruments(self):
        registry = MetricsRegistry()
        registry.add_collector(
            lambda: [RawFamily("repro_extra", "gauge", "x", [("repro_extra", {}, 2.0)])]
        )
        families = parse_prometheus_text(registry.render())
        assert families["repro_extra"]["samples"] == [("repro_extra", {}, 2.0)]

    def test_collector_cannot_shadow_an_instrument(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_live_total", "h")
        counter.inc(5)
        registry.add_collector(
            lambda: [RawFamily("repro_live_total", "counter", "fake",
                               [("repro_live_total", {}, 0.0)])]
        )
        families = parse_prometheus_text(registry.render())
        assert families["repro_live_total"]["samples"][0][2] == 5


class TestStrictParser:
    def test_sample_without_type_is_rejected(self):
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            parse_prometheus_text("orphan 1\n")

    def test_unknown_type_is_rejected(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_prometheus_text("# TYPE x thing\nx 1\n")

    def test_non_numeric_value_is_rejected(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE x counter\nx banana\n")

    def test_unquoted_label_value_is_rejected(self):
        with pytest.raises(ValueError, match="not quoted"):
            parse_prometheus_text('# TYPE x counter\nx{a=b} 1\n')

    def test_non_monotone_histogram_is_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n"
        )
        with pytest.raises(ValueError, match="below previous cumulative"):
            parse_prometheus_text(text)

    def test_histogram_missing_inf_bucket_is_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            "h_sum 1\nh_count 1\n"
        )
        with pytest.raises(ValueError, match="missing the \\+Inf"):
            parse_prometheus_text(text)

    def test_inf_bucket_count_mismatch_is_rejected(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 1\nh_count 3\n"
        )
        with pytest.raises(ValueError, match="!= _count"):
            parse_prometheus_text(text)

    def test_check_invariants_is_exported_for_property_tests(self):
        check_histogram_invariants(
            "h", [("h_bucket", {"le": "+Inf"}, 1), ("h_sum", {}, 0.5), ("h_count", {}, 1)]
        )


class TestQuantileBounds:
    def test_quantile_falls_in_the_right_bucket(self):
        buckets = [(0.01, 10), (0.1, 90), (1.0, 100), (math.inf, 100)]
        assert quantile_bounds(buckets, 0.5) == (0.01, 0.1)
        assert quantile_bounds(buckets, 0.99) == (0.1, 1.0)

    def test_empty_histogram_gives_vacuous_bounds(self):
        assert quantile_bounds([], 0.99) == (0.0, math.inf)
        assert quantile_bounds([(math.inf, 0)], 0.99) == (0.0, math.inf)


class TestRouteLabels:
    def test_known_routes_pass_through(self):
        assert route_label("/query") == "/query"
        assert route_label("/stats") == "/stats"

    def test_query_strings_are_stripped(self):
        assert route_label("/explain?document=bib&query=%2F%2Fa") == "/explain"

    def test_catalog_names_collapse_to_one_label(self):
        # Unbounded document names must not mint unbounded label sets.
        assert route_label("/catalog/bib") == "/catalog/{name}"
        assert route_label("/catalog/other-doc") == "/catalog/{name}"

    def test_unknown_paths_collapse_to_other(self):
        assert route_label("/nope") == "other"


@pytest.fixture(params=DISPATCH_PATHS)
def server(request, tmp_path):
    Catalog(str(tmp_path / "cat")).add("bib", BIB_XML)
    server = set_dispatch(create_server(str(tmp_path / "cat"), port=0), request.param)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    assert wait_ready(host, port, timeout=30)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def http_get(server, path):
    host, port = server.server_address[:2]
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=30) as response:
        return response.status, dict(response.headers), response.read()


def http_post(server, path, payload):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


class TestMetricsEndpoint:
    """/metrics on a live server: valid exposition, /stats reconciliation."""

    def test_content_type_and_validity(self, server):
        status, headers, body = http_get(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        families = parse_prometheus_text(body.decode())
        assert "repro_http_requests_total" in families
        assert families["repro_server_info"]["type"] == "gauge"

    def test_request_counts_reconcile_with_stats(self, server):
        for _ in range(4):
            http_post(server, "/query", {"document": "bib", "query": "//author"})
        _, _, body = http_get(server, "/metrics")
        families = parse_prometheus_text(body.decode())
        # The collector reads the same stats_dict /stats serves, so the
        # service-level request counter must agree exactly.
        _, stats_body = http_get(server, "/stats")[0], http_get(server, "/stats")[2]
        stats = json.loads(stats_body)
        metric_requests = sum(
            value for _, _, value in families["repro_requests_total"]["samples"]
        )
        assert metric_requests == stats["service"]["requests"]
        # And the front-end's own per-route counter saw every /query POST.
        query_posts = sum(
            value
            for _, labels, value in families["repro_http_requests_total"]["samples"]
            if labels.get("route") == "/query" and labels.get("method") == "POST"
        )
        assert query_posts == 4

    def test_latency_histogram_counts_every_request(self, server):
        for _ in range(3):
            http_get(server, "/healthz")
        _, _, body = http_get(server, "/metrics")
        families = parse_prometheus_text(body.decode())
        buckets, _, count = histogram_series(
            families["repro_http_request_seconds"]["samples"],
            "repro_http_request_seconds",
            route="/healthz",
        )
        assert count >= 3
        assert buckets[-1][1] == count

    def test_split_vertices_counter_reconciles_with_stats(self, server):
        # <c/> is one vertex shared by x and y, so selecting the children of
        # x alone has to split it.
        server.service.catalog.add("shared", "<r><a><x><c/></x><y><c/></y></a></r>")
        http_post(server, "/query", {"document": "shared", "query": "/r/a/x/c"})
        _, _, body = http_get(server, "/metrics")
        families = parse_prometheus_text(body.decode())
        stats = json.loads(http_get(server, "/stats")[2])
        (sample,) = families["repro_split_vertices_total"]["samples"]
        assert sample[2] == stats["service"]["split_vertices"] == 1

    def test_axis_steps_counter_reconciles_with_stats(self, server):
        # A sibling step always passes over the whole instance; a parent step
        # from a few authors reads their in-edges only.
        for query in ("//title/following-sibling::author", "//author/parent::*"):
            http_post(server, "/query", {"document": "bib", "query": query})
        _, _, body = http_get(server, "/metrics")
        families = parse_prometheus_text(body.decode())
        stats = json.loads(http_get(server, "/stats")[2])
        routes = {
            labels["route"]: value
            for _, labels, value in families["repro_axis_steps_total"]["samples"]
        }
        assert routes == {
            route: float(count) for route, count in stats["service"]["axis_steps"].items()
        }
        assert routes["frontier"] >= 1 and routes["whole"] >= 1

    def test_admission_families_present(self, server):
        http_post(server, "/query", {"document": "bib", "query": "//author"})
        _, _, body = http_get(server, "/metrics")
        families = parse_prometheus_text(body.decode())
        admitted = sum(
            value for _, _, value in families["repro_admission_admitted_total"]["samples"]
        )
        assert admitted >= 1
        shed_reasons = {
            labels["reason"]
            for _, labels, _ in families["repro_admission_shed_total"]["samples"]
        }
        assert shed_reasons == {"queue_full", "rate_limited"}

    def test_frontend_flavor_label(self, server):
        _, _, body = http_get(server, "/metrics")
        families = parse_prometheus_text(body.decode())
        (sample,) = families["repro_server_info"]["samples"]
        assert sample[1] == {"frontend": "async"}
        assert sample[2] == 1


class TestServerMetricsFacade:
    def test_scrape_survives_a_broken_service(self):
        def explode():
            raise RuntimeError("stats are down")

        metrics = ServerMetrics(explode, frontend="async")
        families = parse_prometheus_text(metrics.render())
        assert "repro_http_requests_total" in families  # instruments still render

    def test_observe_request_updates_both_families(self):
        metrics = ServerMetrics(lambda: None)
        metrics.observe_request("/query", "POST", 200, 0.003)
        families = parse_prometheus_text(metrics.render())
        (sample,) = families["repro_http_requests_total"]["samples"]
        assert sample[1] == {"route": "/query", "method": "POST", "status": "200"}
        buckets, total_sum, count = histogram_series(
            families["repro_http_request_seconds"]["samples"],
            "repro_http_request_seconds",
        )
        assert count == 1 and 0 < total_sum < LATENCY_BUCKETS[-1]
