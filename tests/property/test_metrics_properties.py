"""Property tests: histogram invariants hold for any observation stream.

The Prometheus exposition is only useful if its invariants are
unconditional: bucket counts monotone cumulative, the ``+Inf`` bucket
equal to ``_count``, ``_sum`` equal to the sum of observations, and —
end to end — total observations equal to the requests actually issued.
Hypothesis drives the pure instrument with arbitrary value streams and
label mixes; the integration half pins the same invariants on a live
scrape for every (mode × front-end) combination the server supports.
"""

import json
import math
import threading
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.server.catalog import Catalog
from repro.server.http import create_server, wait_ready
from repro.server.metrics import (
    Histogram,
    MetricsRegistry,
    histogram_series,
    parse_prometheus_text,
)

from tests.server.test_async_http import DISPATCH_PATHS, set_dispatch
from tests.skeleton.test_loader import BIB_XML

#: Small bucket ladders chosen adversarially: single-bucket, dense, sparse.
BUCKET_LADDERS = st.sampled_from([
    (0.1,),
    (0.001, 0.01, 0.1, 1.0),
    (1.0, 2.0, 3.0, 4.0, 5.0),
    (0.005, 5.0),
])

#: Observation values straddling every bucket edge, including exact bounds
#: (upper-inclusive per Prometheus), zero, and far-overflow values.
OBSERVATIONS = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.sampled_from([0.0, 0.001, 0.005, 0.01, 0.1, 1.0, 5.0, 1e6]),
    ),
    max_size=200,
)


class TestHistogramInvariants:
    @given(buckets=BUCKET_LADDERS, values=OBSERVATIONS)
    @settings(max_examples=200, deadline=None)
    def test_snapshot_invariants(self, buckets, values):
        histogram = Histogram("h_seconds", "h", buckets=buckets)
        for value in values:
            histogram.observe(value)
        snapshot = histogram.snapshot()
        cumulative = snapshot["cumulative"]
        # Monotone cumulative, ending in the total observation count.
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == snapshot["count"] == len(values)
        assert snapshot["sum"] == pytest.approx(sum(values))
        # Upper-inclusive bucketing: every value <= bound is inside it.
        for bound, running in zip(snapshot["le"], cumulative):
            assert running == sum(1 for value in values if value <= bound)

    @given(
        buckets=BUCKET_LADDERS,
        series=st.dictionaries(
            st.sampled_from(["/query", "/stats", "a b", 'quo"te', "back\\slash"]),
            OBSERVATIONS,
            max_size=3,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_render_parse_round_trip(self, buckets, series):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_test_seconds", "h", ("route",), buckets=buckets
        )
        for route, values in series.items():
            for value in values:
                histogram.observe(value, route=route)
        # The strict parser enforces the histogram invariants itself —
        # parse failure IS the property failure.
        families = parse_prometheus_text(registry.render())
        if not series:
            return
        samples = families["repro_test_seconds"]["samples"]
        for route, values in series.items():
            rows, total_sum, count = histogram_series(
                samples, "repro_test_seconds", route=route
            )
            if not values:
                # A label set never observed emits no series at all.
                assert rows == [] and count == 0
                continue
            assert count == len(values)
            assert total_sum == pytest.approx(sum(values))
            assert rows[-1] == (math.inf, len(values))
            counts = [value for _, value in rows]
            assert all(a <= b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("dispatch", DISPATCH_PATHS)
def test_live_scrape_observations_equal_requests_issued(tmp_path, dispatch):
    """End to end: every request issued is exactly one histogram observation."""
    catalog_dir = str(tmp_path / "cat")
    Catalog(catalog_dir).add("bib", BIB_XML)
    server = set_dispatch(create_server(catalog_dir, port=0), dispatch)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    assert wait_ready(host, port, timeout=30)
    base = f"http://{host}:{port}"
    issued = {"/query": 0, "/healthz": 0}
    try:
        # wait_ready() already probed /healthz: measure deltas from a
        # baseline scrape, not absolute counts.
        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
            before = parse_prometheus_text(response.read().decode())
        baseline = {
            route: histogram_series(
                before["repro_http_request_seconds"]["samples"],
                "repro_http_request_seconds",
                route=route,
            )[2]
            for route in issued
        }
        for index in range(7):
            request = urllib.request.Request(
                f"{base}/query",
                data=json.dumps({"document": "bib", "query": "//author"}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
            issued["/query"] += 1
        for index in range(3):
            with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
                assert response.status == 200
            issued["/healthz"] += 1
        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
            families = parse_prometheus_text(response.read().decode())
        samples = families["repro_http_request_seconds"]["samples"]
        for route, expected in issued.items():
            rows, _, count = histogram_series(
                samples, "repro_http_request_seconds", route=route
            )
            assert count - baseline[route] == expected, (dispatch, route)
            assert rows[-1] == (math.inf, count)
        # The per-route counter family tells the same story.
        requests_total = sum(
            value
            for _, labels, value in families["repro_http_requests_total"]["samples"]
            if labels["route"] in issued
        )
        assert requests_total == sum(issued.values()) + sum(baseline.values())
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=10)
