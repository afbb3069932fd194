"""MetricsRegistry: instruments, thread safety, and the two exporters."""

import math
import re
import threading

import pytest

from repro.obs import DEFAULT_BUCKETS, MetricsRegistry, default_registry, set_default_registry

# One exposition line: name{labels} value  (labels optional).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (-?[0-9][0-9.eE+-]*|[+-]Inf|NaN)$"
)
_META_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def assert_valid_exposition(text: str) -> None:
    """Every line is a HELP/TYPE comment or a well-formed sample line."""
    assert text.endswith("\n")
    for line in text.rstrip("\n").splitlines():
        if line.startswith("#"):
            assert _META_RE.match(line), line
        else:
            assert _SAMPLE_RE.match(line), line


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_children_are_cached_per_label_set(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels={"k": "a"})
        again = registry.counter("c_total", labels={"k": "a"})
        b = registry.counter("c_total", labels={"k": "b"})
        assert a is again and a is not b

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.dec(1.5)
        gauge.inc()
        assert gauge.value == 4.5

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 7.0):
            histogram.observe(value)
        assert histogram.cumulative() == [(0.1, 1), (1.0, 3), (math.inf, 4)]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(8.05)

    def test_histogram_boundary_value_lands_in_its_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0,))
        histogram.observe(1.0)  # le="1" is inclusive, Prometheus-style
        assert histogram.cumulative()[0] == (1.0, 1)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labels={"bad-label": "x"})

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestExposition:
    def test_full_document_is_valid_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total", help="second family").inc(2)
        registry.counter("a_total", help="first family", labels={"k": "v"}).inc()
        registry.gauge("z_gauge").set(-1.25)
        registry.histogram("h_seconds", help="latency").observe(0.2)
        text = registry.prometheus_text()
        assert_valid_exposition(text)
        names = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")]
        assert names == sorted(names)
        assert 'a_total{k="v"} 1' in text
        assert "z_gauge -1.25" in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"k": 'a"b\\c\nd'}).inc()
        text = registry.prometheus_text()
        assert 'k="a\\"b\\\\c\\nd"' in text
        assert_valid_exposition(text)

    def test_non_finite_gauges_render_as_prometheus_tokens(self):
        # One NaN gauge (a diverged loss, say) must not break the scrape.
        registry = MetricsRegistry()
        registry.gauge("nan_gauge").set(float("nan"))
        registry.gauge("inf_gauge").set(float("-inf"))
        text = registry.prometheus_text()
        assert_valid_exposition(text)
        assert "nan_gauge NaN" in text
        assert "inf_gauge -Inf" in text

    def test_empty_registry_exports_empty_document(self):
        assert MetricsRegistry().prometheus_text() == ""

    def test_snapshot_round_trips_through_json(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c_total", labels={"k": "v"}).inc(3)
        registry.histogram("h_seconds", buckets=(0.5,)).observe(0.1)
        snapshot = json.loads(registry.snapshot_json())
        assert snapshot["c_total"]["kind"] == "counter"
        assert snapshot["c_total"]["samples"][0] == {"labels": {"k": "v"}, "value": 3}
        buckets = snapshot["h_seconds"]["samples"][0]["buckets"]
        assert buckets[-1]["le"] == "+Inf"
        assert buckets[-1]["count"] == 1

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestDefaultRegistry:
    def test_swap_and_restore(self):
        mine = MetricsRegistry()
        previous = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(previous)
        assert default_registry() is previous

    def test_value_lookup(self):
        registry = MetricsRegistry()
        assert registry.value("missing_total") is None
        registry.counter("c_total", labels={"k": "v"}).inc(4)
        assert registry.value("c_total", {"k": "v"}) == 4
        assert registry.value("c_total", {"k": "other"}) is None
