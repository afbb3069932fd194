"""``GET /metrics``: exposition validity, monotonicity, layer coverage."""

import re
import threading
import time
import urllib.request

import pytest

from repro.core import KiNETGAN, KiNETGANConfig
from repro.engine import MetricsCallback, TrainingEngine
from repro.obs import MetricsRegistry, default_registry
from repro.serve import SamplingHTTPServer, ServingPool, fetch_json, request_samples, save_model

# One exposition line: name{labels} value (labels optional); or HELP/TYPE.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (-?[0-9][0-9.eE+-]*|[+-]Inf|NaN)$"
)
_META_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


def assert_valid_exposition(text: str) -> None:
    assert text.endswith("\n")
    for line in text.rstrip("\n").splitlines():
        pattern = _META_RE if line.startswith("#") else _SAMPLE_RE
        assert pattern.match(line), line


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, lab_bundle_small):
    config = KiNETGANConfig(
        embedding_dim=8,
        generator_dims=(16,),
        discriminator_dims=(16,),
        epochs=1,
        batch_size=32,
        knowledge_negatives_per_batch=8,
        max_modes=3,
        seed=0,
    )
    model = KiNETGAN(config)
    model.fit(
        lab_bundle_small.table.head(300),
        catalog=lab_bundle_small.catalog,
        condition_columns=lab_bundle_small.condition_columns,
    )
    path = tmp_path_factory.mktemp("obs-serve") / "model"
    save_model(model, path)
    return path


def _scrape(url: str) -> str:
    with urllib.request.urlopen(url + "/metrics") as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode("utf-8")


def _counter_total(registry: MetricsRegistry, name: str, **fixed) -> float:
    total = 0.0
    for sample in registry.snapshot().get(name, {}).get("samples", []):
        if all(sample["labels"].get(k) == v for k, v in fixed.items()):
            total += sample["value"]
    return total


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_covers_all_three_layers(self, artifact):
        # Train one tiny engine loop with a MetricsCallback so the engine
        # family exists in the default registry alongside the runtime and
        # serving families the request itself produces.
        class _Step:
            def begin_epoch(self, rng, epoch):
                return None

            def step(self, rng, batch_index):
                return {"loss": 1.0}

            def checkpoint_targets(self):
                return {}

        TrainingEngine(
            _Step(), epochs=2, callbacks=[MetricsCallback(prefix="obs-test")]
        ).run()

        with ServingPool({"m": artifact}, executor="thread:2") as pool:
            with SamplingHTTPServer(pool, port=0) as server:
                request_samples(server.url, "m", 8, seed=1)
                text = _scrape(server.url)
        assert_valid_exposition(text)
        # serving layer
        assert 'repro_http_requests_total{outcome="served"}' in text
        assert "repro_http_request_seconds_bucket" in text
        assert "repro_http_queue_depth" in text
        # runtime layer
        assert 'repro_tasks_dispatched_total{executor="thread"}' in text
        assert "repro_task_seconds_bucket" in text
        # engine layer
        assert 'repro_engine_epochs_total{loop="obs-test"} 2' in text
        assert 'repro_engine_metric{loop="obs-test",metric="loss"} 1' in text
        assert "repro_engine_epoch_seconds_bucket" in text

    def test_json_snapshot_matches_registry_shape(self, artifact):
        with ServingPool({"m": artifact}, executor=None) as pool:
            with SamplingHTTPServer(pool, port=0) as server:
                request_samples(server.url, "m", 4, seed=0)
                snapshot = fetch_json(server.url, "/metrics?format=json")
        family = snapshot["repro_http_requests_total"]
        assert family["kind"] == "counter"
        outcomes = {sample["labels"]["outcome"] for sample in family["samples"]}
        assert {"admitted", "served", "rejected"} <= outcomes

    def test_counters_are_monotonic_under_a_burst(self, artifact):
        registry = MetricsRegistry()
        with ServingPool({"m": artifact}, executor="thread:2") as pool:
            with SamplingHTTPServer(pool, port=0, registry=registry) as server:
                url = server.url
                seen = []

                def client(slot):
                    for i in range(6):
                        request_samples(url, "m", 4, seed=slot * 100 + i)

                threads = [threading.Thread(target=client, args=(slot,)) for slot in range(3)]
                for thread in threads:
                    thread.start()
                # Sample the served counter while the burst runs; it must
                # never move backwards.
                for _ in range(50):
                    seen.append(_counter_total(registry, "repro_http_requests_total",
                                               outcome="served"))
                for thread in threads:
                    thread.join()
                seen.append(_counter_total(registry, "repro_http_requests_total",
                                           outcome="served"))
        assert seen == sorted(seen)
        assert seen[-1] == 18.0
        assert _counter_total(registry, "repro_http_requests_total", outcome="admitted") == 18.0

    def test_a_received_reply_is_already_recorded(self, artifact, monkeypatch):
        # A slow latency recorder must not let a client that already holds
        # its reply scrape /metrics without that request in it.
        record = SamplingHTTPServer._observe_request

        def slow_record(self, endpoint, status, seconds):
            time.sleep(0.2)
            record(self, endpoint, status, seconds)

        monkeypatch.setattr(SamplingHTTPServer, "_observe_request", slow_record)
        registry = MetricsRegistry()
        with ServingPool({"m": artifact}, executor=None) as pool:
            with SamplingHTTPServer(pool, port=0, registry=registry) as server:
                request_samples(server.url, "m", 4, seed=0)
                text = _scrape(server.url)
        assert 'repro_http_request_seconds_count{endpoint="/sample",status="200"} 1' in text

    def test_private_registry_isolates_a_server(self, artifact):
        registry = MetricsRegistry()
        before = _counter_total(default_registry(), "repro_http_requests_total",
                                outcome="admitted")
        with ServingPool({"m": artifact}, executor=None) as pool:
            with SamplingHTTPServer(pool, port=0, registry=registry) as server:
                request_samples(server.url, "m", 4, seed=0)
                text = _scrape(server.url)
        assert 'repro_http_requests_total{outcome="served"} 1' in text
        after = _counter_total(default_registry(), "repro_http_requests_total",
                               outcome="admitted")
        assert after == before  # nothing leaked into the process registry


class TestHealthRuntimeSection:
    def test_health_surfaces_runtime_counters(self, artifact):
        with ServingPool({"m": artifact}, executor="thread:2") as pool:
            with SamplingHTTPServer(pool, port=0) as server:
                request_samples(server.url, "m", 4, seed=1)
                request_samples(server.url, "m", 4, seed=2)
                health = fetch_json(server.url, "/health")
        runtime = health["runtime"]
        assert runtime["executor"] == "thread"
        assert runtime["respawns"] == 0
        tasks = runtime["tasks"]
        # Process-wide totals for this executor kind: at least this
        # server's two dispatches, and internally consistent.
        assert tasks["dispatched"] >= 2
        assert tasks["completed"] >= 2
        assert tasks["completed"] <= tasks["dispatched"]
        for key in ("retries", "timeouts", "crashes", "errors"):
            assert tasks[key] >= 0

    def test_stats_snapshot_unchanged_by_registry_mirroring(self, artifact):
        with ServingPool({"m": artifact}, executor=None) as pool:
            with SamplingHTTPServer(pool, port=0) as server:
                request_samples(server.url, "m", 4, seed=1)
                snapshot = server.stats.snapshot()
        assert snapshot == {
            "admitted": 1,
            "served": 1,
            "rejected": 0,
            "timeouts": 0,
            "errors": 0,
            "invalid": 0,
        }
