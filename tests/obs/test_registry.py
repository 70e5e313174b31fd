"""Tests for the metrics registry primitives and the exposition codec."""

import math
import sys
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
    parse_exposition,
)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_ops_total", "ops")
        assert counter.value() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("t_ops_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_children_are_independent(self):
        counter = MetricsRegistry().counter("t_by_status_total", "x", ("status",))
        counter.labels(status="ok").inc(3)
        counter.labels("err").inc()
        assert counter.value(status="ok") == 3
        assert counter.value(status="err") == 1
        # Same label values resolve the same child.
        counter.labels(status="ok").inc()
        assert counter.labels("ok").value == 4

    def test_unlabeled_use_of_labeled_family_rejected(self):
        counter = MetricsRegistry().counter("t_by_status_total", "x", ("status",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.labels("a", "b")
        with pytest.raises(ValueError):
            counter.labels(wrong="x")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("t_depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value() == 3.0

    def test_can_go_negative(self):
        gauge = MetricsRegistry().gauge("t_depth")
        gauge.dec()
        assert gauge.value() == -1.0


class TestHistogram:
    def test_cumulative_buckets_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "s", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        sample = registry.get("t_seconds").samples()[0]
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(55.55)
        assert sample["buckets"] == {"0.1": 1, "1": 2, "10": 3, "+Inf": 4}

    def test_boundary_value_lands_in_its_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", buckets=(1.0,))
        hist.observe(1.0)  # le is inclusive
        sample = registry.get("t_seconds").samples()[0]
        assert sample["buckets"]["1"] == 1

    def test_rejects_empty_or_duplicate_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("t_bad", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("t_bad2", buckets=(1.0, 1.0))


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("t_total", "help", ("x",))
        b = registry.counter("t_total", "other help ignored", ("x",))
        assert a is b

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("t_total")

    def test_labelnames_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "", ("a",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("t_total", "", ("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad")
        with pytest.raises(ValueError):
            registry.counter("has space")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "", ("0bad",))

    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("t_total", "", ("s",)).labels(s="ok").inc()
        registry.histogram("t_seconds").observe(0.5)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["t_total"]["samples"][0]["value"] == 1

    def test_default_registry_is_a_singleton(self):
        assert get_registry() is get_registry()


class TestLookupFastPath:
    """Existing families and children are plain dict reads."""

    def test_repeated_lookup_returns_the_same_child(self):
        counter = MetricsRegistry().counter("t_total", "", ("a", "b"))
        child = counter.labels("x", "y")
        assert counter.labels("x", "y") is child
        assert counter.labels(a="x", b="y") is child
        assert counter.labels(b="y", a="x") is child
        assert counter.labels("y", "x") is not child

    def test_new_label_values_are_validated_and_stringified(self):
        counter = MetricsRegistry().counter("t_total", "", ("worker",))
        child = counter.labels(1)
        assert counter.labels("1") is child
        assert counter.labels(worker=1) is child
        assert counter.labels(1) is child
        counter.labels(["unhashable"]).inc()
        assert counter.value(worker="['unhashable']") == 1
        assert [s["labels"] for s in counter.samples()] == [
            {"worker": "1"}, {"worker": "['unhashable']"},
        ]
        # An existing child never lets a malformed lookup through.
        with pytest.raises(ValueError):
            counter.labels(wrong="1")
        with pytest.raises(ValueError):
            counter.labels("1", "2")
        with pytest.raises(ValueError):
            counter.labels("1", worker="1")

    def test_family_lookup_still_checks_type_and_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "", ("a",))
        assert registry.counter("t_total", "", ("a",)) is family
        assert registry.counter("t_total", "", ["a"]) is family
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("t_total", "", ("a",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("t_total", "", ("b",))

    def test_reset_then_recording_recreates_the_families(self):
        from repro.obs import instruments

        class Trace:
            status, algorithm, requested_algorithm = "ok", "basic", None
            wall_seconds, ratio, stats = 0.01, 1.0, {"states_popped": 3}
            stages = {"search": 0.005}
            cache_hits = cache_misses = 1
            result_cache = "miss"
            attempts, degraded, checkpoints = 1, False, 0
            resumed_from = worker_restarts = watchdog_kills = None

        registry = MetricsRegistry()
        instruments.record_query_trace(Trace, registry)
        stale = instruments.queries_total(registry)
        registry.reset()
        assert registry.names() == []
        instruments.record_query_trace(Trace, registry)
        fresh = instruments.queries_total(registry)
        assert fresh is not stale
        assert fresh.value(status="ok", algorithm="basic") == 1
        assert instruments.engine_events(registry).value(event="popped") == 3
        parse_exposition(registry.render_exposition())


# ----------------------------------------------------------------------
# Concurrency torture: totals must be exact, not approximate.
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_threaded_totals_are_exact(self):
        registry = MetricsRegistry()
        threads_n, iters = 8, 2000
        barrier = threading.Barrier(threads_n)

        def worker(worker_id: int) -> None:
            barrier.wait()
            # Families are get-or-create from every thread at once.
            counter = registry.counter("t_ops_total", "", ("worker",))
            gauge = registry.gauge("t_depth")
            hist = registry.histogram("t_seconds", buckets=(0.5, 1.0))
            child = counter.labels(worker=str(worker_id % 2))
            for i in range(iters):
                child.inc()
                gauge.inc()
                gauge.dec()
                hist.observe((i % 2) * 1.0)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        counter = registry.counter("t_ops_total", "", ("worker",))
        total = counter.value(worker="0") + counter.value(worker="1")
        assert total == threads_n * iters
        assert registry.gauge("t_depth").value() == 0.0
        sample = registry.get("t_seconds").samples()[0]
        assert sample["count"] == threads_n * iters
        assert sample["buckets"]["+Inf"] == threads_n * iters
        # Cumulative bucket invariant survives the torture.
        assert sample["buckets"]["0.5"] == threads_n * iters // 2
        assert sample["buckets"]["1"] == threads_n * iters

    def test_lookups_racing_child_creation_lose_nothing(self):
        """Lock-free lookups while other threads create children: each
        label value gets exactly one child and every increment lands."""
        registry = MetricsRegistry()
        threads_n, values = 8, 20000
        barrier = threading.Barrier(threads_n)

        def worker(worker_id: int) -> None:
            barrier.wait()
            family = registry.counter("t_race_total", "", ("v",))
            # Every thread walks the same new values, so most lookups
            # race another thread creating that child.
            for i in range(values):
                family.labels(str(i)).inc()

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)
        samples = registry.get("t_race_total").samples()
        assert len(samples) == values
        assert {s["value"] for s in samples} == {threads_n}

    def test_concurrent_registration_returns_one_family(self):
        registry = MetricsRegistry()
        results = []
        barrier = threading.Barrier(8)

        def register() -> None:
            barrier.wait()
            results.append(registry.counter("t_race_total", "", ("k",)))

        threads = [threading.Thread(target=register) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(metric is results[0] for metric in results)


# ----------------------------------------------------------------------
# Exposition render + parse round-trip
# ----------------------------------------------------------------------
class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        counter = registry.counter(
            "gst_queries_total", "Queries by status.", ("status", "algorithm")
        )
        counter.labels(status="ok", algorithm="pruneddp++").inc(3)
        counter.labels(status="error", algorithm="basic").inc()
        registry.gauge("gst_inflight", "Now running.").set(2)
        hist = registry.histogram(
            "gst_query_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(5.0)
        return registry

    def test_render_has_help_type_and_samples(self):
        text = self._populated().render_exposition()
        assert "# HELP gst_queries_total Queries by status.\n" in text
        assert "# TYPE gst_queries_total counter\n" in text
        assert (
            'gst_queries_total{status="ok",algorithm="pruneddp++"} 3\n' in text
        )
        assert "gst_inflight 2\n" in text
        assert 'gst_query_seconds_bucket{le="+Inf"} 2\n' in text
        assert "gst_query_seconds_sum 5.05\n" in text
        assert "gst_query_seconds_count 2\n" in text
        assert text.endswith("\n")

    def test_round_trip_parses_back(self):
        registry = self._populated()
        families = parse_exposition(registry.render_exposition())
        assert families["gst_queries_total"]["type"] == "counter"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in families["gst_queries_total"]["samples"]
        }
        key = (
            "gst_queries_total",
            (("algorithm", "pruneddp++"), ("status", "ok")),
        )
        assert samples[key] == 3
        hist = families["gst_query_seconds"]
        assert hist["type"] == "histogram"
        names = {name for name, _, _ in hist["samples"]}
        assert names == {
            "gst_query_seconds_bucket",
            "gst_query_seconds_sum",
            "gst_query_seconds_count",
        }

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        nasty = 'a"b\\c\nd'
        registry.counter("t_total", "", ("k",)).labels(k=nasty).inc()
        families = parse_exposition(registry.render_exposition())
        (_, labels, value) = families["t_total"]["samples"][0]
        assert labels == {"k": nasty}
        assert value == 1

    def test_inf_and_large_values_render(self):
        registry = MetricsRegistry()
        registry.gauge("t_weight").set(math.inf)
        families = parse_exposition(registry.render_exposition())
        assert families["t_weight"]["samples"][0][2] == math.inf

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("not a metric line at all!")
        with pytest.raises(ValueError):
            parse_exposition("# TYPE x sideways\n")
        with pytest.raises(ValueError):
            parse_exposition('t_total{k="unterminated} 1\n')

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_exposition() == ""
        assert parse_exposition("") == {}

    def test_default_buckets_are_sorted_and_positive(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert all(b > 0 for b in DEFAULT_LATENCY_BUCKETS)
