"""Epsilon-aware result-cache semantics (the reuse rule), LRU eviction,
and CRC-framed persistence round-trips.

The asymmetric reuse rule under test: an answer *proven* within
``(1 + ε)`` of optimal may serve any later request asking for
``ε' ≥ ε``; it must never serve a tighter request.
"""

from __future__ import annotations

import dataclasses
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphIndex, QueryExecutor, solve_gst
from repro.errors import StoreCorruptError, StoreError
from repro.graph import generators
from repro.store import result_cache
from repro.store.format import pack_json, write_header, write_record
from repro.store.result_cache import CachedAnswer, ResultCache, result_key


@pytest.fixture(scope="module")
def graph():
    return generators.random_graph(
        40, 80, num_query_labels=6, label_frequency=3, seed=7
    )


@pytest.fixture(scope="module")
def exact_result(graph):
    return solve_gst(graph, ["q0", "q1"])


def loose_answer(result, labels, algorithm="pruneddp++", epsilon=0.5):
    """A CachedAnswer claiming only a (1+epsilon) proof for ``result``."""
    return CachedAnswer(
        labels=tuple(sorted(str(l) for l in labels)),
        algorithm=algorithm,
        weight=result.weight,
        lower_bound=result.weight / (1.0 + epsilon),
        optimal=False,
        epsilon=epsilon,
        tree_nodes=tuple(result.tree.nodes),
        tree_edges=tuple(result.tree.edges),
        created=1000.0,
    )


def install(cache, answer):
    """Insert a hand-built CachedAnswer (bypassing put's proof logic)."""
    cache._entries[result_key(answer.labels, answer.algorithm)] = answer


class TestEpsilonReuseRule:
    def test_exact_serves_everything(self, graph, exact_result):
        cache = ResultCache()
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        for requested in (0.0, 0.1, 0.5, 10.0):
            hit = cache.lookup(["q0", "q1"], "pruneddp++", requested)
            assert hit is not None, requested
            assert hit.epsilon == 0.0

    def test_loose_does_not_serve_tighter(self, graph, exact_result):
        cache = ResultCache()
        install(cache, loose_answer(exact_result, ["q0", "q1"], epsilon=0.5))
        assert cache.lookup(["q0", "q1"], "pruneddp++", 0.1) is None
        assert cache.lookup(["q0", "q1"], "pruneddp++", 0.0) is None
        # ... but the entry stays for looser callers:
        assert cache.lookup(["q0", "q1"], "pruneddp++", 0.5) is not None
        assert cache.lookup(["q0", "q1"], "pruneddp++", 0.9) is not None

    def test_equal_epsilon_serves(self, graph, exact_result):
        cache = ResultCache()
        install(cache, loose_answer(exact_result, ["q0", "q1"], epsilon=0.3))
        assert cache.lookup(["q0", "q1"], "pruneddp++", 0.3) is not None

    def test_tier_mismatch_bypasses(self, graph, exact_result):
        cache = ResultCache()
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        assert cache.lookup(["q0", "q1"], "basic", 1.0) is None
        assert cache.lookup(["q0", "q1"], "pruneddp", 1.0) is None

    def test_label_order_is_canonical(self, graph, exact_result):
        cache = ResultCache()
        cache.put(["q1", "q0"], "pruneddp++", exact_result)
        assert cache.lookup(["q0", "q1"], "pruneddp++", 0.0) is not None

    def test_tighter_answer_replaces_looser(self, graph, exact_result):
        cache = ResultCache()
        install(cache, loose_answer(exact_result, ["q0", "q1"], epsilon=0.5))
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        hit = cache.lookup(["q0", "q1"], "pruneddp++", 0.0)
        assert hit is not None and hit.epsilon == 0.0

    def test_looser_answer_never_degrades_exact(self, graph, exact_result):
        cache = ResultCache()
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        # A later anytime run proving only 1.5x must not clobber it.
        import dataclasses

        loose = dataclasses.replace(
            exact_result, optimal=False,
            lower_bound=exact_result.weight / 1.5,
        )
        cache.put(["q0", "q1"], "pruneddp++", loose)
        hit = cache.lookup(["q0", "q1"], "pruneddp++", 0.0)
        assert hit is not None and hit.optimal

    def test_infeasible_not_cached(self, graph):
        cache = ResultCache()
        import dataclasses

        result = solve_gst(graph, ["q0"])
        broken = dataclasses.replace(result, tree=None, weight=float("inf"))
        assert cache.put(["q0"], "pruneddp++", broken) is None
        assert len(cache) == 0


class TestEviction:
    def test_lru_eviction(self, graph, exact_result, monkeypatch):
        monkeypatch.setattr(result_cache, "MAX_ENTRIES", 2)
        cache = ResultCache()
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        cache.put(["q0", "q2"], "pruneddp++", solve_gst(graph, ["q0", "q2"]))
        cache.lookup(["q0", "q1"], "pruneddp++", 0.0)  # refresh recency
        cache.put(["q0", "q3"], "pruneddp++", solve_gst(graph, ["q0", "q3"]))
        assert cache.counters()["evictions"] == 1
        assert cache.lookup(["q0", "q1"], "pruneddp++", 0.0) is not None
        assert cache.lookup(["q0", "q2"], "pruneddp++", 0.0) is None


class TestRehydration:
    def test_hits_share_one_tree(self, graph, exact_result):
        cache = ResultCache()
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        entry = cache.lookup(["q0", "q1"], "pruneddp++", 0.0)
        first = entry.to_result(("q0", "q1"), "PrunedDP++")
        second = entry.to_result(("q1", "q0"), "PrunedDP++")
        assert first.tree is second.tree is entry.tree
        assert first.stats is not second.stats  # counters stay per result
        assert first.labels == ("q0", "q1") and second.labels == ("q1", "q0")
        assert second == dataclasses.replace(first, labels=("q1", "q0"))
        assert first.tree.edges == exact_result.tree.edges
        assert first.tree.nodes == exact_result.tree.nodes
        assert first.tree.weight == pytest.approx(exact_result.weight)

    def test_executor_hits_share_one_tree(self, graph):
        index = GraphIndex(graph)
        index.result_cache = ResultCache()
        with QueryExecutor(index, max_workers=1) as executor:
            solved = executor.submit(["q0", "q1"]).result()
            hits = [executor.cached(["q0", "q1"]) for _ in range(2)]
        assert solved.trace.result_cache == "miss"
        assert [hit.trace.result_cache for hit in hits] == ["hit", "hit"]
        assert hits[0].result.tree is hits[1].result.tree
        assert hits[0].result == hits[1].result
        assert hits[0].result.weight == solved.result.weight

    def test_record_without_a_tree_is_corrupt(self, exact_result):
        from repro.store.format import pack_json, write_header, write_record

        record = ResultCache().put(
            ["q0", "q1"], "pruneddp++", exact_result
        ).to_record()
        record["tree_nodes"], record["tree_edges"] = [], []
        buf = io.BytesIO()
        write_header(buf)
        write_record(buf, pack_json(record))
        buf.seek(0)
        with pytest.raises(StoreCorruptError, match="malformed cached-answer"):
            ResultCache().load_from(buf)


@pytest.mark.parametrize(
    "field, raw",
    [("tree_nodes", "[1e400]"), ("weight", "1" + "0" * 400)],
    ids=["node-id-infinite", "weight-past-a-float"],
)
def test_overflowing_number_is_corrupt(exact_result, field, raw):
    record = CachedAnswer(
        labels=("q0", "q1"),
        algorithm="pruneddp++",
        weight=exact_result.weight,
        lower_bound=exact_result.weight,
        optimal=True,
        epsilon=0.0,
        tree_nodes=tuple(exact_result.tree.nodes),
        tree_edges=exact_result.tree.edges,
        created=0.0,
    ).to_record()
    record[field] = "RAW"
    buf = io.BytesIO()
    write_header(buf)
    write_record(buf, pack_json(record).replace(b'"RAW"', raw.encode()))
    buf.seek(0)
    with pytest.raises(StoreCorruptError, match="malformed cached-answer"):
        ResultCache().load_from(buf)


class TestPersistence:
    def test_round_trip(self, graph, exact_result):
        cache = ResultCache()
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        install(cache, loose_answer(exact_result, ["q2"], epsilon=0.25))
        buf = io.BytesIO()
        assert cache.save_to(buf) == 2

        buf.seek(0)
        fresh = ResultCache()
        assert fresh.load_from(buf) == 2
        hit = fresh.lookup(["q0", "q1"], "pruneddp++", 0.0)
        assert hit is not None
        assert hit.weight == exact_result.weight
        assert hit.tree_edges  # tree survives the round trip
        # The loose entry kept its proven gap — still refuses tight asks.
        assert fresh.lookup(["q2"], "pruneddp++", 0.1) is None
        assert fresh.lookup(["q2"], "pruneddp++", 0.3) is not None

    def test_rehydrated_result_is_usable(self, graph, exact_result):
        cache = ResultCache()
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        buf = io.BytesIO()
        cache.save_to(buf)
        buf.seek(0)
        fresh = ResultCache()
        fresh.load_from(buf)
        entry = fresh.lookup(["q0", "q1"], "pruneddp++", 0.0)
        result = entry.to_result(("q0", "q1"), "PrunedDP++")
        assert result.algorithm == "PrunedDP++"
        assert result.weight == exact_result.weight
        assert result.optimal == exact_result.optimal
        assert result.tree.weight == pytest.approx(exact_result.tree.weight)

    def test_persisted_created_is_wall_clock(self, exact_result):
        before = time.time()
        entry = ResultCache().put(["q0", "q1"], "pruneddp++", exact_result)
        assert before <= entry.to_record()["created"] <= time.time()

    def test_live_tighter_entry_wins_over_persisted(self, graph, exact_result):
        loose = ResultCache()
        install(loose, loose_answer(exact_result, ["q0", "q1"], epsilon=0.5))
        buf = io.BytesIO()
        loose.save_to(buf)
        buf.seek(0)
        live = ResultCache()
        live.put(["q0", "q1"], "pruneddp++", exact_result)  # exact, live
        assert live.load_from(buf) == 0
        assert live.lookup(["q0", "q1"], "pruneddp++", 0.0) is not None

    def test_malformed_record_raises_typed(self):
        from repro.store.format import pack_json, write_header, write_record

        buf = io.BytesIO()
        write_header(buf)
        write_record(buf, pack_json({"labels": ["a"]}))  # missing keys
        buf.seek(0)
        with pytest.raises(StoreCorruptError, match="malformed cached-answer"):
            ResultCache().load_from(buf)

    def test_truncated_stream_raises_typed(self, graph, exact_result):
        cache = ResultCache()
        cache.put(["q0", "q1"], "pruneddp++", exact_result)
        buf = io.BytesIO()
        cache.save_to(buf)
        truncated = io.BytesIO(buf.getvalue()[:-5])
        with pytest.raises(StoreCorruptError):
            ResultCache().load_from(truncated)


# ----------------------------------------------------------------------
# Fuzz: mutated records load or raise a StoreError, nothing else.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def saved_records(graph, exact_result):
    """The JSON payloads of a persisted cache: exact and loose entries."""
    cache = ResultCache()
    cache.put(["q0", "q1"], "pruneddp++", exact_result)
    install(cache, loose_answer(exact_result, ["q2"], epsilon=0.25))
    return [pack_json(entry.to_record()) for entry in cache.entries()]


def _mutate(data, blob: bytearray, name: str) -> None:
    """Overwrite, insert or delete a few bytes of ``blob`` in place."""
    for _ in range(data.draw(st.integers(0, 4), label=f"{name} edits")):
        edit = data.draw(st.sampled_from(["write", "insert", "delete"]))
        at = data.draw(st.integers(0, len(blob)), label=f"{name} offset")
        byte = data.draw(st.integers(0, 255), label=f"{name} byte")
        if edit == "insert":
            blob[at:at] = bytes([byte])
        elif at < len(blob):
            if edit == "write":
                blob[at] = byte
            else:
                del blob[at]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_result_cache_loads_or_raises_a_store_error(saved_records, data):
    """Mutate a persisted cache's JSON records byte by byte and frame
    them with valid CRCs, then mutate the container too: ``load_from``
    loads entries a lookup can serve or raises a ``StoreError`` (never
    ``struct.error``, ``UnicodeDecodeError`` or ``KeyError``)."""
    buf = io.BytesIO()
    write_header(buf)
    for payload in saved_records:
        record = bytearray(payload)
        _mutate(data, record, "record")
        write_record(buf, bytes(record))
    blob = bytearray(buf.getvalue())
    if data.draw(st.booleans(), label="mutate the container"):
        _mutate(data, blob, "container")
    cache = ResultCache()
    try:
        count = cache.load_from(io.BytesIO(bytes(blob)))
    except StoreError:
        return
    assert count == len(cache)
    for entry in cache.entries():
        assert entry.lower_bound <= entry.weight + 1e-9 * max(1.0, abs(entry.weight))
        result = entry.to_result(entry.labels, "PrunedDP++")
        assert result.tree is entry.tree
