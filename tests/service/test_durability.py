"""The durability layer's contract: checkpoint, crash, resume, certify.

Three layers of guarantee, each tested against the real engine:

* **Checkpoint round-trip** — an engine checkpoint serializes the full
  frontier (queue, pending, settled store, incumbent, global bound) and
  a restored engine finishes with exactly the uninterrupted run's
  answer.
* **Fail-closed corruption handling** — truncated files, flipped CRC
  bytes, version skew, and wrong-graph fingerprints each raise their
  typed :class:`~repro.errors.StoreError` subclass, and the execution
  path falls back to a cold solve instead of wedging.
* **Crash containment** — a fleet worker SIGKILLed mid-search is
  respawned, resumes from its latest checkpoint, and delivers a
  certified answer identical in weight to an uninterrupted run; memory
  watchdog and hard-timeout kills surface as retryable
  :class:`~repro.errors.WorkerCrashedError`, and a slot whose worker
  died (or idles over the RSS limit) serves the next query on a fresh
  worker without charging it a restart.
"""

from __future__ import annotations

import copy
import io
import os
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GSTQuery, QueryContext, SearchEngine
from repro.core.budget import Budget, CancellationToken
from repro.errors import (
    CheckpointRangeError,
    StoreCorruptError,
    StoreError,
    StoreFingerprintError,
    StoreVersionError,
    WorkerCrashedError,
)
from repro.graph import generators
from repro.service import (
    Checkpointer,
    FleetPool,
    GraphIndex,
    QueryExecutor,
    WorkerPolicy,
    checkpointed_execute,
    read_checkpoint,
    resume_query,
    write_checkpoint,
)
from repro.service.durability import checkpoint_meta, checkpoint_path
from repro.store.format import pack_json, write_header, write_record
from repro.verify.certify import certify_result

LABELS = ("q0", "q1", "q2", "q3", "q4")


@pytest.fixture(scope="module")
def graph():
    # Big enough that a 5-label query pops >1000 states (the engine
    # checks limits every 256 pops, so anything smaller can prove
    # optimality before an interruption ever lands): room for
    # interruption, checkpoint cadence, and resume to all matter.
    return generators.random_graph(
        400, 1200, num_query_labels=6, label_frequency=8, seed=7
    )


@pytest.fixture(scope="module")
def index(graph):
    return GraphIndex(graph)


@pytest.fixture(scope="module")
def reference(index):
    """The uninterrupted run every resumed answer must match."""
    outcome = index.execute(LABELS, algorithm="pruneddp++")
    assert outcome.ok and outcome.result.optimal
    return outcome.result


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _interrupt(index, tmp_path, *, algorithm="pruneddp++", max_states=150):
    """Run until ``max_states`` with a tight cadence; return the path."""
    policy = WorkerPolicy(checkpoint_every_pops=25, checkpoint_every_seconds=None)
    outcome = checkpointed_execute(
        index,
        LABELS,
        algorithm=algorithm,
        budget=Budget(max_states=max_states),
        checkpoint_dir=str(tmp_path),
        policy=policy,
    )
    assert outcome.ok
    assert not outcome.result.optimal, "query must be interrupted mid-search"
    assert outcome.trace.checkpoints >= 1
    path = checkpoint_path(str(tmp_path), index.snapshot.fingerprint, LABELS)
    assert os.path.exists(path)
    return path


# ----------------------------------------------------------------------
# Checkpoint / resume equivalence
# ----------------------------------------------------------------------
class TestResumeEquivalence:
    def test_resume_matches_uninterrupted_run(self, index, reference, tmp_path):
        path = _interrupt(index, tmp_path)
        outcome = resume_query(index, path)
        assert outcome.ok
        assert outcome.result.optimal
        assert outcome.result.weight == pytest.approx(reference.weight)
        assert outcome.trace.resumed_from == path
        # A proven-optimal finish discards its checkpoint.
        assert not os.path.exists(path)

    def test_resumed_answer_certifies(self, graph, index, tmp_path):
        path = _interrupt(index, tmp_path)
        outcome = resume_query(index, path)
        certificate = certify_result(graph, outcome.result, labels=LABELS)
        assert certificate.ok, certificate

    def test_resume_at_random_pop_counts(self, index, reference, tmp_path):
        # Kill the search at assorted depths; every resume must converge
        # to the same optimal weight.
        for i, max_states in enumerate((40, 90, 260)):
            sub = tmp_path / f"cut{i}"
            sub.mkdir()
            path = _interrupt(index, sub, max_states=max_states)
            outcome = resume_query(index, path)
            assert outcome.ok and outcome.result.optimal
            assert outcome.result.weight == pytest.approx(reference.weight)

    def test_resume_is_cumulative_not_cold(self, index, reference, tmp_path):
        path = _interrupt(index, tmp_path, max_states=150)
        outcome = resume_query(index, path)
        # Counters are cumulative across the interruption: the resumed
        # total matches the uninterrupted run, so no work was redone.
        assert (
            outcome.result.stats.states_popped
            == reference.stats.states_popped
        )


    def test_checkpoint_after_the_preprocessing_point(
        self, graph, reference, tmp_path
    ):
        """A cold query checkpointed mid-search saves its early answer;
        the resumed stream goes on monotone from it and reports no new
        preprocessing point, though its labels are cold again."""
        before, after = [], []
        outcome = checkpointed_execute(
            GraphIndex(graph),
            LABELS,
            algorithm="pruneddp++",
            budget=Budget(max_states=150),
            checkpoint_dir=str(tmp_path),
            on_progress=before.append,
        )
        assert outcome.ok and not outcome.result.optimal
        init = outcome.result.stats.init_seconds
        assert before and before[0].elapsed < init  # made by the sweeps
        path = checkpoint_path(
            str(tmp_path), graph.freeze().fingerprint, LABELS
        )
        _, state = read_checkpoint(path)
        assert state["floor"] is not None
        resumed = resume_query(GraphIndex(graph), path, on_progress=after.append)
        assert resumed.ok and resumed.result.optimal
        assert resumed.result.weight == pytest.approx(reference.weight)
        # The resumed clock goes on from the checkpoint's; a new
        # preprocessing point would be stamped from zero.
        assert after and all(p.elapsed >= state["elapsed"] for p in after)
        stream = before + after
        for earlier, later in zip(stream, stream[1:]):
            # The exit checkpoint is written after the interrupted
            # stream's last point, so the resumed clock never goes back.
            assert later.elapsed >= earlier.elapsed
            assert later.best_weight <= earlier.best_weight + 1e-9
            assert later.lower_bound >= earlier.lower_bound - 1e-9
            assert later.ratio <= earlier.ratio + 1e-12
        certify_result(graph, resumed.result).raise_if_failed()


# ----------------------------------------------------------------------
# Corruption: typed errors + cold-solve fallback
# ----------------------------------------------------------------------
class TestCheckpointCorruption:
    def _checkpoint(self, index, tmp_path):
        return _interrupt(index, tmp_path)

    def test_truncated_file(self, index, tmp_path):
        path = self._checkpoint(index, tmp_path)
        data = _read_bytes(path)
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(StoreCorruptError):
            read_checkpoint(path)

    def test_flipped_crc_byte(self, index, tmp_path):
        path = self._checkpoint(index, tmp_path)
        data = bytearray(_read_bytes(path))
        data[-1] ^= 0xFF  # flip a payload byte: CRC no longer matches
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(StoreCorruptError):
            read_checkpoint(path)

    def test_version_skew(self, index, tmp_path):
        path = self._checkpoint(index, tmp_path)
        meta, state = read_checkpoint(path)
        meta["checkpoint_version"] = 999
        write_checkpoint(path, meta, state)
        with pytest.raises(StoreVersionError):
            read_checkpoint(path)

    def test_container_version_skew(self, index, tmp_path):
        path = self._checkpoint(index, tmp_path)
        data = bytearray(_read_bytes(path))
        # Bump the container format version in the 12-byte header.
        data[8:12] = struct.pack("<I", 999)
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(StoreVersionError):
            read_checkpoint(path)

    def test_fingerprint_mismatch(self, index, tmp_path):
        path = self._checkpoint(index, tmp_path)
        with pytest.raises(StoreFingerprintError):
            read_checkpoint(path, expect_fingerprint="not-this-graph")
        # And resume_query, which always binds to the live index, must
        # refuse a checkpoint rebound to another graph.
        meta, state = read_checkpoint(path)
        meta["fingerprint"] = "deadbeef" * 8
        write_checkpoint(path, meta, state)
        with pytest.raises(StoreFingerprintError):
            resume_query(index, path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreCorruptError):
            read_checkpoint(str(tmp_path / "nope.ckpt"))

    @pytest.mark.parametrize(
        "corrupt",
        ["truncate", "crc", "version", "fingerprint"],
        ids=["truncated", "crc-flip", "version-skew", "wrong-graph"],
    )
    def test_cold_solve_fallback(self, index, reference, tmp_path, corrupt):
        # Every corruption mode falls back to a *cold solve* through
        # checkpointed_execute: the broken file is removed, the query
        # still answers, and nothing was "resumed".
        path = self._checkpoint(index, tmp_path)
        if corrupt == "truncate":
            data = _read_bytes(path)
            with open(path, "wb") as fh:
                fh.write(data[: len(data) // 2])
        elif corrupt == "crc":
            data = bytearray(_read_bytes(path))
            data[-1] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(bytes(data))
        elif corrupt == "version":
            meta, state = read_checkpoint(path)
            meta["checkpoint_version"] = 999
            write_checkpoint(path, meta, state)
        else:
            meta, state = read_checkpoint(path)
            meta["fingerprint"] = "deadbeef" * 8
            write_checkpoint(path, meta, state)
        outcome = checkpointed_execute(
            index, LABELS, algorithm="pruneddp++", checkpoint_dir=str(tmp_path)
        )
        assert outcome.ok
        assert outcome.trace.resumed_from is None
        assert outcome.result.optimal
        assert outcome.result.weight == pytest.approx(reference.weight)


def _rewrite(path, edit):
    """Apply ``edit(meta, state)`` and write a CRC-valid checkpoint back."""
    meta, state = read_checkpoint(path)
    edit(meta, state)
    write_checkpoint(path, meta, state)


# CRC-valid records without what the readers use: each is corrupt.
MALFORMED_RECORDS = {
    "meta-without-algorithm": lambda meta, state: meta.pop("algorithm"),
    "meta-labels-not-a-list": lambda meta, state: meta.update(labels=5),
    "empty-state": lambda meta, state: state.clear(),
}


def _bogus_backpointer(index, state):
    state["pending"][0][2] = ["bogus", 1]


def _node_past_graph(index, state):
    key_bits = state["key_bits"]
    packed = state["settled"][0][0]
    mask = packed & ((1 << key_bits) - 1)
    state["settled"][0][0] = (index.num_nodes << key_bits) | mask


# Rows a reader cannot use: a backpointer of no known kind is caught by
# read_checkpoint, a node past the graph by the engine's restore.
UNUSABLE_ROWS = {
    "bogus-backpointer": _bogus_backpointer,
    "node-past-graph": _node_past_graph,
}


class TestMalformedRecords:
    @pytest.mark.parametrize("edit", sorted(MALFORMED_RECORDS))
    def test_resume_raises_typed(self, index, tmp_path, edit):
        path = _interrupt(index, tmp_path)
        _rewrite(path, MALFORMED_RECORDS[edit])
        with pytest.raises(StoreCorruptError, match="malformed|meta"):
            resume_query(index, path)

    @pytest.mark.parametrize("edit", sorted(MALFORMED_RECORDS))
    def test_checkpointed_execute_solves_cold(
        self, index, reference, tmp_path, edit
    ):
        path = _interrupt(index, tmp_path)
        _rewrite(path, MALFORMED_RECORDS[edit])
        outcome = checkpointed_execute(
            index, LABELS, algorithm="pruneddp++", checkpoint_dir=str(tmp_path)
        )
        assert outcome.ok and outcome.result.optimal
        assert outcome.trace.resumed_from is None
        assert outcome.result.weight == pytest.approx(reference.weight)
        assert not os.path.exists(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta, state: meta.update(labels=["q0", None]),
            lambda meta, state: meta.update(algorithm=7),
            lambda meta, state: state.update(key_bits=state["key_bits"] + 1),
            lambda meta, state: state.update(key_bits=True),
            lambda meta, state: state.update(best_weight="12"),
            lambda meta, state: state.pop("global_lb"),
            lambda meta, state: state.update(elapsed=None),
            lambda meta, state: state.update(queue={}),
            lambda meta, state: state["queue"].append([1]),
            lambda meta, state: state["settled"].append([1, 2.0, 3]),
            lambda meta, state: state["pending"].append(["1", 2.0, []]),
            lambda meta, state: state.update(
                best_tree={"nodes": [], "edges": []}
            ),
            lambda meta, state: state.update(
                best_tree={"nodes": [0, 1], "edges": [[0, 1]]}
            ),
            lambda meta, state: state.update(stats={"states_popped": "x"}),
            lambda meta, state: state.update(
                stats={"states_popped": float("inf")}
            ),
            lambda meta, state: state["pending"][0].__setitem__(2, ["grow", 3]),
            lambda meta, state: state["pending"][0].__setitem__(
                2, ["merge", 1, "2"]
            ),
            lambda meta, state: state["pending"][0].__setitem__(2, []),
            lambda meta, state: state.update(floor={"weight": 1.0}),
            lambda meta, state: meta.update(algorithm="dpbf"),
            lambda meta, state: meta.update(algorithm="nope"),
        ],
        ids=[
            "label-null", "algorithm-int", "key-bits-off-by-one",
            "key-bits-bool", "best-weight-string", "no-global-lb",
            "elapsed-null", "queue-object", "queue-short-row",
            "settled-backpointer-int", "pending-string-key",
            "tree-without-nodes", "tree-edge-without-weight",
            "stats-string", "stats-infinite", "grow-without-weight",
            "merge-string-mask", "empty-backpointer", "floor-without-tree",
            "algorithm-dpbf", "algorithm-unknown",
        ],
    )
    def test_malformed_key_is_corrupt(self, index, tmp_path, edit):
        path = _interrupt(index, tmp_path)
        _rewrite(path, edit)
        with pytest.raises(StoreCorruptError):
            read_checkpoint(path)

    @pytest.mark.parametrize("kind", sorted(UNUSABLE_ROWS))
    def test_row_pointing_nowhere_fails_closed(self, index, tmp_path, kind):
        path = _interrupt(index, tmp_path)
        _rewrite(path, lambda meta, state: UNUSABLE_ROWS[kind](index, state))
        with pytest.raises(StoreCorruptError):
            resume_query(index, path)

    @pytest.mark.parametrize("kind", sorted(UNUSABLE_ROWS))
    def test_row_pointing_nowhere_solves_cold(
        self, index, reference, tmp_path, kind
    ):
        path = _interrupt(index, tmp_path)
        _rewrite(path, lambda meta, state: UNUSABLE_ROWS[kind](index, state))
        outcome = checkpointed_execute(
            index, LABELS, algorithm="pruneddp++", checkpoint_dir=str(tmp_path)
        )
        assert outcome.ok and outcome.result.optimal
        assert outcome.trace.resumed_from is None
        assert outcome.result.weight == pytest.approx(reference.weight)
        assert not os.path.exists(path)

    def test_node_past_the_graph_is_a_range_error(self, index, tmp_path):
        path = _interrupt(index, tmp_path)
        _rewrite(path, lambda meta, state: _node_past_graph(index, state))
        with pytest.raises(CheckpointRangeError, match="node 400"):
            resume_query(index, path)

    def test_integer_labels_are_kept(self, index, tmp_path):
        # checkpoint_meta documents strings or integers as labels.
        path = _interrupt(index, tmp_path)
        _rewrite(path, lambda meta, state: meta.update(
            labels=list(range(len(meta["labels"])))
        ))
        meta, _ = read_checkpoint(path)
        assert meta["labels"] == list(range(len(LABELS)))


# ----------------------------------------------------------------------
# Fuzz: no edit of a checkpoint escapes as anything but a StoreError.
# ----------------------------------------------------------------------
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2 ** 70), 2 ** 70),
        st.floats(),
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def donor(index, tmp_path_factory):
    """A real interrupted checkpoint's ``(meta, state)`` records."""
    path = _interrupt(index, tmp_path_factory.mktemp("donor"), max_states=40)
    return read_checkpoint(path)


def _edit_record(data, record, name):
    """Drop or retype one key, or one element of a row inside it."""
    key = data.draw(st.sampled_from(sorted(record)), label=f"{name} key")
    value = record[key]
    if isinstance(value, list) and value and data.draw(
        st.booleans(), label=f"{name}.{key} row edit"
    ):
        row = data.draw(st.integers(0, len(value) - 1), label="row")
        if isinstance(value[row], list) and value[row]:
            column = data.draw(
                st.integers(0, len(value[row]) - 1), label="column"
            )
            cell = value[row][column]
            if isinstance(cell, list) and cell and data.draw(
                st.booleans(), label="inside the cell"
            ):
                # A backpointer: retype one field, or add one.
                field = data.draw(st.integers(0, len(cell)), label="field")
                cell[field:field + 1] = [data.draw(_JSON_VALUES, label="field value")]
            else:
                value[row][column] = data.draw(_JSON_VALUES, label="cell")
        else:
            value[row] = data.draw(_JSON_VALUES, label="row value")
    elif data.draw(st.booleans(), label=f"{name}.{key} drop"):
        del record[key]
    else:
        record[key] = data.draw(_JSON_VALUES, label=f"{name}.{key} value")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_a_store_error(index, donor, data):
    """Edit a real checkpoint's records (CRC-valid), backpointers
    included, then overwrite a few of its bytes: ``read_checkpoint``
    returns records the engine restores or rejects with a
    ``StoreError``, or raises a ``StoreError`` itself; never anything
    else."""
    meta, state = copy.deepcopy(donor)
    for _ in range(data.draw(st.integers(0, 3), label="record edits")):
        if data.draw(st.booleans(), label="edit meta"):
            _edit_record(data, meta, "meta")
        else:
            _edit_record(data, state, "state")
    buffer = io.BytesIO()  # write_checkpoint's framing, without the fsync
    write_header(buffer)
    write_record(buffer, pack_json(meta))
    write_record(buffer, pack_json(state))
    blob = bytearray(buffer.getvalue())
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "fuzzed.ckpt")
        for _ in range(data.draw(st.integers(0, 3), label="byte writes")):
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            blob[at] = data.draw(st.integers(0, 255), label="byte")
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        try:
            loaded_meta, loaded_state = read_checkpoint(path)
        except StoreError:
            return
    assert isinstance(loaded_meta["algorithm"], str)
    assert loaded_state["key_bits"] == len(loaded_meta["labels"])
    context = QueryContext.build(index.graph, GSTQuery(LABELS), cache=index.cache)
    engine = SearchEngine(context, algorithm_name="fuzz")
    if loaded_state["key_bits"] != context.k:
        return
    try:
        engine.restore(loaded_state)
    except StoreError:
        pass


# ----------------------------------------------------------------------
# Checkpointer mechanics
# ----------------------------------------------------------------------
class TestCheckpointer:
    def test_atomic_write_leaves_no_tmp(self, index, tmp_path):
        path = _interrupt(index, tmp_path)
        assert os.listdir(str(tmp_path)) == [os.path.basename(path)]

    def test_optimal_run_discards_checkpoint(self, index, tmp_path):
        outcome = checkpointed_execute(
            index,
            LABELS,
            algorithm="pruneddp++",
            checkpoint_dir=str(tmp_path),
            policy=WorkerPolicy(
                checkpoint_every_pops=25, checkpoint_every_seconds=None
            ),
        )
        assert outcome.ok and outcome.result.optimal
        assert outcome.trace.checkpoints >= 1
        assert os.listdir(str(tmp_path)) == []

    def test_cancellation_forces_final_checkpoint(self, index, tmp_path):
        token = CancellationToken()
        seen = []

        def on_write(ckpt):
            seen.append(ckpt.written)
            if len(seen) == 1:
                token.cancel("test cut")

        outcome = checkpointed_execute(
            index,
            LABELS,
            algorithm="pruneddp++",
            budget=Budget(cancel_token=token),
            checkpoint_dir=str(tmp_path),
            policy=WorkerPolicy(
                checkpoint_every_pops=25, checkpoint_every_seconds=None
            ),
            on_write=on_write,
        )
        # The cancellation path writes one final forced checkpoint on
        # top of the cadence write that triggered it.
        assert outcome.trace.checkpoints >= 2
        path = checkpoint_path(
            str(tmp_path), index.snapshot.fingerprint, LABELS
        )
        assert os.path.exists(path)

    def test_dpbf_runs_without_durability(self, index, tmp_path):
        # Non-progressive baselines can't checkpoint; they still run.
        outcome = checkpointed_execute(
            index, LABELS, algorithm="dpbf", checkpoint_dir=str(tmp_path)
        )
        assert outcome.ok
        assert outcome.trace.checkpoints == 0

    def test_bad_cadence_rejected(self, tmp_path):
        meta = checkpoint_meta("fp", LABELS, "basic")
        with pytest.raises(ValueError):
            Checkpointer(str(tmp_path / "x"), meta, every_pops=0)
        with pytest.raises(ValueError):
            Checkpointer(str(tmp_path / "x"), meta, every_seconds=0.0)


# ----------------------------------------------------------------------
# Process isolation (the worker fleet)
# ----------------------------------------------------------------------
class TestProcessIsolation:
    def test_basic_delivery(self, index, reference, tmp_path):
        with FleetPool(index, workers=1, checkpoint_dir=str(tmp_path)) as pool:
            outcome = pool.execute(LABELS, algorithm="pruneddp++")
        assert outcome.ok
        assert outcome.result.weight == pytest.approx(reference.weight)
        assert outcome.trace.worker_restarts == 0

    def test_kill_dash_nine_resumes_and_certifies(
        self, graph, index, reference, tmp_path
    ):
        # The acceptance criterion: SIGKILL a worker mid-search; the
        # fleet respawns it, the respawn resumes from the last
        # checkpoint, and the final answer is certified identical in
        # weight to the uninterrupted run.
        policy = WorkerPolicy(
            checkpoint_every_pops=25,
            checkpoint_every_seconds=None,
            chaos_kill_after_checkpoints=2,
        )
        with FleetPool(
            index, workers=1, checkpoint_dir=str(tmp_path), policy=policy
        ) as pool:
            outcome = pool.execute(LABELS, algorithm="pruneddp++")
        assert outcome.ok
        assert outcome.trace.worker_restarts >= 1
        assert outcome.trace.resumed_from is not None
        assert outcome.result.optimal
        assert outcome.result.weight == pytest.approx(reference.weight)
        certificate = certify_result(graph, outcome.result, labels=LABELS)
        assert certificate.ok, certificate

    def test_restart_budget_exhausts_to_typed_error(self, index, tmp_path):
        # With no restart budget, the first crash is final: the fleet
        # gives up with a typed error instead of respawning for it.
        policy = WorkerPolicy(
            checkpoint_every_pops=1,
            checkpoint_every_seconds=None,
            chaos_kill_after_checkpoints=1,
            max_restarts=0,
        )
        with FleetPool(
            index, workers=1, checkpoint_dir=str(tmp_path), policy=policy
        ) as pool:
            outcome = pool.execute(LABELS, algorithm="pruneddp++")
        assert not outcome.ok
        assert isinstance(outcome.error, WorkerCrashedError)
        assert outcome.error.reason == "crashed"
        assert outcome.trace.worker_restarts == 1  # the one over budget

    def test_dead_slot_serves_the_next_query(self, index, tmp_path):
        # A crash the restart budget cannot absorb leaves the slot's
        # worker dead; the next query gets a fresh worker and is not
        # charged a restart for the previous query's crash.
        policy = WorkerPolicy(
            checkpoint_every_pops=1,
            checkpoint_every_seconds=None,
            chaos_kill_after_checkpoints=1,
            max_restarts=0,
        )
        with FleetPool(
            index, workers=1, checkpoint_dir=str(tmp_path), policy=policy
        ) as pool:
            crashed = pool.execute(LABELS, algorithm="pruneddp++")
            assert isinstance(crashed.error, WorkerCrashedError)
            outcome = pool.execute(("q0", "q1"), algorithm="pruneddp++")
        assert outcome.ok, outcome.error
        assert outcome.trace.worker_restarts == 0

    def test_memory_watchdog_checkpoint_then_kill(self, index, tmp_path):
        policy = WorkerPolicy(
            max_rss_mb=1.0,  # absurd: trips on the first RSS sample
            checkpoint_every_pops=25,
            checkpoint_every_seconds=None,
        )
        with FleetPool(
            index, workers=1, checkpoint_dir=str(tmp_path), policy=policy
        ) as pool:
            outcome = pool.execute(LABELS, algorithm="pruneddp++")
        assert not outcome.ok
        assert isinstance(outcome.error, WorkerCrashedError)
        assert outcome.error.reason == "memory watchdog"
        assert outcome.trace.watchdog_kills == 1

    def test_idle_worker_over_rss_is_replaced_not_blamed(
        self, index, monkeypatch
    ):
        # A long-lived worker's RSS grows with its label cache.  Once
        # it idles over the limit, the next query must run on a fresh
        # worker rather than be killed for memory it never used.
        import repro.service.fleet as fleet_mod

        policy = WorkerPolicy(max_rss_mb=10_000.0)
        with FleetPool(index, workers=1, policy=policy) as pool:
            grown = pool._slots[0].pid
            monkeypatch.setattr(
                fleet_mod,
                "_rss_mb",
                lambda pid: 20_000.0 if pid == grown else 50.0,
            )
            outcome = pool.execute(LABELS, algorithm="pruneddp++")
            fresh = pool._slots[0].pid
        assert outcome.ok, outcome.error
        assert outcome.trace.watchdog_kills == 0
        assert outcome.trace.worker_restarts == 0
        assert fresh != grown

    def test_watchdog_crash_is_retryable_through_ladder(self, index, tmp_path):
        # WorkerCrashedError is retryable: the executor's retry ladder
        # turns a watchdog kill into a degraded-but-answered query.
        from repro.service.fleet import _error_outcome
        from repro.service.resilience import retryable

        crashed = _error_outcome(
            LABELS, "pruneddp++", 0, WorkerCrashedError("boom")
        )
        assert retryable(crashed)

    def test_hard_timeout_contains_hang(self, index, monkeypatch):
        import time as _t

        import repro.core.solver as solver_mod

        class Wedged(solver_mod.ALGORITHMS["basic"]):
            def run_search(self, context, prepared=None):
                _t.sleep(60)  # deaf to cancellation: only a kill ends it
                return super().run_search(context, prepared)

        # Patched before the fleet forks, so the worker inherits it.
        monkeypatch.setitem(solver_mod.ALGORITHMS, "basic", Wedged)
        policy = WorkerPolicy(
            hard_timeout_seconds=0.3,
            checkpoint_every_pops=None,
            checkpoint_every_seconds=None,
        )
        with FleetPool(index, workers=1, policy=policy) as pool:
            started = _t.monotonic()
            outcome = pool.execute(
                LABELS, algorithm="basic", budget=Budget(time_limit=30.0)
            )
            elapsed = _t.monotonic() - started
        assert elapsed < 10.0
        assert not outcome.ok
        assert isinstance(outcome.error, WorkerCrashedError)
        assert outcome.error.reason == "hard kill deadline"

    def test_executor_process_isolation_batch(self, index, reference, tmp_path):
        with QueryExecutor(
            index,
            max_workers=2,
            workers=1,
            checkpoint_dir=str(tmp_path),
        ) as executor:
            assert executor.isolation == "fleet"
            outcomes = executor.run_batch([LABELS, ("q0", "q1")])
        assert all(o.ok for o in outcomes)
        assert outcomes[0].result.weight == pytest.approx(reference.weight)


# ----------------------------------------------------------------------
# Executor shutdown satellite
# ----------------------------------------------------------------------
class TestShutdownCancelsPending:
    def test_pending_futures_cancelled_on_unclean_shutdown(self, index):
        import threading

        release = threading.Event()
        started = threading.Event()

        executor = QueryExecutor(index, max_workers=1)
        # Occupy the single worker so later submissions stay queued.
        blocker = executor._pool.submit(
            lambda: (started.set(), release.wait(10.0))
        )
        started.wait(5.0)
        pending = [executor.submit(LABELS) for _ in range(4)]
        executor.shutdown(wait=False)
        release.set()
        blocker.result(5.0)
        # The documented guarantee: not-yet-started futures resolve
        # cancelled instead of lingering until interpreter exit.
        assert all(f.cancelled() for f in pending)

    def test_clean_shutdown_still_drains(self, index):
        executor = QueryExecutor(index, max_workers=1)
        future = executor.submit(("q0", "q1"))
        executor.shutdown(wait=True)
        assert future.result(5.0).ok
