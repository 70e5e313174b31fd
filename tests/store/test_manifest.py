"""Manifest and snapshot-fingerprint tests: the store's trust anchor."""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreCorruptError, StoreError, StoreVersionError
from repro.graph import generators
from repro.store.format import FORMAT_VERSION
from repro.store.manifest import MANIFEST_NAME, Manifest


def make_graph(seed: int = 0):
    return generators.random_graph(
        20, 35, num_query_labels=4, label_frequency=3, seed=seed
    )


def fingerprint(graph) -> str:
    return graph.freeze().fingerprint


class TestGraphFingerprint:
    """``CSRGraph.fingerprint``, the one identity a manifest records."""

    def test_deterministic(self):
        assert fingerprint(make_graph(1)) == fingerprint(make_graph(1))

    def test_different_seed_differs(self):
        assert fingerprint(make_graph(1)) != fingerprint(make_graph(2))

    def test_sensitive_to_weight_change(self):
        g1, g2 = make_graph(), make_graph()
        u, v, w = next(iter(g2.edges()))
        g2.add_edge(u, v, w / 2.0)  # parallel edges keep the lighter weight
        assert fingerprint(g1) != fingerprint(g2)

    def test_sensitive_to_label_move(self):
        g1, g2 = make_graph(), make_graph()
        g2.add_labels(0, ["brand-new-label"])
        assert fingerprint(g1) != fingerprint(g2)

    def test_sensitive_to_extra_node(self):
        g1, g2 = make_graph(), make_graph()
        g2.add_node()
        assert fingerprint(g1) != fingerprint(g2)


class TestManifest:
    def test_round_trip(self, tmp_path):
        graph = make_graph()
        manifest = Manifest.for_graph(
            graph, ["q0", "q1"], graph_stem="/data/g"
        )
        assert manifest.snapshot_fingerprint == fingerprint(graph)
        manifest.save(str(tmp_path))
        loaded = Manifest.load(str(tmp_path))
        assert loaded == manifest
        record = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert "fingerprint" not in record

    def test_missing_file(self, tmp_path):
        with pytest.raises(StoreCorruptError, match="cannot read"):
            Manifest.load(str(tmp_path))

    def test_malformed_json(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{broken", encoding="utf-8")
        with pytest.raises(StoreCorruptError, match="malformed manifest"):
            Manifest.load(str(tmp_path))

    def test_not_an_object(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(StoreCorruptError, match="not a JSON object"):
            Manifest.load(str(tmp_path))

    @pytest.mark.parametrize("key", Manifest.REQUIRED)
    def test_missing_required_key(self, tmp_path, key):
        manifest = Manifest.for_graph(make_graph(), ["q0"])
        record = manifest.to_dict()
        del record[key]
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(record))
        if key == "format_version":
            # Treated as a missing key (corruption), not version skew.
            with pytest.raises(StoreCorruptError, match="missing required"):
                Manifest.load(str(tmp_path))
        else:
            with pytest.raises(StoreCorruptError, match=key):
                Manifest.load(str(tmp_path))

    def test_version_skew(self, tmp_path):
        manifest = Manifest.for_graph(make_graph(), ["q0"])
        record = manifest.to_dict()
        record["format_version"] = FORMAT_VERSION + 7
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(record))
        with pytest.raises(StoreVersionError):
            Manifest.load(str(tmp_path))

    def test_wrong_field_type(self, tmp_path):
        manifest = Manifest.for_graph(make_graph(), ["q0"])
        record = manifest.to_dict()
        record["num_nodes"] = "many"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(record))
        with pytest.raises(StoreCorruptError, match="wrong type"):
            Manifest.load(str(tmp_path))

    @pytest.mark.parametrize("value", [["q0", 3], "q0", 7])
    def test_label_frequencies_not_an_object(self, tmp_path, value):
        record = Manifest.for_graph(make_graph(), ["q0"]).to_dict()
        record["label_frequencies"] = value
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(record))
        with pytest.raises(StoreCorruptError, match="label_frequencies"):
            Manifest.load(str(tmp_path))

    def test_null_snapshot_fingerprint_is_corrupt(self, tmp_path):
        # Earlier manifests wrote null here when no snapshot was given.
        record = Manifest.for_graph(make_graph(), ["q0"]).to_dict()
        record["snapshot_fingerprint"] = None
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(record))
        with pytest.raises(StoreCorruptError, match="snapshot_fingerprint"):
            Manifest.load(str(tmp_path))

    def test_label_frequencies_recorded(self):
        graph = make_graph()
        manifest = Manifest.for_graph(graph, ["q0", "q3"])
        assert manifest.label_frequencies == {
            "q0": graph.label_frequency("q0"),
            "q3": graph.label_frequency("q3"),
        }

    def test_manifest_is_human_readable(self, tmp_path):
        Manifest.for_graph(make_graph(), ["q0"]).save(str(tmp_path))
        text = (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
        assert "\n" in text  # indented, not minified
        assert json.loads(text)["created_by"] == "repro.store"


# ----------------------------------------------------------------------
# Fuzz: no edit of manifest.json escapes as anything but a StoreError.
# ----------------------------------------------------------------------
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2 ** 70), 2 ** 70),
        st.floats(),  # NaN and the infinities too: json writes them
        st.text(max_size=12),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=8,
)
_MANIFEST_KEYS = sorted(Manifest.for_graph(make_graph(), ["q0"]).to_dict())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_manifest_edit_loads_or_raises_a_store_error(data):
    """Drop, retype or garble keys of ``manifest.json``: ``Manifest.load``
    returns or raises a ``StoreError``, never anything else."""
    record = Manifest.for_graph(make_graph(), ["q0", "q1"]).to_dict()
    keys = data.draw(
        st.lists(st.sampled_from(_MANIFEST_KEYS), min_size=1, max_size=4,
                 unique=True),
        label="keys",
    )
    garbled = []
    for key in keys:
        action = data.draw(st.sampled_from(["drop", "retype", "garble"]),
                           label=f"{key} action")
        if action == "drop":
            del record[key]
        elif action == "retype":
            record[key] = data.draw(_JSON_VALUES, label=f"{key} value")
        else:
            garbled.append(key)
    text = json.dumps(record, indent=2, sort_keys=True).encode()
    # Where each garbled key's value starts (patches keep the length).
    starts = [text.index(f'"{key}": '.encode()) + len(key) + 4
              for key in garbled]
    for start in starts:
        # Overwrite a few bytes at or just after the start of the value.
        at = min(start + data.draw(st.integers(0, 16), label="offset"),
                 len(text))
        patch = data.draw(st.binary(min_size=1, max_size=4), label="bytes")
        text = text[:at] + patch + text[at + len(patch):]
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, MANIFEST_NAME), "wb") as handle:
            handle.write(text)
        try:
            Manifest.load(directory)
        except StoreError:
            pass
