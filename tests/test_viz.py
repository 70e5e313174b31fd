"""SVG rendering tests (well-formedness + content checks)."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro import SteinerTree, solve_gst
from repro.graph import generators
from repro.viz import save_svg, trace_to_svg, tree_to_svg


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)  # raises on malformed XML


class TestTreeToSvg:
    def test_well_formed(self, star_graph):
        tree = SteinerTree.from_edge_pairs(star_graph, [(0, 1), (0, 2), (0, 3)])
        svg = tree_to_svg(tree, star_graph)
        root = parse(svg)
        assert root.tag.endswith("svg")

    def test_contains_all_nodes_and_edges(self, star_graph):
        tree = SteinerTree.from_edge_pairs(star_graph, [(0, 1), (0, 2)])
        svg = tree_to_svg(tree, star_graph)
        root = parse(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        lines = [e for e in root.iter() if e.tag.endswith("line")]
        assert len(rects) == 1 + 3  # background + three node boxes
        assert len(lines) == 2
        # Node names appear.
        text = svg
        for name in ("h", "a", "b"):
            assert name in text

    def test_single_node_tree(self, path_graph):
        svg = tree_to_svg(SteinerTree.single_node(0), path_graph)
        parse(svg)
        assert "a" in svg

    def test_real_solver_answer(self):
        g = generators.random_graph(
            25, 50, num_query_labels=3, label_frequency=3, seed=4
        )
        result = solve_gst(g, ["q0", "q1", "q2"])
        svg = tree_to_svg(result.tree, g)
        parse(svg)
        # Edge weights rendered.
        assert "<text" in svg

    def test_escaping(self):
        from repro import Graph

        g = Graph()
        a = g.add_node(labels=["<evil> & 'label'"], name="<name>")
        b = g.add_node()
        g.add_edge(a, b, 1.0)
        svg = tree_to_svg(SteinerTree([(a, b, 1.0)]), g)
        parse(svg)  # must stay well-formed despite hostile strings


class TestTraceToSvg:
    def trace(self):
        return [(0.001, 10.0, 1.0), (0.01, 8.0, 4.0), (0.1, 8.0, 8.0)]

    def test_well_formed(self):
        svg = trace_to_svg({"PrunedDP++": self.trace()})
        root = parse(svg)
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2  # UB + LB

    def test_multiple_series(self):
        svg = trace_to_svg({"A": self.trace(), "B": self.trace()})
        root = parse(svg)
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 4
        assert "A" in svg and "B" in svg

    def test_infinite_ub_skipped(self):
        trace = [(0.001, float("inf"), 1.0)] + self.trace()
        svg = trace_to_svg({"X": trace})
        parse(svg)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trace_to_svg({})

    def test_real_trace(self):
        g = generators.random_graph(
            40, 90, num_query_labels=4, label_frequency=4, seed=5
        )
        result = solve_gst(g, [f"q{i}" for i in range(4)])
        trace = [(p.elapsed, p.best_weight, p.lower_bound) for p in result.trace]
        svg = trace_to_svg({"PrunedDP++": trace})
        parse(svg)


class TestSaveSvg:
    def test_round_trip(self, tmp_path, star_graph):
        tree = SteinerTree.from_edge_pairs(star_graph, [(0, 1)])
        svg = tree_to_svg(tree, star_graph)
        path = save_svg(str(tmp_path / "tree.svg"), svg)
        assert Path(path).read_text() == svg
