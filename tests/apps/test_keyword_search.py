"""Keyword search application tests."""

from __future__ import annotations

import pytest

from repro import Budget, InfeasibleQueryError
from repro.apps import Database, KeywordSearchEngine


def bibliography() -> Database:
    db = Database()
    authors = db.create_relation("author", ["name"])
    papers = db.create_relation("paper", ["title"])
    authors.insert("knuth", name="Donald Knuth")
    authors.insert("dijkstra", name="Edsger Dijkstra")
    authors.insert("hoare", name="Tony Hoare")
    papers.insert("art", title="The Art of Computer Programming")
    papers.insert("goto", title="Goto Statement Considered Harmful")
    papers.insert("quicksort", title="Quicksort")
    db.add_reference("author", "knuth", "paper", "art")
    db.add_reference("author", "dijkstra", "paper", "goto")
    db.add_reference("author", "hoare", "paper", "quicksort")
    db.add_reference("paper", "art", "paper", "quicksort", strength=2.0)
    db.add_reference("paper", "goto", "paper", "quicksort", strength=2.0)
    return db


@pytest.fixture
def engine():
    return KeywordSearchEngine(bibliography())


class TestNormalize:
    def test_lowercase_and_split(self, engine):
        assert engine.normalize(["Donald Knuth"]) == ("donald", "knuth")

    def test_deduplication(self, engine):
        assert engine.normalize(["art", "Art"]) == ("art",)

    def test_empty_keyword_rejected(self, engine):
        with pytest.raises(InfeasibleQueryError):
            engine.normalize(["..."])


class TestSearch:
    def test_single_keyword(self, engine):
        answer = engine.search(["quicksort"])
        assert answer.optimal
        assert answer.weight == 0.0
        assert len(answer.tree.nodes) == 1

    def test_connects_authors(self, engine):
        answer = engine.search(["knuth", "hoare"])
        assert answer.optimal
        # knuth -1- art -2- quicksort -1- hoare
        assert answer.weight == pytest.approx(4.0)
        assert any("Knuth" in t for t in answer.tuples)
        assert any("Hoare" in t for t in answer.tuples)

    def test_three_authors(self, engine):
        answer = engine.search(["knuth", "dijkstra", "hoare"])
        assert answer.optimal
        answer.tree.validate(engine.graph, answer.keywords)
        assert answer.weight == pytest.approx(7.0)

    def test_unknown_keyword_raises(self, engine):
        with pytest.raises(InfeasibleQueryError):
            engine.search(["knuth", "xenomorph"])

    def test_render(self, engine):
        answer = engine.search(["knuth", "hoare"])
        out = answer.render(engine.graph)
        assert "art" in out or "quicksort" in out

    def test_algorithm_choice(self):
        engine = KeywordSearchEngine(bibliography(), algorithm="basic")
        answer = engine.search(["knuth", "hoare"])
        assert answer.weight == pytest.approx(4.0)

    def test_anytime_epsilon(self, engine):
        answer = engine.search(
            ["knuth", "dijkstra", "hoare"], budget=Budget(epsilon=1.0)
        )
        assert answer.weight <= 14.0 + 1e-9  # within 2x of 7


class TestDirectedMode:
    def test_directed_search(self):
        engine = KeywordSearchEngine(bibliography(), directed=True)
        # 'art' cites 'quicksort': a directed root exists at knuth/art.
        answer = engine.search(["art", "quicksort"])
        assert answer.optimal
        answer.tree.validate(engine.graph, answer.keywords)
        assert answer.weight == pytest.approx(2.0)  # art -> quicksort

    def test_directed_render(self):
        engine = KeywordSearchEngine(bibliography(), directed=True)
        answer = engine.search(["art", "quicksort"])
        out = answer.render(engine.graph)
        assert out.startswith("*")

    def test_directed_can_be_infeasible(self):
        from repro import InfeasibleQueryError

        engine = KeywordSearchEngine(bibliography(), directed=True)
        # Nothing references both authors' names forward.
        with pytest.raises(InfeasibleQueryError):
            engine.search(["knuth", "dijkstra"])

    def test_directed_top_r_unsupported(self):
        engine = KeywordSearchEngine(bibliography(), directed=True)
        with pytest.raises(NotImplementedError):
            engine.search_top_r(["art"], r=2)


class TestTopR:
    def test_top_r_ordering(self, engine):
        answers = engine.search_top_r(["knuth", "hoare"], r=3)
        assert answers
        weights = [a.weight for a in answers]
        assert weights == sorted(weights)
        assert answers[0].optimal
        for answer in answers[1:]:
            assert not answer.optimal

    def test_top_r_all_cover(self, engine):
        for answer in engine.search_top_r(["knuth", "dijkstra"], r=4):
            assert answer.tree.covers(engine.graph, answer.keywords)

    def test_exact_top_r(self, engine):
        answers = engine.search_top_r(["knuth", "hoare"], r=3, exact=True)
        assert answers
        weights = [a.weight for a in answers]
        assert weights == sorted(weights)
        # Exact enumeration marks every answer as proven.
        assert all(a.optimal for a in answers)
        # Distinct reduced answers.
        assert len({a.tree.edges for a in answers}) == len(answers)

    def test_exact_top_r_at_least_as_good(self, engine):
        exact = engine.search_top_r(["knuth", "dijkstra", "hoare"], r=2, exact=True)
        approx = engine.search_top_r(["knuth", "dijkstra", "hoare"], r=2)
        assert exact[0].weight == pytest.approx(approx[0].weight)
        if len(exact) > 1 and len(approx) > 1:
            assert exact[1].weight <= approx[1].weight + 1e-9
