"""Keyword search over a relational database via GST (paper Section 1).

Given a :class:`~repro.apps.relational.Database`, a keyword query is a
set of lower-case terms; the answer is a set of connected tuples that
covers every keyword with minimum total connection weight — i.e. the
Group Steiner Tree over the tuple graph where each keyword's group is
the set of tuples containing it.

:class:`KeywordSearchEngine` wraps the whole pipeline (graph build,
query validation, progressive solve, answer rendering) and supports
top-r answers per the paper's remark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..core.budget import Budget
from ..core.result import GSTResult
from ..core.topr import exact_top_r_trees, top_r_trees
from ..core.tree import SteinerTree
from ..errors import InfeasibleQueryError
from ..graph.graph import Graph
from ..service.index import GraphIndex
from .relational import Database, tokenize

__all__ = ["KeywordAnswer", "KeywordSearchEngine"]


@dataclass
class KeywordAnswer:
    """A keyword-search result: the tree plus its tuple rendering."""

    keywords: Tuple[str, ...]
    tree: SteinerTree
    weight: float
    optimal: bool
    tuples: List[str]

    def render(self, graph: Graph) -> str:
        """ASCII tree of the answer (the paper's Fig 11/12/17/18 style)."""
        return self.tree.render(graph)


class KeywordSearchEngine:
    """Progressive keyword search over a relational database.

    ``directed=True`` switches to the BANKS/DPBF answer model: the
    tuple graph keeps foreign-key direction and an answer is a rooted
    tree of forward references (solved by
    :class:`~repro.core.directed.DirectedGSTSolver`; ``algorithm`` and
    top-r modes apply to the default undirected model only).
    """

    def __init__(
        self,
        database: Database,
        *,
        algorithm: str = "pruneddp++",
        directed: bool = False,
    ) -> None:
        self.database = database
        self.algorithm = algorithm
        self.directed = directed
        self.graph = database.to_digraph() if directed else database.to_graph()
        # The undirected engine serves all queries from one shared index
        # so repeated keywords amortize their per-label Dijkstras (the
        # directed model has its own solver and no index yet).
        self.index = None if directed else GraphIndex(self.graph)

    # ------------------------------------------------------------------
    def normalize(self, keywords: Iterable[str]) -> Tuple[str, ...]:
        """Lower-case and tokenize the raw keywords; reject empties."""
        normalized: List[str] = []
        for keyword in keywords:
            tokens = tokenize(keyword)
            if not tokens:
                raise InfeasibleQueryError(f"keyword {keyword!r} has no tokens")
            normalized.extend(tokens)
        # Preserve order, drop duplicates.
        seen = set()
        unique = []
        for token in normalized:
            if token not in seen:
                seen.add(token)
                unique.append(token)
        return tuple(unique)

    def search(
        self,
        keywords: Iterable[str],
        *,
        budget: Optional[Budget] = None,
        **solver_kwargs,
    ) -> KeywordAnswer:
        """Best connected-tuple answer covering every keyword.

        ``budget`` carries the query's limits to either answer model.
        """
        terms = self.normalize(keywords)
        if self.directed:
            from ..core.directed import DirectedGSTSolver

            result = DirectedGSTSolver(
                self.graph, terms, budget=budget, **solver_kwargs
            ).solve()
        else:
            result = self.index.solve(
                terms, algorithm=self.algorithm, budget=budget, **solver_kwargs
            )
        return self._to_answer(terms, result)

    def search_top_r(
        self,
        keywords: Iterable[str],
        r: int,
        *,
        exact: bool = False,
        **solver_kwargs,
    ) -> List[KeywordAnswer]:
        """Top-r answers.

        ``exact=False`` (default) uses the paper's Section 4.2 remark:
        the best ``r`` distinct near-optimal trees the progressive
        search encountered — cheap, top-1 exact, rest heuristic.
        ``exact=True`` runs the exclusion-branching enumeration: the
        true ``r`` lightest reduced answers, at ~``r·|T|`` solves.
        """
        if self.directed:
            raise NotImplementedError(
                "top-r is only supported by the undirected engine"
            )
        terms = self.normalize(keywords)
        if exact:
            # Exclusion branching solves restricted graph *copies*; the
            # shared index cache is bound to the original graph and must
            # not leak into them.
            trees = exact_top_r_trees(self.graph, terms, r, **solver_kwargs)
        else:
            trees = top_r_trees(
                self.graph,
                terms,
                r,
                distance_cache=self.index.cache,
                **solver_kwargs,
            )
        answers = []
        for i, tree in enumerate(trees):
            answers.append(
                KeywordAnswer(
                    keywords=terms,
                    tree=tree,
                    weight=tree.weight,
                    optimal=(i == 0 or exact),
                    tuples=self._tuples_of(tree),
                )
            )
        return answers

    # ------------------------------------------------------------------
    def _to_answer(self, terms: Tuple[str, ...], result: GSTResult) -> KeywordAnswer:
        if result.tree is None:
            raise InfeasibleQueryError(
                f"no connected answer covers keywords {list(terms)!r}"
            )
        return KeywordAnswer(
            keywords=terms,
            tree=result.tree,
            weight=result.weight,
            optimal=result.optimal,
            tuples=self._tuples_of(result.tree),
        )

    def _tuples_of(self, tree: SteinerTree) -> List[str]:
        return sorted(
            self.database.describe_node(self.graph, node) for node in tree.nodes
        )
