"""Team formation in social networks via GST (Lappas et al., KDD 2009).

The paper's second motivating application: experts form a social
network whose edge weights measure *communication cost*; each expert
has skills; given a required skill set, find the team — modelled as a
connected tree covering every skill — with minimum total communication
cost.  That is a GST instance verbatim.

:class:`ExpertNetwork` is the domain layer: add experts with skills,
add collaboration links with costs, then :meth:`find_team`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..core.budget import Budget
from ..core.result import GSTResult
from ..errors import GraphError, InfeasibleQueryError
from ..graph.graph import Graph
from ..service.index import GraphIndex

__all__ = ["Team", "ExpertNetwork"]


@dataclass
class Team:
    """A found team: members, the connecting tree, and its cost."""

    required_skills: Tuple[str, ...]
    members: List[Hashable]
    communication_cost: float
    optimal: bool
    tree: object  # SteinerTree; kept duck-typed to avoid an import cycle

    def covers(self, skills_of: Dict[Hashable, frozenset]) -> bool:
        """Whether the members jointly hold every required skill."""
        held = set()
        for member in self.members:
            held |= set(skills_of.get(member, ()))
        return set(self.required_skills) <= held


class ExpertNetwork:
    """Experts + skills + weighted collaboration links."""

    def __init__(self) -> None:
        self.graph = Graph()
        self._experts: Dict[Hashable, int] = {}
        self._skills: Dict[Hashable, frozenset] = {}
        self._index: Optional[GraphIndex] = None

    # ------------------------------------------------------------------
    def add_expert(self, name: Hashable, skills: Iterable[str]) -> None:
        """Register an expert with a skill set (labels ``skill:<s>``)."""
        if name in self._experts:
            raise GraphError(f"expert {name!r} already exists")
        skills = frozenset(skills)
        node = self.graph.add_node(
            labels=[f"skill:{s}" for s in skills], name=name
        )
        self._experts[name] = node
        self._skills[name] = skills
        self._index = None  # graph mutated: any built index is stale

    def add_collaboration(
        self, a: Hashable, b: Hashable, cost: float = 1.0
    ) -> None:
        """Link two experts with a communication cost (must be positive)."""
        if cost <= 0.0:
            raise GraphError("communication cost must be positive")
        self.graph.add_edge(self._node(a), self._node(b), cost)
        self._index = None  # graph mutated: any built index is stale

    def _node(self, name: Hashable) -> int:
        try:
            return self._experts[name]
        except KeyError:
            raise GraphError(f"unknown expert {name!r}") from None

    @property
    def num_experts(self) -> int:
        return len(self._experts)

    @property
    def index(self) -> GraphIndex:
        """The shared query index, rebuilt lazily after mutations."""
        if self._index is None:
            self._index = GraphIndex(self.graph)
        return self._index

    def skills_of(self, name: Hashable) -> frozenset:
        """The declared skill set of an expert."""
        self._node(name)  # validates existence
        return self._skills[name]

    # ------------------------------------------------------------------
    def find_team(
        self,
        required_skills: Iterable[str],
        *,
        algorithm: str = "pruneddp++",
        budget: Optional[Budget] = None,
        **solver_kwargs,
    ) -> Team:
        """The minimum-communication-cost team covering the skills.

        Raises :class:`InfeasibleQueryError` when some skill is held by
        nobody, or no connected group of experts covers them all.
        """
        skills = tuple(dict.fromkeys(required_skills))
        if not skills:
            raise InfeasibleQueryError("at least one skill is required")
        labels = [f"skill:{s}" for s in skills]
        result: GSTResult = self.index.solve(
            labels, algorithm=algorithm, budget=budget, **solver_kwargs
        )
        if result.tree is None:
            raise InfeasibleQueryError(
                f"no connected team covers skills {list(skills)!r}"
            )
        members = sorted(
            (self.graph.name_of(node) for node in result.tree.nodes),
            key=repr,
        )
        return Team(
            required_skills=skills,
            members=members,
            communication_cost=result.weight,
            optimal=result.optimal,
            tree=result.tree,
        )

    def expert_skills(self) -> Dict[Hashable, frozenset]:
        """Mapping expert → skill set (for :meth:`Team.covers`)."""
        return dict(self._skills)
