#!/usr/bin/env python
"""Team formation in an expert network (paper Section 1, Lappas et al.).

Build a collaboration network of engineers with skills, then find the
minimum-communication-cost connected team covering a required skill
set — a Group Steiner Tree query, solved exactly and progressively.

Run:  python examples/team_formation_demo.py
"""

from repro import Budget
from repro.apps import ExpertNetwork


def build_network() -> ExpertNetwork:
    net = ExpertNetwork()
    experts = {
        "ana": ["python", "ml"],
        "boris": ["ml", "statistics"],
        "chen": ["databases"],
        "dara": ["databases", "devops"],
        "emil": ["frontend"],
        "fatima": ["devops", "security"],
        "george": ["security"],
        "hana": ["python", "frontend"],
        "ivan": [],  # manager: no listed skills, cheap to talk to
    }
    for name, skills in experts.items():
        net.add_expert(name, skills)

    collaborations = [
        ("ana", "boris", 1.0), ("ana", "ivan", 1.0), ("boris", "chen", 4.0),
        ("ivan", "chen", 1.5), ("ivan", "dara", 1.0), ("dara", "fatima", 1.0),
        ("fatima", "george", 1.0), ("emil", "hana", 1.0), ("hana", "ivan", 2.0),
        ("emil", "george", 5.0), ("chen", "dara", 1.0),
    ]
    for a, b, cost in collaborations:
        net.add_collaboration(a, b, cost)
    return net


def main() -> None:
    net = build_network()

    for required in (
        ["ml", "databases"],
        ["ml", "databases", "security"],
        ["python", "frontend", "devops", "security"],
    ):
        team = net.find_team(required)
        print(f"skills {required}:")
        print(f"  team    : {team.members}")
        print(f"  cost    : {team.communication_cost:g}  (optimal={team.optimal})")
        assert team.covers(net.expert_skills())
        print(team.tree.render(net.graph))
        print()

    # Anytime mode: accept any team within 2x of optimal, instantly.
    team = net.find_team(
        ["ml", "databases", "security"], budget=Budget(epsilon=1.0)
    )
    print(f"anytime team within ratio 2: cost={team.communication_cost:g}")


if __name__ == "__main__":
    main()
