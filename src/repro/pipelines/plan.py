"""Query-plan rendering (the tutorial's ``nde.show_query_plan``).

Renders the operator DAG as an indented ASCII tree (leaves = sources,
root = terminal node, mirroring Figure 3's plan sketch) and exports to a
:mod:`networkx` digraph for programmatic analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.pipelines.operators import Node

if TYPE_CHECKING:
    import networkx as nx


def show_query_plan(plan: Node) -> str:
    """Pretty-print the plan rooted at ``plan``.

    Shared subtrees (a node feeding several consumers) are printed once in
    full and referenced by id afterwards.
    """
    lines: list[str] = []
    printed: set[int] = set()

    def render(node: Node, depth: int) -> None:
        indent = "  " * depth
        marker = f"[{node.id}] "
        if node.id in printed:
            lines.append(f"{indent}{marker}{node.describe()} (shared, see above)")
            return
        printed.add(node.id)
        lines.append(f"{indent}{marker}{node.describe()}")
        for upstream in node.inputs:
            render(upstream, depth + 1)

    render(plan, 0)
    return "\n".join(lines)


def to_networkx(plan: Node) -> nx.DiGraph:
    """Export the plan as a digraph with edges from inputs to consumers.

    Node attributes: ``op`` (operator kind) and ``label`` (description).
    """
    import networkx as nx

    graph = nx.DiGraph()
    for node in plan.walk():
        graph.add_node(node.id, op=node.op, label=node.describe())
        for upstream in node.inputs:
            graph.add_edge(upstream.id, node.id)
    return graph


def plan_stats(plan: Node) -> dict:
    """Simple structural statistics: operator counts, depth, source list."""
    import networkx as nx

    graph = to_networkx(plan)
    counts: dict[str, int] = {}
    for node in plan.walk():
        counts[node.op] = counts.get(node.op, 0) + 1
    return {
        "n_operators": graph.number_of_nodes(),
        "depth": nx.dag_longest_path_length(graph) if graph.number_of_edges() else 0,
        "operator_counts": counts,
        "sources": [n.params["name"] for n in plan.walk() if n.op == "source"],
    }
