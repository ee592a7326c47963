"""RPR024 control: detach the first result before re-lending."""

from repro.bfs.hybrid import DEFAULT_POLICY, bfs_hybrid
from repro.bfs.workspace import BFSWorkspace

__all__ = ["compare_roots"]


def compare_roots(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, a, DEFAULT_POLICY, workspace=ws)
    root_parent = int(first.parent[0])
    first.detach()  # workspace safe to re-lend from here
    second = bfs_hybrid(graph, b, DEFAULT_POLICY, workspace=ws)
    return root_parent + int(second.parent[0])
