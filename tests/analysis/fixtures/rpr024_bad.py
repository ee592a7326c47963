"""Seeded RPR024 bug: a workspace re-lent while its result is live.

``first`` still aliases the workspace arrays when the second traversal
reuses ``ws`` — the rerun silently rewrites ``first.parent`` before
the final sum reads it.  The dynamic twin observes the same scenario
through :meth:`repro.obs.live.ProtocolMonitor.lend`.
"""

from repro.bfs.hybrid import DEFAULT_POLICY, bfs_hybrid
from repro.bfs.workspace import BFSWorkspace

__all__ = ["compare_roots"]


def compare_roots(graph, a, b):
    ws = BFSWorkspace(graph.num_vertices)
    first = bfs_hybrid(graph, a, DEFAULT_POLICY, workspace=ws)
    # first is still live here
    second = bfs_hybrid(graph, b, DEFAULT_POLICY, workspace=ws)
    return int(first.parent[0]) + int(second.parent[0])
