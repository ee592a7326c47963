"""Graph statistics and the feature vector of the paper's Fig. 7.

The regression sample's *graph information* block is ``(V, E, A, B, C,
D)`` — size plus the Kronecker construction parameters.  For graphs not
produced by the R-MAT generator the construction parameters are
unknown, so :func:`graph_features` falls back to measured skew
statistics that play the same role (how concentrated the degree mass
is), keeping the predictor usable on arbitrary inputs — a small
extension over the paper, which only evaluates R-MAT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["GraphStats", "compute_stats", "graph_features", "estimate_rmat_params"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a graph."""

    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    degree_gini: float
    isolated_vertices: int
    self_loops: int

    def as_dict(self) -> dict:
        """Plain-dict view (for reporting)."""
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "avg_degree": self.avg_degree,
            "max_degree": self.max_degree,
            "degree_gini": self.degree_gini,
            "isolated_vertices": self.isolated_vertices,
            "self_loops": self.self_loops,
        }


def _gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative array (degree skew measure)."""
    if values.size == 0:
        return 0.0
    v = np.sort(values.astype(np.float64))
    total = v.sum()
    if total == 0:
        return 0.0
    n = v.size
    cum = np.cumsum(v)
    return float((n + 1 - 2 * (cum / total).sum()) / n)


def compute_stats(graph: CSRGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph`` in one vectorized pass."""
    deg = graph.degrees
    src, dst = graph.edge_list()
    loops = int((src == dst).sum())
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        avg_degree=float(deg.mean()) if deg.size else 0.0,
        max_degree=int(deg.max(initial=0)),
        degree_gini=_gini(deg),
        isolated_vertices=int((deg == 0).sum()),
        self_loops=loops,
    )


def estimate_rmat_params(graph: CSRGraph) -> tuple[float, float, float, float]:
    """Estimate R-MAT ``(A, B, C, D)`` from edge endpoint bit statistics.

    For a graph generated with known parameters (``meta['rmat_params']``)
    those are returned directly.  Otherwise the quadrant occupancy of the
    top recursion level is measured from the CSR arrays: fraction of
    directed edges whose (src, dst) fall in each half of the id space.
    On an id-permuted graph this degenerates to ~uniform, which is the
    honest answer (the ids carry no structure); the estimator is mainly
    for unpermuted inputs and for completing the Fig. 7 feature vector.
    """
    params = graph.meta.get("rmat_params")
    if params is not None:
        a, b, c, d = params
        return float(a), float(b), float(c), float(d)
    targets = graph.targets
    m = targets.size
    if m == 0:
        return (0.25, 0.25, 0.25, 0.25)
    # Rows below ``h`` are the low half of the id space; their entries
    # end at ``offsets[h]``, so each side is one contiguous run.
    h = (graph.num_vertices + 1) // 2
    split = int(graph.offsets[h])
    b = int(np.count_nonzero(targets[:split] >= h))
    d = int(np.count_nonzero(targets[split:] >= h))
    return (split - b) / m, b / m, (m - split - d) / m, d / m


def graph_features(graph: CSRGraph) -> np.ndarray:
    """The 6-element graph block of the Fig. 7 training sample.

    ``[|V| (millions), |E| (millions), A, B, C, D]`` — the same units the
    paper's worked example uses ("32 million, 256 million, 0.57, ...").
    """
    a, b, c, d = estimate_rmat_params(graph)
    return np.array(
        [
            graph.num_vertices / 1e6,
            graph.num_edges / 1e6,
            a,
            b,
            c,
            d,
        ],
        dtype=np.float64,
    )
