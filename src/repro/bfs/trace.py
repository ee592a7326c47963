"""Per-level traversal counters (the *level profile*).

This is the load-bearing data structure of the reproduction.  One
instrumented traversal (:func:`repro.bfs.profiler.profile_bfs`) records,
for every level, the counters that determine the cost of *both*
directions at that level:

* ``frontier_vertices`` — ``|V|cq`` of Figs. 1/4;
* ``frontier_edges`` — ``|E|cq`` of Figs. 2/4, the top-down work;
* ``unvisited_vertices`` / ``unvisited_edges`` — the bottom-up scan
  domain;
* ``bu_edges_checked`` — edges a bottom-up sweep would inspect *with
  early termination* (each unvisited vertex stops at its first parent);
* ``claimed`` — vertices added to the next queue.

Because the bottom-up counters are functions of the level sets only
(not of which direction actually executed), they are derived after one
top-down traversal from its final level map, and a single profile prices
any per-level direction/device plan without re-traversing the graph:
that is what makes exhaustive switching-point search (Fig. 8, 1,000
candidates) affordable here when the paper could only run it offline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import BFSError

__all__ = ["LevelRecord", "LevelProfile", "merge_mean"]


@dataclass(frozen=True)
class LevelRecord:
    """Counters for one BFS level (all architecture-independent).

    ``bu_edges_failed`` is the portion of ``bu_edges_checked`` spent on
    vertices that found *no* parent this level (full-list scans).  The
    split matters architecturally: failed scans stream long runs
    (prefetcher-friendly on CPUs, divergence-prone on GPUs) while
    successful scans stop after a few probes.
    """

    level: int
    frontier_vertices: int
    frontier_edges: int
    unvisited_vertices: int
    unvisited_edges: int
    bu_edges_checked: int
    claimed: int
    bu_edges_failed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "frontier_vertices",
            "frontier_edges",
            "unvisited_vertices",
            "unvisited_edges",
            "bu_edges_checked",
            "claimed",
            "bu_edges_failed",
        ):
            if getattr(self, name) < 0:
                raise BFSError(f"{name} must be non-negative")
        if self.bu_edges_failed > self.bu_edges_checked:
            raise BFSError(
                "bu_edges_failed cannot exceed bu_edges_checked"
            )

    @property
    def bu_edges_won(self) -> int:
        """Edge checks belonging to vertices that found a parent."""
        return self.bu_edges_checked - self.bu_edges_failed


@dataclass(frozen=True)
class LevelProfile:
    """The full per-level counter trajectory of one traversal."""

    source: int
    num_vertices: int
    num_edges: int
    records: tuple[LevelRecord, ...]

    def __post_init__(self) -> None:
        for i, rec in enumerate(self.records):
            if rec.level != i:
                raise BFSError(
                    f"record {i} has level {rec.level}; profiles must be "
                    "contiguous from level 0"
                )

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LevelRecord]:
        return iter(self.records)

    def __getitem__(self, i: int) -> LevelRecord:
        return self.records[i]

    def frontier_vertices(self) -> np.ndarray:
        """``|V|cq`` per level (the Fig. 1 series)."""
        return np.array([r.frontier_vertices for r in self.records], dtype=np.int64)

    def frontier_edges(self) -> np.ndarray:
        """``|E|cq`` per level (the Fig. 2 series)."""
        return np.array([r.frontier_edges for r in self.records], dtype=np.int64)

    def bu_edges_checked(self) -> np.ndarray:
        """Early-terminating bottom-up edge inspections per level."""
        return np.array([r.bu_edges_checked for r in self.records], dtype=np.int64)

    def unvisited_vertices(self) -> np.ndarray:
        """Unvisited-vertex count entering each level."""
        return np.array([r.unvisited_vertices for r in self.records], dtype=np.int64)

    def total_reached(self) -> int:
        """Vertices reached over the whole traversal (incl. source)."""
        return int(sum(r.claimed for r in self.records)) + 1

    def peak_level(self) -> int:
        """Level with the largest frontier — the 'middle' of Figs. 1–3."""
        if not self.records:
            raise BFSError("empty profile has no peak level")
        return int(np.argmax(self.frontier_vertices()))

    # -- persistence --------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(
            {
                "source": self.source,
                "num_vertices": self.num_vertices,
                "num_edges": self.num_edges,
                "records": [asdict(r) for r in self.records],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LevelProfile":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        return cls(
            source=data["source"],
            num_vertices=data["num_vertices"],
            num_edges=data["num_edges"],
            records=tuple(LevelRecord(**r) for r in data["records"]),
        )

    def save(self, path: str | Path) -> None:
        """Write the profile to ``path`` as JSON."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "LevelProfile":
        """Load a profile written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def merge_mean(profiles: Sequence[LevelProfile]) -> list[dict]:
    """Average aligned level counters across profiles from different
    sources (for plots that aggregate over multiple BFS roots)."""
    if not profiles:
        return []
    depth = max(len(p) for p in profiles)
    out = []
    for lvl in range(depth):
        recs = [p[lvl] for p in profiles if lvl < len(p)]
        out.append(
            {
                "level": lvl,
                "frontier_vertices": float(
                    np.mean([r.frontier_vertices for r in recs])
                ),
                "frontier_edges": float(np.mean([r.frontier_edges for r in recs])),
                "bu_edges_checked": float(
                    np.mean([r.bu_edges_checked for r in recs])
                ),
                "samples": len(recs),
            }
        )
    return out
