"""BFS engines: reference, vectorized top-down/bottom-up, the
direction-optimizing hybrid, the SpMV formulation and the instrumented
level profiler."""

from repro.bfs.bottomup import bfs_bottom_up, bottom_up_step
from repro.bfs.hybrid import (
    DEFAULT_POLICY,
    DirectionPolicy,
    LevelState,
    MNPolicy,
    bfs_hybrid,
)
from repro.bfs.multisource import MultiSourceResult, msbfs
from repro.bfs.profiler import pick_sources, profile_bfs
from repro.bfs.reference import bfs_reference
from repro.bfs.result import BFSResult, Direction
from repro.bfs.timing import TimedLevel, TimedRun, timed_bfs
from repro.bfs.spmv import adjacency_matrix, bfs_spmv, spmv_bytes, spmv_flops
from repro.bfs.topdown import bfs_top_down, top_down_step
from repro.bfs.trace import LevelProfile, LevelRecord, merge_mean
from repro.bfs.workspace import BFSWorkspace

__all__ = [
    "BFSResult",
    "BFSWorkspace",
    "Direction",
    "LevelProfile",
    "LevelRecord",
    "merge_mean",
    "bfs_reference",
    "bfs_top_down",
    "top_down_step",
    "bfs_bottom_up",
    "bottom_up_step",
    "bfs_hybrid",
    "MNPolicy",
    "DEFAULT_POLICY",
    "DirectionPolicy",
    "LevelState",
    "msbfs",
    "MultiSourceResult",
    "bfs_spmv",
    "timed_bfs",
    "TimedRun",
    "TimedLevel",
    "adjacency_matrix",
    "spmv_flops",
    "spmv_bytes",
    "profile_bfs",
    "pick_sources",
]
