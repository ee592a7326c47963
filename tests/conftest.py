"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro

from repro.arch.specs import CPU_SANDY_BRIDGE, GPU_K20X, MIC_KNC
from repro.bfs.profiler import pick_sources, profile_bfs
from repro.graph.generators import rmat


@pytest.fixture(scope="session")
def rmat_small():
    """A small R-MAT graph (SCALE 10, ef 16) shared across the suite."""
    return rmat(10, 16, seed=7)


@pytest.fixture(scope="session")
def rmat_medium():
    """A medium R-MAT graph (SCALE 13, ef 16)."""
    return rmat(13, 16, seed=11)


@pytest.fixture(scope="session")
def rmat_source(rmat_small):
    """A Graph 500-style random root for the small graph."""
    return int(pick_sources(rmat_small, 1, seed=3)[0])


@pytest.fixture(scope="session")
def small_profile(rmat_small, rmat_source):
    """Measured level profile of the small graph."""
    profile, _ = profile_bfs(rmat_small, rmat_source)
    return profile


@pytest.fixture(scope="session")
def medium_profile(rmat_medium):
    """Measured level profile of the medium graph."""
    source = int(pick_sources(rmat_medium, 1, seed=5)[0])
    profile, _ = profile_bfs(rmat_medium, source)
    return profile


@pytest.fixture(scope="session")
def presets():
    """The three paper architecture presets."""
    return {"cpu": CPU_SANDY_BRIDGE, "gpu": GPU_K20X, "mic": MIC_KNC}


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


#: The installed package directory, the scope of the self-lint gates.
PACKAGE_DIR = Path(repro.__file__).parent


@pytest.fixture(scope="session")
def package_deep_lint():
    """``lint_paths([PACKAGE_DIR], deep=True)``, run once per session.

    The whole-package deep analysis is the slowest step in the suite,
    and several gates assert on it; each reads this one result."""
    from repro.analysis import lint_paths

    return lint_paths([PACKAGE_DIR], deep=True)


@pytest.fixture()
def shared_package_deep_lint(monkeypatch, package_deep_lint):
    """Route whole-package deep ``lint_paths`` calls made through
    ``repro.analysis`` (as the CLI makes them) to the session result,
    keeping only the selected rules; every other call runs for real."""
    import repro.analysis as analysis

    real = analysis.lint_paths

    def lint_paths(paths, *, select=None, deep=False, restrict_to=None):
        paths = list(paths)
        whole_package = (
            deep
            and restrict_to is None
            and [Path(p).resolve() for p in paths] == [PACKAGE_DIR.resolve()]
        )
        if not whole_package:
            return real(paths, select=select, deep=deep, restrict_to=restrict_to)
        violations, checked = package_deep_lint
        if select is not None:
            wanted = set(select)
            violations = [v for v in violations if v.rule in wanted]
        return violations, checked

    monkeypatch.setattr(analysis, "lint_paths", lint_paths)
