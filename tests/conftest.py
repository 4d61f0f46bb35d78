"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import RunConfig
from repro.sched.costmodel import CostModel

REPO_ROOT = Path(__file__).resolve().parent.parent


def fresh_python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter, from the repository root.

    pytest's own process has imported every module by now, so what a
    command imports, and whether it imports what it needs, only shows
    in a fresh interpreter.
    """
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(autouse=True)
def _deterministic_rng():
    """Pin the global RNGs before every test.

    Engine code only uses explicitly-seeded generators, but real-thread
    tests and hypothesis shrinking must not be perturbed by whatever
    global-RNG state a previously-run test left behind.
    """
    random.seed(0xEA57)
    np.random.seed(0xEA57)


def make_config(**kwargs) -> RunConfig:
    """A small, fast default configuration for kernel tests."""
    defaults = dict(
        kernel="mandel",
        variant="omp_tiled",
        dim=64,
        tile_w=16,
        tile_h=16,
        iterations=2,
        nthreads=4,
        schedule="dynamic",
        seed=42,
        # the deterministic threaded substrate; process-substrate tests
        # opt in explicitly (tests/test_mpi_substrate.py)
        mpi_backend="inproc",
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


@pytest.fixture
def config():
    return make_config()


@pytest.fixture
def zero_overhead_model():
    """Cost model without scheduling overheads (exact-arithmetic tests)."""
    return CostModel(
        seconds_per_unit=1.0,
        dispatch_overhead=0.0,
        steal_overhead=0.0,
        fork_join_overhead=0.0,
    )


@pytest.fixture
def unit_model():
    """1 work unit == 1 virtual second, small fixed overheads."""
    return CostModel(
        seconds_per_unit=1.0,
        dispatch_overhead=0.01,
        steal_overhead=0.05,
        fork_join_overhead=0.1,
    )
