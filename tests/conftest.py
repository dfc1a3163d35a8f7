"""Shared helpers for the test suite."""

import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tsre.genotype import GenotypeMatrix, compute_grm, standardize
from tsre.simulate import ScenarioConfig


def packed_to_dense(tri: np.ndarray, n: int) -> np.ndarray:
    """Expand a packed lower triangle (diagonal included) to a dense matrix."""
    out = np.zeros((n, n))
    k = 0
    for i in range(n):
        for j in range(i + 1):
            out[i, j] = tri[k]
            out[j, i] = tri[k]
            k += 1
    return out


def dense_to_packed(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    return np.array([a[i, j] for i in range(n) for j in range(i + 1)])


def random_standardized(rng, n, m):
    """A standardized genotype panel with no degenerate columns."""
    raw = rng.integers(0, 3, size=(n, m)).astype(np.float64)
    # move one entry of each constant column so standardize keeps all of them
    const = np.ptp(raw, axis=0) == 0
    raw[0, const] = (raw[0, const] + 1) % 3
    gm = GenotypeMatrix(
        dosages=raw,
        variant_ids=[f"v{k}" for k in range(m)],
        individual_ids=[f"i{r}" for r in range(n)],
    )
    return standardize(gm)


def write_scenario(cfg, path):
    """Write cfg as the `key = value` lines that load_scenario reads."""
    text = "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(ScenarioConfig))
    Path(path).write_text(text, encoding="utf-8")


def random_grm(rng, n, m):
    return compute_grm(random_standardized(rng, n, m))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so that a lost update between the
    two threads would show."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(before)
