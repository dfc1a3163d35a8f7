"""Shared helpers for the test suite."""

import concurrent.futures
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tsre import genotype, harness
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


def random_genotypes(rng, n, m):
    """An int8 dosage panel with no monomorphic columns."""
    raw = rng.integers(0, 3, size=(n, m)).astype(np.int8)
    # move one entry of each constant column so standardize keeps all of them
    const = np.ptp(raw, axis=0) == 0
    raw[0, const] = (raw[0, const] + 1) % 3
    return GenotypeMatrix(
        dosages=raw,
        variant_ids=[f"v{k}" for k in range(m)],
        individual_ids=[f"i{r}" for r in range(n)],
    )


def random_standardized(rng, n, m):
    """A standardized genotype panel with no degenerate columns."""
    return standardize(random_genotypes(rng, n, m))


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
def shares(monkeypatch):
    """The item count of each genotype._share_out call, from genotype or from
    the harness, that actually started a helper thread."""
    seen, started = [], []
    real_pool, real_share_out = concurrent.futures.ThreadPoolExecutor, genotype._share_out

    def pool(*args, **kwargs):
        started.append(True)
        return real_pool(*args, **kwargs)

    def spy(start, count, may_share):
        started.clear()
        try:
            real_share_out(start, count, may_share)
        finally:
            if started:
                seen.append(count)

    # _share_out imports it from concurrent.futures when a helper starts
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(genotype, "_share_out", spy)
    monkeypatch.setattr(harness, "_share_out", spy)
    return seen


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
