"""Pair-reduction kernels against explicit double-loop oracles."""

import numpy as np
import pytest

from tsre import kernels
from tsre.engine import pair_moments
from tsre.genotype import compute_grm, simulate_genotypes, standardize

from conftest import dense_to_packed, packed_to_dense

# (n, seed, m): m None draws a dense symmetric normal matrix; otherwise the
# GRM of m simulated variants, whose pair sums are also taken from the
# summaries and row norms of the standardized genotypes, for any m.  With m >> n that GRM is diagonal-dominant
# (off-diagonal entries ~ 1/sqrt(m) against a unit diagonal), as in the
# many-null-variant regime, so the pair sums are small differences of
# whole-triangle and diagonal terms.  The GRMs come from simulate_genotypes,
# the sampler the replicates use, so they have the allele frequencies
# (0.2-0.3) of the simulated rows; conftest.random_grm draws dosages 0, 1, 2
# uniformly instead.
CASES = [
    (2, 0, None),
    (3, 1, None),
    (5, 2, None),
    (17, 3, None),
    (40, 4, None),
    (7, 5, None),
    (5, 6, 5000),
    (17, 7, 20000),
    (40, 8, 50000),
    (40, 9, 10),
    (60, 10, 1),
]


def _random_instance(n, seed, m):
    rng = np.random.default_rng(seed)
    z = None
    if m is None:
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        tri = np.ascontiguousarray(dense_to_packed(a))
    else:
        std = standardize(simulate_genotypes(n, m, 0.2, 0.3, rng))
        grm = compute_grm(std)
        a = packed_to_dense(grm.lower_triangle, n)
        tri = grm.lower_triangle
        z = std.values
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    return a, tri, x, y, z


class _BlockSource:
    """A standardized-genotype source that yields the given column blocks."""

    def __init__(self, blocks):
        self._blocks = blocks
        self.n = blocks[0].shape[0]
        self.m = sum(b.shape[1] for b in blocks)
        self.variant_ids = [f"v{k}" for k in range(self.m)]

    def blocks(self):
        return iter(self._blocks)


def _pair_sums_oracle(a, x, y):
    n = a.shape[0]
    s_axx = s_axy = s_a = 0.0
    for i in range(n):
        for j in range(i):
            s_a += a[i, j]
            s_axx += a[i, j] * x[i] * x[j]
            s_axy += a[i, j] * (x[i] * y[j] + y[i] * x[j]) / 2
    return s_axx, s_axy, s_a


def _diag_sums_oracle(a, x, y, theta, a_bar, e_bar):
    n = a.shape[0]
    s_t = s_tt = 0.0
    for i in range(n):
        for j in range(i):
            e = (x[i] * y[j] + y[i] * x[j]) / 2 - theta * x[i] * x[j]
            t = (a[i, j] - a_bar) * (e - e_bar)
            s_t += t
            s_tt += t * t
    return s_t, s_tt


@pytest.mark.parametrize("n,seed,m", CASES)
def test_pair_sums_matches_double_loop(n, seed, m):
    a, tri, x, y, z = _random_instance(n, seed, m)
    want = _pair_sums_oracle(a, x, y)
    kernel_sums = [kernels.pair_sums(tri, n, x, y)]
    if z is not None:
        # the summaries route of the genotypes: Z whole, and the same Z as
        # three column blocks, as a streamed source gives it
        blocks = np.array_split(z, min(3, z.shape[1]), axis=1)
        for source in (_BlockSource([z]), _BlockSource(blocks)):
            pm = pair_moments(source, x, y)
            kernel_sums.append((pm.s_axx, pm.s_axy, pm.s_a))
    for got in kernel_sums:
        assert all(type(v) is float for v in got)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,seed,m", CASES)
def test_diag_sums_matches_double_loop(n, seed, m):
    a, tri, x, y, _ = _random_instance(n, seed, m)
    theta, a_bar, e_bar = 0.37, 0.05, -0.2
    got = kernels.diag_sums(tri, n, x, y, theta, a_bar, e_bar)
    want = _diag_sums_oracle(a, x, y, theta, a_bar, e_bar)
    assert all(type(v) is float for v in got)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_single_individual_has_no_pairs():
    tri = np.array([1.0])
    x = np.array([2.0])
    assert kernels.pair_sums(tri, 1, x, x) == (0.0, 0.0, 0.0)
