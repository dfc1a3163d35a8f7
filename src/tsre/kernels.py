"""Reductions over the unordered pairs i > j of a packed relationship matrix.

Each reduction reads the packed lower triangle in O(n^2).  Row i of it
(diagonal included, row-major) occupies slots [i(i+1)/2, i(i+1)/2 + i], so
the diagonal entry A_ii sits at i(i+3)/2.  No reduction materialises the
pair-level design.  Standardized genotypes need no kernel here: their pair
sums come from the per-variant summaries and the row norms (engine).
"""

import numpy as np


def pair_sums(tri, n, x, y):
    """Sums of A_ij, A_ij*x_i*x_j and symmetrised A_ij*x_i*y_j over all
    pairs i > j of a packed lower triangle.

    Returns (s_axx, s_axy, s_a) as Python floats.  Each sum is a
    whole-triangle reduction minus its diagonal terms; the symmetric
    matrix-vector product A x comes from BLAS, because a row-major packed
    lower triangle is the column-major packed upper one that dspmv reads.
    """
    # imported here, its one use: scipy.linalg adds about 50 ms to `import tsre`
    from scipy.linalg.blas import dspmv

    idx = np.arange(n, dtype=np.int64)
    d = tri[idx * (idx + 3) // 2]
    ax = dspmv(n, 1.0, tri, x, lower=0)
    s_a = tri.sum() - d.sum()
    s_axx = (x @ ax - d @ (x * x)) / 2.0
    s_axy = (y @ ax - d @ (x * y)) / 2.0
    return float(s_axx), float(s_axy), float(s_a)


def diag_sums(tri, n, x, y, theta, a_bar, e_bar):
    """First and second moments of t_ij = (A_ij - a_bar)*(e_ij - e_bar)
    where e_ij = (x_i*y_j + y_i*x_j)/2 - theta*x_i*x_j, over pairs i > j."""
    s_t = 0.0
    s_tt = 0.0
    for i in range(1, n):
        off = i * (i + 1) // 2
        row = tri[off:off + i]
        e = 0.5 * (x[i] * y[:i] + y[i] * x[:i]) - theta * x[i] * x[:i]
        t = (row - a_bar) * (e - e_bar)
        s_t += t.sum()
        s_tt += t @ t
    return float(s_t), float(s_tt)
