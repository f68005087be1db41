"""Slow whole-matrix references that the tests compare the fit against.

This module has no tests of its own; the test modules import it.
"""

from typing import NamedTuple

import numpy as np

from hbspline.kernels import AnovaSpec, gram_matrix, null_space_eval
from hbspline.solver import _check_indices


def design_matrices(data, sel, spec: AnovaSpec):
    """The whole design B = [S | R*] of a basis selection, and R**.

    B is n x (m+q): S, the unpenalized basis at the data, then R*, the
    kernel between every data row and every basis point, written in
    place by the chunked kernel builder.  R** (q x q) is the selected
    rows of R*, so its floats are bitwise those of R*.  The fit streams
    the same rows in blocks (solver._design_blocks); this is the
    reference.
    """
    _check_indices(data, sel)
    m = spec.m
    B = np.empty((data.n, m + sel.indices.shape[0]))
    B[:, :m] = null_space_eval(data.X, spec)
    gram_matrix(data.X, data.X[sel.indices], spec, out=B[:, m:])
    return B, B[sel.indices, m:]


class SvdFit(NamedTuple):
    theta: np.ndarray
    trace_A: float
    rss: float
    V: float
    cond: float  # 2-norm condition of the normal matrix on the kept range


def svd_fit(B, Rss, y, m, lam) -> SvdFit:
    """The minimum-norm penalized least-squares fit at lambda, from an SVD.

    Minimizes ||y - B theta||^2 + n lam theta' P theta, P = blockdiag(0, R**),
    as the least-squares problem [B; sqrt(n lam) P^1/2] theta ~ [y; 0], so
    the data rows are never squared into B'B.  P^1/2 comes from an
    eigendecomposition of R**: its eigenvalues at or below
    numpy.linalg.matrix_rank's tolerance, q * eps * max|eigenvalue|, are
    set to 0, since the square root would lift their rounding noise to
    about sqrt(eps).  Singular values of the stacked matrix at or below
    the same tolerance, max(rows, columns) * eps * max sigma, count as
    zero.  The RSS is summed from the residuals y - B theta.
    """
    n, p = B.shape
    eps = np.finfo(np.float64).eps
    w, Q = np.linalg.eigh(Rss)
    w[w <= w.shape[0] * eps * np.abs(w).max()] = 0.0
    root = np.zeros((p - m, p))
    root[:, m:] = (Q * np.sqrt(w)) @ Q.T
    F = np.vstack([B, np.sqrt(n * lam) * root])
    U, sigma, Vt = np.linalg.svd(F, full_matrices=False)
    keep = sigma > max(F.shape) * eps * sigma[0]
    U, sigma, Vt = U[:, keep], sigma[keep], Vt[keep]
    theta = Vt.T @ ((U[:n].T @ y) / sigma)
    trace_A = float((U[:n] ** 2).sum())
    resid = y - B @ theta
    rss = float(resid @ resid)
    denom = (1.0 - trace_A / n) ** 2
    V = (rss / n) / denom if denom > 0.0 else np.inf
    return SvdFit(theta, trace_A, rss, V, float(sigma[0] / sigma[-1]) ** 2)
