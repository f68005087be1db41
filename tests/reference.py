"""Slow whole-matrix references that the tests compare the fit against.

This module has no tests of its own; the test modules import it.
"""

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
