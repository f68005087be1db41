"""Penalized least squares on the selected basis, with GCV tuning.

With unpenalized design S (n x m), kernel design R* (n x q) on the
basis points, and penalty Gram R** (q x q), the fit minimizes

    (1/n) * ||y - S a - R* b||^2 + lam * b' R** b

whose stationary conditions are the symmetric normal equations

    [ S'S      S'R*            ] [a]   [S'y ]
    [ R*'S     R*'R* + n lam R** ] [b] = [R*'y]

solved, for every lambda, from one decomposition (_GcvScan): symmetric
eigendecompositions whiten a fixed reference matrix M0, dropping its null
directions by a stated rank rule, and diagonalize G in those coordinates.
All dense linear algebra is numpy.linalg.  The model's
"condition_estimate" diagnostic is the exact 1-norm condition number of
M0 on its kept range.  The smoothing parameter is chosen by generalized
cross-validation over the fixed log-spaced grid LAMBDA_GRID followed by
a short golden-section refinement between the winning grid point's
neighbors, and the chosen lambda is solved from the same decomposition.

Everything the per-lambda search needs (B'B, B'y, y'y with
B = [S, R*], and R**) is accumulated once over row blocks of B, so no
more than _BLOCK_ROWS rows of the n x (m+q) design exist at a time;
each lambda then costs O(m+q) to score and O((m+q)^2) to solve: total
fitting cost is one O(n*q^2) assembly plus O((m+q)^3) work independent
of n, in O(_BLOCK_ROWS*(m+q) + (m+q)^2) memory beyond the data.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (InvalidConfigError, InvalidInputError, SingularSystemError, as_indices,
                     as_points, as_real)
from .kernels import (
    AnovaSpec,
    gram_matrix,
    null_space_eval,
    rescale_term_weights,
)
from .selection import apply_scaler

__all__ = [
    "LAMBDA_GRID",
    "FittedModel",
    "gcv_select",
    "fit_fixed_lambda",
    "predict",
    "predict_with_diagnostics",
    "mse",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 1

# Rows of the design [S | R*] formed at a time when accumulating the
# normal equations.  At n = 2e4-1e5, q = 100-1000, d = 2-4 (one BLAS
# thread) blocks of 1024-8192 rows cost the same to within 8 %, and 256
# rows up to 25 % more.  2048 rows hold 3.4 MB at q = 200, and a fit on
# up to 2048 rows forms its G and b from one block, as from the whole B.
_BLOCK_ROWS = 2048

_EPS = np.finfo(np.float64).eps

# An RSS below this fraction of y'y has lost its digits in the closed
# form y'y - 2 theta'b + theta'G theta (the fit nearly interpolates).
_CANCELLATION = np.sqrt(_EPS)


# The smoothing parameters the GCV search scans (read-only).
LAMBDA_GRID = np.logspace(-9.0, 1.0, 40)
LAMBDA_GRID.setflags(write=False)


@dataclass(frozen=True)
class FittedModel:
    """A fitted expansion: prediction = S(x) alpha + R(x, basis) beta."""

    spec: AnovaSpec
    basis_points: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    lam: float
    gcv_score: float
    scaler: np.ndarray
    diagnostics: dict

    def __post_init__(self):
        self.basis_points.setflags(write=False)
        self.alpha.setflags(write=False)
        self.beta.setflags(write=False)
        self.scaler.setflags(write=False)


def cho_factor(a):
    """Inverse Cholesky factor L^-1 of a symmetric positive definite matrix.

    Raises np.linalg.LinAlgError when a is not numerically positive
    definite.  The fit no longer calls it; perfbench's tracer wraps it
    by name.
    """
    return np.linalg.inv(np.linalg.cholesky(a))


def cho_solve(c, b):
    """a^-1 b from cho_factor's c = L^-1, as L^-T (L^-1 b).

    The fit no longer calls it; perfbench's tracer wraps it by name.
    """
    return c.T @ (c @ b)


def _above_tolerance(e: np.ndarray) -> np.ndarray:
    """The rank rule: which eigenvalues e of a symmetric matrix are not null.

    Null is at or below len(e) * eps * max|e|, numpy.linalg.matrix_rank's
    tolerance; a non-finite e has nothing above it.
    """
    return e > e.shape[0] * _EPS * np.abs(e).max()


def _whiten(M: np.ndarray) -> np.ndarray:
    """T with T' M T = I over M's eigenvectors above the rank tolerance.

    M is first scaled in place to unit diagonal, D^-1/2 M D^-1/2 with D
    its diagonal (1 where not positive): as with Cholesky, its column
    scales then do not matter (on a q = n = 75 fit at d = 2 the scan's V
    went from 3.5e-6 of a 40-digit value to 6.7e-7).  T = D^-1/2 Q e^-1/2.
    """
    diag = np.diagonal(M)
    d = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    M /= d
    M /= d[:, None]
    e, Q = np.linalg.eigh(M, UPLO="L")
    null = int(np.count_nonzero(~_above_tolerance(e)))  # e ascends: a prefix
    T = Q[:, null:]
    T /= np.sqrt(e[null:])
    T /= d[:, None]
    return T


class _Solution(NamedTuple):
    """The fit at one lambda: coefficients on every column of G, and GCV terms."""

    theta: np.ndarray
    trace_A: float
    rss: float
    V: float
    spread: float


class _GcvScan:
    """V(lambda), and the fit at any lambda, from three symmetric eigh calls.

    It takes G = B'B, b = B'y and yty = y'y of the n x (m+q) design
    B = [S | R*], and R**; B itself is not kept, so the per-lambda work is
    free of the n rows.  With P = blockdiag(0, R**) the normal matrix at
    lambda is G + n lam P.  With M0 = G + s P and s = tr G / tr P, the
    scan whitens M0 blockwise (_whiten): A = S'S as T_A' A T_A = I, then
    the Schur complement E = M0_22 - M0_21 A^+ M0_12, A^+ = T_A T_A', as
    T_E' E T_E = I.  Each drops the directions that the rank rule
    (_above_tolerance) finds null: a constant predictor's column, the
    difference of two copies of a basis point, and any direction M0
    does not resolve in double precision; the r kept are M0's rank.
    W0 = [[-A^+ M0_12 T_E, T_A], [T_E, 0]] has W0' M0 W0 = I and
    W0' P W0 = blockdiag(T_E' R** T_E, 0), so with
    mu, V = eigh(-s T_E' R** T_E) and W = W0 blockdiag(V, I), W' M0 W = I
    and W' G W = diag(gamma), gamma = 1 + mu on the penalized directions
    and exactly 1 on the unpenalized ones.  The normal matrix at lambda
    is G + t (M0 - G) with t = n lam / s, so W' (normal matrix) W = diag(d)
    with d = gamma + t (1 - gamma).  The scan keeps only W.  With
    z = W' B'y and shrink = t (1 - gamma) / d, summing over the r'
    directions whose gamma the rank rule finds not null in G,

        theta       = W (z / d)
        trace A     = sum gamma / d
        n - trace A = (n - r') + sum shrink
        RSS         = y'y - sum z^2 (1 + shrink) / d
                    = RSS_0 + sum (z^2 / gamma) shrink^2

    where RSS_0 = y'y - sum z^2 / gamma is the residual of y off the
    columns of B (0 when r' = n).  W W' is a generalized inverse of M0, so
    theta is minimum-norm in _whiten's unit-diagonal coordinates, where
    copies of a basis point have equal scales and share its coefficient.
    Each lambda costs O(m + q) to score and O((m + q)^2) to solve: the
    GCVPACK scheme (Bates, Lindstrom, Wahba & Yandell 1987).
    """

    def __init__(self, G, b, yty: float, Rss, n: int, m: int):
        if n < m + 1:
            raise InvalidConfigError(f"need at least m+1={m + 1} rows to fit, got {n}")
        # The scan never writes G, R** or b.
        self.G, self.Rss, self.b = G, Rss, b
        self.n, self.yty, self.m, self.p = n, yty, m, G.shape[0]
        self.s = float(np.trace(self.G)) / float(np.trace(self.Rss))
        try:
            gamma, W = self._spectrum()
        except np.linalg.LinAlgError as exc:  # as on a non-finite system
            raise SingularSystemError(f"GCV scan eigendecomposition failed: {exc}") from None
        self.rank = W.shape[1]
        M0 = self.G.copy()
        M0[self.m :, self.m :] += self.s * self.Rss
        self.condition_estimate = _condition_estimate(M0, W.T)
        del M0
        # Null directions of G add 1 to n - trace A and nothing to the RSS:
        # those with gamma at or below the rank tolerance, and at least the
        # r - n smallest (gamma ascends), since G = B'B has rank at most n.
        kept = _above_tolerance(gamma) & (np.arange(self.rank) >= self.rank - self.n)
        self.gamma = np.minimum(gamma[kept], 1.0)
        self.W = W = W[:, kept]
        self.z2 = (W.T @ self.b) ** 2
        self.free = self.n - self.gamma.shape[0]
        # With rank n, B spans R^n and y has no residual off its columns.
        rss0 = self.yty - float((self.z2 / self.gamma).sum()) if self.free else 0.0
        self.rss0 = max(rss0, 0.0)

    def _spectrum(self):
        """gamma ascending and W (p x r) with W' M0 W = I and W' G W = diag(gamma).

        W = W0 blockdiag(V, I) is written into one p x r array, so that
        no product temporary sits beside T_E, V and W.
        """
        m, G, Rss = self.m, self.G, self.Rss
        Ta = _whiten(G[:m, :m].copy())
        K = Ta.T @ G[:m, m:]
        E = np.multiply(Rss, self.s)
        E += G[m:, m:]
        E -= K.T @ K
        Te = _whiten(E)
        del E
        H = Te.T @ (Rss @ Te)
        H *= -self.s
        mu, V = np.linalg.eigh(H, UPLO="L")
        del H
        k, r = V.shape[0], V.shape[0] + Ta.shape[1]
        W = np.empty((self.p, r))
        np.matmul(Te, V, out=W[m:, :k])
        del Te, V
        np.matmul(Ta, -(K @ W[m:, :k]), out=W[:m, :k])
        W[:m, k:] = Ta
        W[m:, k:] = 0.0
        return np.concatenate([1.0 + mu, np.ones(r - k)]), W

    def _curve(self, lams):
        """V and d at each lambda (rows); V is inf where trace(A) reaches n."""
        t = (self.n * np.atleast_1d(np.asarray(lams, dtype=np.float64)) / self.s)[:, None]
        d = self.gamma + t * (1.0 - self.gamma)
        shrink = t * (1.0 - self.gamma) / d
        resid_dof = self.free + shrink.sum(axis=1)
        # The first RSS form loses all digits as RSS << y'y (fits that
        # nearly interpolate); the second stays exact there but carries
        # the rounding error of small gammas, so it is used only then.
        rss = self.yty - (self.z2 * (1.0 + shrink) / d).sum(axis=1)
        near = rss < _CANCELLATION * self.yty
        if near.any():
            tail = (self.z2 / self.gamma * shrink[near] ** 2).sum(axis=1)
            rss[near] = self.rss0 + tail
        denom = (resid_dof / self.n) ** 2
        V = np.divide(rss / self.n, denom, out=np.full_like(denom, np.inf), where=denom > 0.0)
        return V, rss, d

    def scores(self, lams) -> np.ndarray:
        """V at each lambda; inf where trace(A) reaches n."""
        return self._curve(lams)[0]

    def score(self, lam: float) -> float:
        return float(self.scores([lam])[0])

    def _inverse(self, r, d):
        """(normal matrix)^+ r over the kept directions, d from _curve."""
        return self.W @ ((self.W.T @ r) / d)

    def solve(self, lam: float) -> _Solution:
        """The fit at lam; its V is bitwise score(lam).

        theta takes one step of iterative refinement against the normal
        equations.  On six bench fits of 1-norm condition 3e14 to 9e15
        (M0 then whitened by Cholesky) it took the fitted values from
        1.5-4x further from a 40-digit solve than a Cholesky solve's to
        closer on five; a second step gained nothing.
        """
        V, rss, d = (a[0] for a in self._curve([lam]))
        theta = self._inverse(self.b, d)
        resid = self.b - self.G @ theta
        resid[self.m :] -= (self.n * lam) * (self.Rss @ theta[self.m :])
        theta += self._inverse(resid, d)
        return _Solution(
            theta=theta,
            trace_A=float((self.gamma / d).sum()),
            rss=float(rss),
            V=float(V),
            spread=float(d.max() / d.min()),
        )


def _condition_estimate(M: np.ndarray, c) -> float:
    """1-norm condition number ||M||_1 ||M^-||_1, M^- = c' c an inverse of M.

    M^- may be a generalized inverse; its norm is a reduction on an abs
    taken in place, so no fourth p x p array sits beside M, c and M^-.
    """
    kappa = float(np.linalg.norm(M, 1))
    Minv = c.T @ c
    kappa *= float(np.abs(Minv, out=Minv).sum(axis=0).max())
    return kappa if np.isfinite(kappa) else float("inf")


def _basis_indices(data, sel, spec: AnovaSpec) -> np.ndarray:
    """sel's indices as int64 rows of data (errors.as_indices); spec's d must be data's."""
    if spec.d != data.d:
        raise InvalidInputError(f"spec has d={spec.d}, but the data has {data.d} columns")
    return as_indices("sel.indices", sel.indices, data.n)


def _design_blocks(X, basis_points, spec: AnovaSpec):
    """Yield (lo, Bc): rows lo to lo + len(Bc) of [S | R*], _BLOCK_ROWS at a time.

    Every block is written into one reused buffer: consume a block
    before asking for the next.
    """
    n, m = X.shape[0], spec.m
    buf = np.empty((min(n, _BLOCK_ROWS), m + basis_points.shape[0]))
    for lo in range(0, n, _BLOCK_ROWS):
        Xc = X[lo : lo + _BLOCK_ROWS]
        Bc = buf[: Xc.shape[0]]
        Bc[:, :m] = null_space_eval(Xc, spec)
        gram_matrix(Xc, basis_points, spec, out=Bc[:, m:])
        yield lo, Bc


def _normal_equations(data, indices, spec: AnovaSpec) -> _GcvScan:
    """The scan of G = B'B and b = B'y, accumulated over row blocks of B, and R**.

    R** is the kernel among the basis points data.X[indices]; the
    builder computes each entry from its two points alone, so its rows
    are copied bitwise out of the R* rows of the blocks as they pass.
    """
    basis_points = data.X[indices]
    m, q = spec.m, indices.shape[0]
    G, b, Rss = np.zeros((m + q, m + q)), np.zeros(m + q), np.empty((q, q))
    for lo, Bc in _design_blocks(data.X, basis_points, spec):
        G += Bc.T @ Bc
        b += Bc.T @ data.y[lo : lo + Bc.shape[0]]
        here = (indices >= lo) & (indices < lo + Bc.shape[0])
        Rss[here] = Bc[indices[here] - lo, m:]
    return _GcvScan(G, b, float(data.y @ data.y), Rss, data.n, m)


def _explicit_rss(data, basis_points, spec: AnovaSpec, theta) -> float:
    """||y - B theta||^2 from a second streamed pass over B."""
    rss = 0.0
    for lo, Bc in _design_blocks(data.X, basis_points, spec):
        resid = data.y[lo : lo + Bc.shape[0]] - Bc @ theta
        rss += float(resid @ resid)
    return rss


_INVGR = (np.sqrt(5.0) - 1.0) / 2.0


def _gcv_search(scan: _GcvScan) -> tuple[float, int]:
    """GCV-optimal lambda and the count of grid points with no finite score.

    Scans LAMBDA_GRID, then refines with three golden-section steps in
    log-lambda between the winning point's grid neighbors.  Ties in
    the score go to the smaller lambda.
    """
    lams = LAMBDA_GRID
    scores = scan.scores(lams)
    n_fail = int(np.count_nonzero(~np.isfinite(scores)))
    best_i = int(np.argmin(scores))  # argmin takes the first, smallest lambda
    best_lam = float(lams[best_i])
    best_V = float(scores[best_i])

    # Golden-section refinement in log-lambda between the neighbors.
    lo = np.log(lams[max(best_i - 1, 0)])
    hi = np.log(lams[min(best_i + 1, lams.shape[0] - 1)])
    if hi > lo:
        x1 = hi - _INVGR * (hi - lo)
        x2 = lo + _INVGR * (hi - lo)
        f1 = scan.score(np.exp(x1))
        f2 = scan.score(np.exp(x2))
        for _ in range(3):
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _INVGR * (hi - lo)
                f1 = scan.score(np.exp(x1))
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _INVGR * (hi - lo)
                f2 = scan.score(np.exp(x2))
        for xv, fv in ((x1, f1), (x2, f2)):
            lv = float(np.exp(xv))
            if fv < best_V or (fv == best_V and lv < best_lam):
                best_V, best_lam = float(fv), lv
    return best_lam, n_fail


def _fit(data, sel, spec: AnovaSpec, lam=None) -> FittedModel:
    """Fit at lam, or at the GCV choice over LAMBDA_GRID when lam is None.

    The term scales of spec are set on the basis points first.
    """
    indices = _basis_indices(data, sel, spec)
    basis_points = np.array(data.X[indices], dtype=np.float64)
    spec = rescale_term_weights(spec, basis_points)
    scan = _normal_equations(data, indices, spec)
    diagnostics = {}
    if lam is None:
        lam, diagnostics["grid_failures"] = _gcv_search(scan)
    fit = scan.solve(lam)
    gcv_score = fit.V
    if fit.rss < _CANCELLATION * scan.yty:
        rss = _explicit_rss(data, basis_points, spec, fit.theta)
        gcv_score = (rss / scan.n) / (1.0 - fit.trace_A / scan.n) ** 2
    diagnostics.update({
        "trace_A": fit.trace_A,
        "condition_estimate": scan.condition_estimate,
        "spread": fit.spread,
        "rank": scan.rank,
        "dropped_directions": scan.p - scan.rank,
        "n": scan.n,
        "q": indices.shape[0],
        "m": spec.m,
    })
    return FittedModel(
        spec=spec,
        basis_points=basis_points,
        alpha=np.array(fit.theta[: spec.m]),
        beta=np.array(fit.theta[spec.m :]),
        lam=float(lam),
        gcv_score=float(gcv_score),
        scaler=np.array(data.scaler),
        diagnostics=diagnostics,
    )


def gcv_select(data, sel, spec: AnovaSpec) -> FittedModel:
    """Fit on a basis selection, choosing lambda by GCV (_gcv_search).

    One decomposition (_GcvScan) scores every lambda and solves the
    chosen one.  gcv_score is the scan's own V at that lambda, unless
    the fit's RSS falls below sqrt(eps) * y'y (_CANCELLATION): then it
    is V from the explicit residuals of a second pass over the data.

    Parameters
    ----------
    data : Dataset
    sel : BasisSelection
    spec : AnovaSpec
        Term structure; its term scales are ignored and set on the
        selected basis points (rescale_term_weights).

    Returns
    -------
    FittedModel
        Model at the best lambda; diagnostics carry the influence
        trace, the reference matrix's 1-norm condition number on its
        kept range, the spread max d / min d at lambda, that matrix's
        rank, and the count of directions the rank rule dropped from it.
    """
    return _fit(data, sel, spec)


def _as_lambda(name, value, error=InvalidConfigError) -> float:
    """A smoothing parameter: a finite number > 0."""
    lam = as_real(name, value, error)
    if not 0 < lam < np.inf:
        raise error(f"{name} must be finite and > 0, got {lam!r}")
    return lam


def fit_fixed_lambda(data, sel, spec: AnovaSpec, lam: float) -> FittedModel:
    """Fit at a caller-chosen lambda (a finite number > 0), scaled as
    gcv_select, whose rule gives gcv_score (V at lam)."""
    return _fit(data, sel, spec, lam=_as_lambda("lambda", lam))


def predict(model: FittedModel, Xnew) -> np.ndarray:
    """Evaluate the fitted expansion at raw (unscaled) inputs.

    The stored scaler is applied first; coordinates landing outside
    [0,1] are clamped (see predict_with_diagnostics for the count).
    """
    return predict_with_diagnostics(model, Xnew)[0]


def predict_with_diagnostics(model: FittedModel, Xnew) -> tuple[np.ndarray, int]:
    """Predictions plus the number of clamped out-of-range coordinates."""
    X = as_points("Xnew", Xnew, model.scaler.shape[1])
    if X.shape[0] == 0:
        return np.empty(0), 0
    scaled, clamped = apply_scaler(X, model.scaler)
    if clamped:
        logger.debug("%d coordinates clamped into the unit cube", clamped)
    pred = null_space_eval(scaled, model.spec) @ model.alpha
    # Stream the rows: only one block of the kernel matrix exists at a
    # time, in one reused buffer.  _BLOCK_ROWS is a multiple of the
    # kernel builder's row alignment, so each block's product groups
    # rows as an unchunked product does.  A lone last row joins the
    # block before it, because BLAS takes a one-row product down its
    # dot path, which rounds differently from the matrix-vector path.
    n, lo = pred.shape[0], 0
    K_buf = np.empty((min(n, _BLOCK_ROWS + 1), model.beta.size))
    while lo < n:
        hi = n if n - lo <= _BLOCK_ROWS + 1 else lo + _BLOCK_ROWS
        K = gram_matrix(scaled[lo:hi], model.basis_points, model.spec, out=K_buf[: hi - lo])
        pred[lo:hi] += K @ model.beta
        lo = hi
    return pred, clamped


def mse(pred, truth) -> float:
    """Mean squared difference of two equal-length vectors."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    if p.shape[0] != t.shape[0]:
        raise InvalidInputError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if p.shape[0] == 0:
        raise InvalidInputError("mse of empty vectors")
    diff = p - t
    return float(diff @ diff) / p.shape[0]


def save_model(model: FittedModel, path, predictors=None):
    """Write a model as versioned JSON; floats round-trip exactly."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": {
            "d": model.spec.d,
            "main_effects": list(model.spec.main_effects),
            "interactions": [list(p) for p in model.spec.interactions],
            "term_scales": list(model.spec.term_scales),
        },
        "scaler": model.scaler.tolist(),
        "basis_points": model.basis_points.tolist(),
        "alpha": model.alpha.tolist(),
        "beta": model.beta.tolist(),
        "lambda": model.lam,
        "gcv_score": model.gcv_score,
        "diagnostics": model.diagnostics,
    }
    if predictors is not None:
        payload["predictors"] = list(predictors)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _model_field(obj, key, check=None):
    """obj[key], passed through check(name, value, InvalidInputError) if given."""
    if key not in obj:
        raise InvalidInputError(f"model file lacks the {key!r} field")
    return obj[key] if check is None else check(f"model field {key!r}", obj[key], InvalidInputError)


def _numbers_only(value) -> bool:
    """True for a JSON number or nested lists of them: no string or boolean."""
    if isinstance(value, list):
        return all(_numbers_only(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _model_array(obj, key, shape, cube=False) -> np.ndarray:
    """A model field of the given shape whose entries are all JSON numbers
    (numpy alone would read [0.5, true] as [0.5, 1.0]), each finite, or in
    [0, 1] when cube is set (as_points)."""
    name = f"model field {key!r}"
    value = _model_field(obj, key)
    try:
        arr = np.asarray(value, dtype=np.float64) if _numbers_only(value) else None
    except (ValueError, OverflowError):  # ragged, or an integer past float range
        arr = None
    if arr is None:
        raise InvalidInputError(f"{name} is not numeric")
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)  # JSON stores an empty (0, d) array as []
    if arr.shape != shape:
        raise InvalidInputError(f"{name} has shape {arr.shape}, expected {shape}")
    as_points(name, arr, cube=cube, column=True)
    return arr


def load_model(path) -> FittedModel:
    """Read a model written by save_model; rejects unknown versions.

    Raises
    ------
    InvalidInputError
        Naming the field, when the file is not a JSON object, a field
        is missing, or an array has the wrong shape for the spec
        (alpha: m; beta: one entry per basis point; basis points and
        scaler: d columns), a string, boolean or non-finite entry, a
        basis point lies outside [0, 1]^d, a scaler minimum exceeds its
        maximum, lambda is not a finite number > 0, or gcv_score is not
        a number >= 0.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read model file {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidInputError(f"model file {path} does not hold a JSON object")
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise InvalidInputError(
            f"unsupported model format_version {version!r}; "
            f"this reader handles {MODEL_FORMAT_VERSION}"
        )
    raw_spec = _model_field(obj, "spec")
    try:
        spec = AnovaSpec(
            d=raw_spec["d"],
            main_effects=tuple(raw_spec["main_effects"]),
            interactions=tuple(tuple(p) for p in raw_spec["interactions"]),
            term_scales=tuple(raw_spec["term_scales"]),
        )
    except (KeyError, TypeError, ValueError, InvalidConfigError) as exc:
        raise InvalidInputError(f"model field 'spec' is invalid: {exc}") from None
    basis_points = _model_field(obj, "basis_points")
    if not isinstance(basis_points, list):
        raise InvalidInputError("model field 'basis_points' is not a list")
    q = len(basis_points)
    lam = _model_field(obj, "lambda", _as_lambda)
    gcv_score = _model_field(obj, "gcv_score", as_real)
    if gcv_score < 0:  # inf is a valid V: trace(A) may reach n
        raise InvalidInputError(f"model field 'gcv_score' must be >= 0, got {gcv_score!r}")
    diagnostics = obj.get("diagnostics", {})
    if not isinstance(diagnostics, dict):
        raise InvalidInputError("model field 'diagnostics' is not a JSON object")
    basis_points = _model_array(obj, "basis_points", (q, spec.d), cube=True)
    scaler = _model_array(obj, "scaler", (2, spec.d))
    if np.any(scaler[0] > scaler[1]):
        raise InvalidInputError("model field 'scaler' has a minimum above its maximum")
    return FittedModel(
        spec=spec,
        basis_points=basis_points,
        alpha=_model_array(obj, "alpha", (spec.m,)),
        beta=_model_array(obj, "beta", (q,)),
        lam=lam,
        gcv_score=gcv_score,
        scaler=scaler,
        diagnostics=diagnostics,
    )


def model_predictor_names(path) -> list | None:
    """Predictor column names stored with a model file, if any.

    Raises InvalidInputError unless the field is absent or a list of
    distinct strings.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    names = obj.get("predictors")
    if names is None:
        return None
    if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
        raise InvalidInputError("model field 'predictors' is not a list of column names")
    repeated = sorted({v for v in names if names.count(v) > 1})
    if repeated:
        raise InvalidInputError(f"model field 'predictors' repeats {repeated}")
    return names
