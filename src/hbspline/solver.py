"""Penalized least squares on the selected basis, with GCV tuning.

With unpenalized design S (n x m), kernel design R* (n x q) on the
basis points, and penalty Gram R** (q x q), the fit minimizes

    (1/n) * ||y - S a - R* b||^2 + lam * b' R** b

whose stationary conditions are the symmetric normal equations

    [ S'S      S'R*            ] [a]   [S'y ]
    [ R*'S     R*'R* + n lam R** ] [b] = [R*'y]

solved, for every lambda, from one decomposition (_GcvScan): a Cholesky
factorization M0 = L L' of a fixed reference matrix, with an escalating
diagonal jitter fallback, and one symmetric eigendecomposition of the
penalized block in L's coordinates; the scan keeps only the eigenbasis
W = L^-T U.  All dense linear algebra is numpy.linalg.  The model's
"condition_estimate" diagnostic is the exact 1-norm condition number
||M0||_1 ||M0^-1||_1 with M0^-1 = L^-T L^-1.  The smoothing parameter is
chosen by generalized cross-validation over the fixed log-spaced grid
LAMBDA_GRID followed by a short golden-section refinement between the
winning grid point's neighbors, and the chosen lambda is solved from the
same decomposition.

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

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    SingularSystemError,
)
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

# Relative diagonal jitter ladder tried when a factorization fails.
_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

# Rows of the design [S | R*] formed at a time when accumulating the
# normal equations.  At n = 2e4-1e5, q = 100-1000, d = 2-4 (one BLAS
# thread) blocks of 1024-8192 rows cost the same to within 8 %, and 256
# rows up to 25 % more.  2048 rows hold 3.4 MB at q = 200, and a fit on
# up to 2048 rows forms its G and b from one block, as from the whole B.
_BLOCK_ROWS = 2048

# An RSS below this fraction of y'y has lost its digits in the closed
# form y'y - 2 theta'b + theta'G theta (the fit nearly interpolates).
_CANCELLATION = np.sqrt(np.finfo(np.float64).eps)


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
    definite.  The solver works with L^-1 rather than L: numpy has no
    triangular solve, and every use below is a product with L^-1.
    """
    return np.linalg.inv(np.linalg.cholesky(a))


def cho_solve(c, b):
    """a^-1 b from cho_factor's c = L^-1, as L^-T (L^-1 b).

    The fit no longer calls it; perfbench's tracer wraps it by name.
    """
    return c.T @ (c @ b)


class _PenalizedSystem:
    """The normal equations' pieces; per-lambda work is free of the n rows.

    With B = [S | R*] the n x (m+q) design, G = B'B, b = B'y and
    yty = y'y; P is the penalty blockdiag(0, R**), and the normal matrix
    at lambda is G + n lam P.  B itself is not kept.
    """

    def __init__(self, G, b, yty: float, Rstarstar, n: int, m: int):
        if n < m + 1:
            raise InvalidConfigError(f"need at least m+1={m + 1} rows to fit, got {n}")
        self.n, self.m, self.q = n, m, G.shape[0] - m
        self.G, self.b, self.yty, self.Rss = G, b, yty, Rstarstar


def _cholesky(M: np.ndarray, where: str):
    """cho_factor of M, retrying with the jitter ladder; (c, Mj, jitter)."""
    scale = float(np.trace(M)) / M.shape[0]
    for rel in _JITTER_LADDER:
        jitter = rel * scale
        try:
            Mj = M if jitter == 0.0 else M + jitter * np.eye(M.shape[0])
            return cho_factor(Mj), Mj, jitter
        except np.linalg.LinAlgError:
            continue
    cond = float(np.linalg.cond(M))
    raise SingularSystemError(
        f"normal equations not factorizable at {where} "
        f"(condition estimate {cond:.3e})",
        condition_estimate=cond,
    )


class _Solution(NamedTuple):
    """The fit at one lambda: coefficients on every column of G, and GCV terms."""

    theta: np.ndarray
    trace_A: float
    rss: float
    V: float
    spread: float


class _GcvScan:
    """V(lambda), and the fit at any lambda, from one factorization and one eigh.

    With P = blockdiag(0, R**), M0 = G + s P, s = tr G / tr P, and
    M0 = L L', the matrix C = L^-1 G L^-T = I - s L^-1 P L^-T has
    eigenvalues gamma in [0, 1].  L^-1 is lower triangular, so
    L^-1 P L^-T = blockdiag(0, L22^-1 R** L22^-T): with
    delta, V = eigh(s L22^-1 R** L22^-T), the m unpenalized directions
    have gamma = 1 exactly and the penalized ones gamma = 1 - delta.
    The normal matrix at lambda is G + t (M0 - G) with t = n lam / s,
    i.e. L U diag(d) U' L' with d = gamma + t (1 - gamma).  The scan
    keeps only W = L^-T U, the generalized eigenbasis with W' M0 W = I
    and W' G W = diag(gamma).  With z = W' B'y and
    shrink = t (1 - gamma) / d, summing over the r directions that are
    not null in G,

        theta       = W (z / d)
        trace A     = sum gamma / d
        n - trace A = (n - r) + sum shrink
        RSS         = y'y - sum z^2 (1 + shrink) / d
                    = RSS_0 + sum (z^2 / gamma) shrink^2

    where RSS_0 = y'y - sum z^2 / gamma is the residual of y off the
    columns of B (0 when r = n).  Each lambda costs O(m + q) to score
    and O((m + q)^2) to solve.  This is GCVPACK's scheme (Bates,
    Lindstrom, Wahba & Yandell 1987): one decomposition serves every
    lambda, the chosen one included.

    When M0 is singular (S is rank deficient, as with a constant
    predictor), the jitter ladder factors M0 + j I instead.  The scan
    then solves (G + j I + n lam P) theta = b, a fixed ridge j, with G
    above read as G + j I; its trace A is exact for that fit, as
    sum (gamma - j w) / d with w the squared column norms of W,
    so a direction null in G counts as residual, not fitted.
    """

    def __init__(self, sys_: _PenalizedSystem):
        m = sys_.m
        # Repeated basis points give identical R** rows and R* columns:
        # the fit depends only on the sum of their coefficients, and M0
        # is singular along their difference.  One copy of each gives
        # the same fits from a nonsingular M0; the first copy carries the
        # coefficient and the others get 0.
        first = {}
        for i, row in enumerate(sys_.Rss):
            first.setdefault(row.tobytes(), i)
        first = np.fromiter(first.values(), dtype=np.int64)
        self.m, self.p = m, m + sys_.q
        self.merged = sys_.q - first.shape[0]
        self.cols = np.concatenate([np.arange(m), m + first])
        # The scan never writes G, R** or b: it copies them only to merge.
        G, Rss, b = sys_.G, sys_.Rss, sys_.b
        if self.merged:
            G, Rss, b = G[np.ix_(self.cols, self.cols)], Rss[np.ix_(first, first)], b[self.cols]
        self.G, self.Rss, self.b = G, Rss, b
        self.n, self.yty = sys_.n, sys_.yty
        self.s = float(np.trace(G)) / float(np.trace(Rss))
        M0 = G.copy()
        M0[m:, m:] += self.s * Rss
        Linv, M0, self.jitter = _cholesky(M0, "the GCV scan's reference matrix")
        self.condition_estimate = _condition_estimate(M0, Linv)
        del M0  # freed before eigh: only the condition estimate reads it
        if self.jitter:
            logger.debug("jitter %.3e applied to the GCV scan's reference matrix", self.jitter)
        gamma, W = self._spectrum(Linv)
        del Linv  # W carries all that the scan needs of it
        # Null directions of G add 1 to n - trace A and nothing to the RSS.
        # They are those with gamma <= 0, and at least the p - n smallest
        # (gamma ascends), since G = B'B has rank at most n.
        kept = (gamma > 0.0) & (np.arange(gamma.shape[0]) >= gamma.shape[0] - self.n)
        self.gamma = np.minimum(gamma[kept], 1.0)
        self.W = W = W[:, kept]
        self.z2 = (W.T @ b) ** 2
        self.jw = self.jitter * (W**2).sum(axis=0)
        self.free = self.n - self.gamma.shape[0]
        # With rank n, B spans R^n and y has no residual off its columns.
        rss0 = self.yty - float((self.z2 / self.gamma).sum()) if self.free else 0.0
        self.rss0 = max(rss0, 0.0)

    def _spectrum(self, Linv):
        """gamma ascending and W = L^-T U, where C = U diag(gamma) U' for
        C = L^-1 (G + jitter I) L^-T, M0 + jitter I = L L' and Linv = L^-1.

        U is blockdiag(V, I_m) up to column order, so W comes from Linv's
        row blocks without forming U, written into one p x p array so that
        no product temporary sits beside Linv, V and W.
        """
        m, p = self.m, Linv.shape[0]
        Li = Linv[m:, m:]
        delta, V = np.linalg.eigh(Li @ self.Rss @ Li.T, UPLO="L")
        gamma = np.concatenate([1.0 - self.s * delta[::-1], np.ones(m)])
        W = np.empty((p, p))
        np.matmul(Linv[m:].T, V[:, ::-1], out=W[:, : p - m])
        W[:, p - m :] = Linv[:m].T
        return gamma, W

    def _curve(self, lams):
        """V and d at each lambda (rows); V is inf where trace(A) reaches n."""
        t = (self.n * np.atleast_1d(np.asarray(lams, dtype=np.float64)) / self.s)[:, None]
        d = self.gamma + t * (1.0 - self.gamma)
        shrink = t * (1.0 - self.gamma) / d
        resid_dof = self.free + shrink.sum(axis=1) + (self.jw / d).sum(axis=1)
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
        """(normal matrix)^-1 r over the kept directions, d from _curve."""
        return self.W @ ((self.W.T @ r) / d)

    def solve(self, lam: float) -> _Solution:
        """The fit at lam; its V is bitwise score(lam).

        theta takes one step of iterative refinement against the system
        the scan factored.  On six ill-conditioned bench fits (1-norm
        condition 3e14 to 9e15) the bare spectral solve's fitted values
        were 1.5-4x further from a 40-digit solve than a Cholesky
        solve's; after the step they were closer on five and 2x further
        on one, and a second step gained nothing.
        """
        V, rss, d = (a[0] for a in self._curve([lam]))
        theta = self._inverse(self.b, d)
        resid = self.b - self.G @ theta - self.jitter * theta
        resid[self.m :] -= (self.n * lam) * (self.Rss @ theta[self.m :])
        full = np.zeros(self.p)
        full[self.cols] = theta + self._inverse(resid, d)
        return _Solution(
            theta=full,
            trace_A=float(((self.gamma - self.jw) / d).sum()),
            rss=float(rss),
            V=float(V),
            spread=float(d.max() / d.min()),
        )


def _condition_estimate(Mj: np.ndarray, c) -> float:
    """Exact 1-norm condition number ||M||_1 ||M^-1||_1, M^-1 = L^-T L^-1.

    ||M^-1||_1 is norm's reduction on an abs taken in place, so no
    fourth p x p array sits beside M, L^-1 and M^-1.
    """
    kappa = float(np.linalg.norm(Mj, 1))
    Minv = c.T @ c
    kappa *= float(np.abs(Minv, out=Minv).sum(axis=0).max())
    return kappa if np.isfinite(kappa) else float("inf")


def _check_indices(data, sel):
    if sel.indices.max(initial=-1) >= data.n or sel.indices.min(initial=0) < 0:
        raise InvalidInputError("selection indices out of range for dataset")


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


def _normal_equations(data, indices, spec: AnovaSpec) -> _PenalizedSystem:
    """G = B'B and b = B'y accumulated over row blocks of B, and R**.

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
    return _PenalizedSystem(G, b, float(data.y @ data.y), Rss, data.n, m)


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


def _fit(data, sel, spec: AnovaSpec, rescale: bool, lam=None) -> FittedModel:
    """Fit at lam, or at the GCV choice over LAMBDA_GRID when lam is None."""
    _check_indices(data, sel)
    basis_points = np.array(data.X[sel.indices], dtype=np.float64)
    if rescale:
        spec = rescale_term_weights(data, spec, basis_points)
    scan = _GcvScan(_normal_equations(data, sel.indices, spec))
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
        "jitter": float(scan.jitter),
        "merged_duplicates": scan.merged,
        "n": scan.n,
        "q": sel.indices.shape[0],
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


def gcv_select(data, sel, spec: AnovaSpec, rescale: bool = True) -> FittedModel:
    """Fit on a basis selection, choosing lambda by GCV.

    Scans LAMBDA_GRID, then refines with three golden-section steps in
    log-lambda between the winning point's grid neighbors.  Ties in
    the score go to the smaller lambda.  One factorization and one
    symmetric eigendecomposition score every lambda and solve the chosen
    one, so gcv_score is the scan's own V at that lambda.

    Parameters
    ----------
    data : Dataset
    sel : BasisSelection
    spec : AnovaSpec
        Term structure; term scales are re-normalized on the selected
        basis points unless rescale is False.

    Returns
    -------
    FittedModel
        Model at the best lambda; diagnostics carry the influence
        trace, the reference matrix's 1-norm condition number, the
        spread max d / min d at lambda, any jitter applied, and the
        count of merged duplicate basis points.
    """
    return _fit(data, sel, spec, rescale)


def fit_fixed_lambda(data, sel, spec: AnovaSpec, lam: float, rescale: bool = True) -> FittedModel:
    """Fit on a basis selection at a caller-chosen lambda."""
    if not (np.isfinite(lam) and lam > 0):
        raise InvalidConfigError(f"lambda must be positive, got {lam!r}")
    return _fit(data, sel, spec, rescale, lam=lam)


def predict(model: FittedModel, Xnew) -> np.ndarray:
    """Evaluate the fitted expansion at raw (unscaled) inputs.

    The stored scaler is applied first; coordinates landing outside
    [0,1] are clamped (see predict_with_diagnostics for the count).
    """
    return predict_with_diagnostics(model, Xnew)[0]


def predict_with_diagnostics(model: FittedModel, Xnew) -> tuple[np.ndarray, int]:
    """Predictions plus the number of clamped out-of-range coordinates."""
    X = np.asarray(Xnew, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    d = model.scaler.shape[1]
    if X.shape[0] and X.shape[1] != d:
        raise InvalidInputError(
            f"prediction input has {X.shape[1]} columns, model expects {d}"
        )
    if X.shape[0] == 0:
        return np.empty(0), 0
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))[0]
        raise InvalidInputError(
            f"non-finite prediction input at row {bad[0]}, column {bad[1]}"
        )
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


def _model_field(obj, key):
    if key not in obj:
        raise InvalidInputError(f"model file lacks the {key!r} field")
    return obj[key]


def _model_array(obj, key, shape) -> np.ndarray:
    """A numeric model field of the given shape with finite entries."""
    try:
        arr = np.asarray(_model_field(obj, key), dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidInputError(f"model field {key!r} is not numeric") from None
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)  # JSON stores an empty (0, d) array as []
    if arr.shape != shape:
        raise InvalidInputError(
            f"model field {key!r} has shape {arr.shape}, expected {shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"model field {key!r} holds non-finite values")
    return arr


def load_model(path) -> FittedModel:
    """Read a model written by save_model; rejects unknown versions.

    Raises
    ------
    InvalidInputError
        Naming the field, when the file is not a JSON object, a field
        is missing, or an array has the wrong shape for the spec
        (alpha: m; beta: one entry per basis point; basis points and
        scaler: d columns) or a non-finite entry.
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
    try:
        lam = float(_model_field(obj, "lambda"))
        gcv_score = float(_model_field(obj, "gcv_score"))
    except (TypeError, ValueError):
        raise InvalidInputError("model fields 'lambda' and 'gcv_score' must be numbers") from None
    diagnostics = obj.get("diagnostics", {})
    if not isinstance(diagnostics, dict):
        raise InvalidInputError("model field 'diagnostics' is not a JSON object")
    return FittedModel(
        spec=spec,
        basis_points=_model_array(obj, "basis_points", (q, spec.d)),
        alpha=_model_array(obj, "alpha", (spec.m,)),
        beta=_model_array(obj, "beta", (q,)),
        lam=lam,
        gcv_score=gcv_score,
        scaler=_model_array(obj, "scaler", (2, spec.d)),
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
