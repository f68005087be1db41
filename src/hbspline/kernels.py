"""Reproducing-kernel machinery for tensor-product ANOVA splines.

The regression function is decomposed into a constant, one smooth main
effect per selected dimension, and optional smooth two-way interaction
surfaces.  Each one-dimensional component uses the cubic-spline kernel
on [0,1] built from scaled Bernoulli polynomials:

    k1(t) = t - 1/2
    k2(t) = (k1(t)^2 - 1/12) / 2
    k4(t) = (k1(t)^4 - k1(t)^2/2 + 7/240) / 24
    R1(s, t) = k2(s) * k2(t) - k4(|s - t|)

The unpenalized (null) space contains the constant and the linear
score k1 of every main effect, so its dimension is 1 + #mains.  An
interaction term combines the smooth x smooth, smooth x linear, and
linear x smooth products of its pair.  The linear x linear product
k1(x_a) k1(x_b) is in neither the kernel nor the null space, so the
model has no linear cross term.  As R1(0, t) = R1(1, t), a d = 2 basis
that holds the four corners of the unit square then makes R** exactly
singular.

gram_matrix groups the terms by their first dimension.  With
L_j = k1(s_j) k1(t_j), scales theta, and b > a in main_effects order,

    K = sum_a R1_a o (M_a + V_a),   M_a = theta_a + sum_{b != a} theta_ab L_b,
                                    V_a = sum_{b > a} theta_ab R1_b:

the terms' own products, with no cancelling difference such as
(R1_a + L_a)(R1_b + L_b) - L_a L_b has.  M_a is one product of rank
<= d.  As 24 k4(x) = (x(1 - x))^2 - 1/30 with x = |s - t|, and s - t is
[s, 1] . [1, -t] exactly, 24 R1 takes two rank-2 products and five passes:

    24 R1(s, t) = [c k2(s), e] . [c k2(t), e] - (x(1 - x))^2,  c = sqrt(24), e = sqrt(1/30).

Every term carries a positive scale factor.  The fit always calls
rescale_term_weights(spec, basis_points), which sets the scales so each
term's Gram matrix on the basis points has average diagonal 1, making
the single smoothing parameter comparable across terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, as_int, as_points, as_real

# Kernel matrices are built in row chunks of about this many entries
# (128 KiB of float64 per buffer), so the per-dimension factors of a
# chunk stay in cache and no buffer grows with n; no kernel entry
# depends on the chunk height (_gemm).  The row blocks the solver
# streams through matrix-vector products are multiples of _ROW_ALIGN
# rows: BLAS gemv works through rows in small fixed groups, so a product
# taken block by block matches an unchunked one bit for bit.
_CHUNK_ENTRIES = 1 << 14
_ROW_ALIGN = 8

# Beyond this dimension the all-pairs default would add d*(d-1)/2
# interaction terms, so default_spec stays additive; an explicit spec
# can still name any interactions.
AUTO_INTERACTION_MAX_D = 7

__all__ = [
    "AUTO_INTERACTION_MAX_D",
    "AnovaSpec",
    "default_spec",
    "null_space_eval",
    "gram_matrix",
    "chunk_rows",
    "rescale_term_weights",
]


def _k1(t):
    return t - 0.5


def _k2(t):
    a = _k1(t)
    return (a * a - 1.0 / 12.0) / 2.0


def _k4(t):
    a = _k1(t)
    a2 = a * a
    return (a2 * a2 - a2 / 2.0 + 7.0 / 240.0) / 24.0


@dataclass(frozen=True)
class AnovaSpec:
    """Term structure of the ANOVA decomposition.

    Attributes
    ----------
    d : int
        Ambient dimension of the predictors, at least 1.
    main_effects : tuple of int
        Zero-based dimensions in [0, d - 1] with a smooth main effect; at
        least one, none twice.
    interactions : tuple of (int, int)
        Dimension pairs (j, j') with j < j'; both members must appear
        in main_effects.
    term_scales : tuple of float
        One positive scale per term, mains first then interactions in
        declaration order.
    """

    d: int
    main_effects: tuple
    interactions: tuple = ()
    term_scales: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", d := as_int("spec d", self.d, low=1))
        mains = tuple(as_int("main effect", j, low=0, high=d - 1) for j in self.main_effects)
        inters = tuple(tuple(as_int("spec entry", v) for v in p) for p in self.interactions)
        object.__setattr__(self, "main_effects", mains)
        object.__setattr__(self, "interactions", inters)
        if not mains:
            raise InvalidConfigError("spec needs at least one main effect")
        if len(set(mains)) != len(mains):
            raise InvalidConfigError("duplicate main effect")
        seen = set()
        for a, b in inters:
            if a >= b:
                raise InvalidConfigError(f"interaction ({a},{b}) must have a < b")
            if a not in mains or b not in mains:
                raise InvalidConfigError(
                    f"interaction ({a},{b}) references a missing main effect"
                )
            if (a, b) in seen:
                raise InvalidConfigError(f"duplicate interaction ({a},{b})")
            seen.add((a, b))
        if self.term_scales is None:
            object.__setattr__(
                self, "term_scales", tuple(1.0 for _ in range(self.n_terms))
            )
        else:
            scales = tuple(as_real("term scales", s) for s in self.term_scales)
            if len(scales) != self.n_terms:
                raise InvalidConfigError(
                    f"{len(scales)} term scales for {self.n_terms} terms"
                )
            if any(not 0 < s < np.inf for s in scales):
                raise InvalidConfigError("term scales must be finite and > 0")
            object.__setattr__(self, "term_scales", scales)

    @property
    def n_terms(self) -> int:
        return len(self.main_effects) + len(self.interactions)

    @property
    def m(self) -> int:
        """Null-space dimension: constant plus one linear score per main."""
        return 1 + len(self.main_effects)

    def terms(self) -> list:
        """Terms in canonical order: ('main', j) then ('inter', (j, j'))."""
        return [("main", j) for j in self.main_effects] + [("inter", p) for p in self.interactions]

    def term_names(self) -> list:
        return [
            f"x{ref}" if kind == "main" else f"x{ref[0]}:x{ref[1]}"
            for kind, ref in self.terms()
        ]


def default_spec(d: int) -> AnovaSpec:
    """All main effects, plus all pairs when 2 <= d <= AUTO_INTERACTION_MAX_D."""
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d) if d <= AUTO_INTERACTION_MAX_D]
    return AnovaSpec(d=d, main_effects=tuple(range(d)), interactions=tuple(pairs))


def null_space_eval(x, spec: AnovaSpec):
    """Evaluate the unpenalized basis: 1, then k1(x_j) per main effect.

    Parameters
    ----------
    x : array_like
        A point (d,) or matrix (n, d) in [0, 1]^d (errors.as_points).
    spec : AnovaSpec

    Returns
    -------
    ndarray
        Shape (m,) for a single point, else (n, m).
    """
    X = as_points("x", x, spec.d, cube=True)
    S = np.empty((X.shape[0], spec.m))
    S[:, 0] = 1.0
    for i, j in enumerate(spec.main_effects):
        S[:, 1 + i] = _k1(X[:, j])
    return S[0] if np.ndim(x) == 1 else S


def chunk_rows(q: int) -> int:
    """Row-chunk height for kernel matrices with q columns.

    A chunk holds about _CHUNK_ENTRIES entries, rounded down to a
    multiple of _ROW_ALIGN rows.
    """
    return max(_ROW_ALIGN, _CHUNK_ENTRIES // max(q, 1) // _ROW_ALIGN * _ROW_ALIGN)


def _gemm(P, Q, out):
    """out = P Q' by BLAS gemm, each entry from its own rows of P and Q: a
    one-row factor is doubled, as numpy hands it to gemv, which rounds differently."""
    if len(P) > 1 and len(Q) > 1:
        return np.matmul(P, Q.T, out=out)
    P2, Q2 = (np.repeat(F, 2 if len(F) == 1 else 1, axis=0) for F in (P, Q))
    out[...] = (P2 @ Q2.T)[: len(P), : len(Q)]


def gram_matrix(Xa, Xb, spec: AnovaSpec, out=None) -> np.ndarray:
    """Kernel matrix of the full penalized kernel between two point sets.

    Built as K = sum_a R1_a o (M_a + V_a) (module docstring) in row
    chunks of chunk_rows(len(Xb)) through d + 2 buffers allocated once
    per call, from factor rows built once per call: O(chunk * q +
    n * (d + #interactions)) memory beyond out, which stays small as
    the fit and predict pass blocks of at most 2049 rows.  Every scalar
    of a product is split as sqrt(c) over both factors, and every
    factor row comes from its own point, so K(Xa, Xb) = K(Xb, Xa)'
    bitwise and an entry depends only on its two points at any chunk
    height (_gemm): R** is bitwise the selected rows of R*.

    Parameters
    ----------
    Xa, Xb : array_like
        Point sets in [0, 1]^d, (n, d) and (q, d), d = spec.d; a (d,)
        array is one point (errors.as_points).
    spec : AnovaSpec
    out : ndarray, optional
        (n, q) float64 array, possibly a strided view (such as the R*
        columns of the design [S | R*]), that receives the result.

    Returns
    -------
    ndarray
        out, or a new (n, q) array.
    """
    Xa, Xb = as_points("Xa", Xa, spec.d, cube=True), as_points("Xb", Xb, spec.d, cube=True)
    n, q = Xa.shape[0], Xb.shape[0]
    if out is None:
        out = np.empty((n, q))
    elif out.shape != (n, q) or out.dtype != np.float64:
        raise InvalidInputError(f"out must be a float64 ({n}, {q}) array")
    dims, nd = spec.main_effects, len(spec.main_effects)
    # Per main effect a, (column of [1 | x | k1 | k2] over dims, multiplier):
    # the pair [x_a, 1] . [1, -x_a], then with sqrt(c) on both sides the
    # pair [c k2, e] of 24 R1 and M_a's [1, k1(x_b) per partner] / 24.
    theta = dict(zip(dims + spec.interactions, spec.term_scales))
    left, right, parts = [], [], []
    for i, a in enumerate(dims):
        pairs = [(j, theta[p]) for j, b in enumerate(dims)
                 if (p := (min(a, b), max(a, b))) in theta]
        both = [(1 + 2 * nd + i, 24.0), (0, 1.0 / 30.0), (0, theta[a] / 24.0)]
        both = [(c, np.sqrt(v)) for c, v in both + [(1 + nd + j, t / 24.0) for j, t in pairs]]
        c0 = len(left)
        left += [(1 + i, 1.0), (0, 1.0)] + both
        right += [(0, 1.0), (1 + i, -1.0)] + both
        upper = [(j, t / 576.0) for j, t in pairs if j > i]
        # With no partner, M_a is the constant theta_a / 24: a fill with the
        # one-column product's value fl(root * root), which BLAS takes slowly.
        pm = slice(c0 + 4, len(left)) if pairs else float(both[2][1] * both[2][1])
        parts.append((slice(c0, c0 + 2), slice(c0 + 2, c0 + 4), pm, upper))

    def factors(X, columns):
        k1 = X[:, dims] - 0.5
        feat = np.hstack([np.ones((len(X), 1)), X[:, dims], k1, (k1 * k1 - 1.0 / 12.0) / 2.0])
        cols, roots = zip(*columns)
        F = feat[:, cols]
        F *= roots
        return F

    Fs, Fb, rows = factors(Xa, left), factors(Xb, right), chunk_rows(q)
    # d + 2 chunk buffers, allocated once: 24 R1 per main effect, two scratch.
    bufs = [np.empty((min(n, rows), q)) for _ in range(nd + 2)]
    for lo in range(0, n, rows):
        block, Fa = out[lo : lo + rows], Fs[lo : lo + rows]
        *r, s, t = (buf[: len(block)] for buf in bufs)
        for i, (pd, pr, _, _) in enumerate(parts):
            # 24 R1_a = P P' - w^2 with w = x - x^2, x = |u - v|.
            _gemm(Fa[:, pd], Fb[:, pd], s)
            np.abs(s, out=s)
            np.multiply(s, s, out=t)
            s -= t
            s *= s
            _gemm(Fa[:, pr], Fb[:, pr], r[i])
            r[i] -= s
        for i, (_, _, pm, upper) in enumerate(parts):
            if isinstance(pm, float):
                t.fill(pm)
            else:
                _gemm(Fa[:, pm], Fb[:, pm], t)
            for j, c in upper:
                t += np.multiply(r[j], c, out=s)
            if i == 0:
                np.multiply(r[i], t, out=block)
            else:
                t *= r[i]
                block += t
    return out


def _term_diag(X: np.ndarray, kind: str, ref) -> np.ndarray:
    """Diagonal of one term's unscaled Gram on a point set."""
    if kind == "main":
        return _k2(X[:, ref]) ** 2 - _k4(0.0)
    ta, tb = X[:, ref[0]], X[:, ref[1]]
    r1a, r1b = _k2(ta) ** 2 - _k4(0.0), _k2(tb) ** 2 - _k4(0.0)
    return r1a * r1b + r1a * _k1(tb) ** 2 + _k1(ta) ** 2 * r1b


def rescale_term_weights(spec: AnovaSpec, basis_points) -> AnovaSpec:
    """Set each term scale to q / trace(term Gram on the q basis points).

    After rescaling, every term's Gram on the basis points has average
    diagonal exactly 1, so a single smoothing parameter penalizes all
    terms on a comparable scale.  The incoming scales are ignored.  No
    trace is zero: R1(x, x) >= 1/720, so a main term's trace is at
    least q/720 and an interaction's at least q/720^2.
    """
    q = len(basis_points)
    traces = [float(_term_diag(basis_points, kind, ref).sum()) for kind, ref in spec.terms()]
    return replace(spec, term_scales=tuple(q / tr for tr in traces))
