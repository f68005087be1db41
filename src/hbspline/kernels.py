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
linear x smooth products of its pair; the linear x linear product is
kept inside the penalized term rather than enlarging the null space,
which leaves the parametric design matrix small and well conditioned
at the price of a (tiny) penalty on that one cross term.

Every term carries a positive scale factor; rescale_term_weights sets
the scales so each term's Gram matrix on the basis points has average
diagonal 1, making the single smoothing parameter comparable across
terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

# Kernel matrices are built in row chunks of about this many entries
# (128 KiB of float64 per buffer), so the per-dimension factors of a
# chunk stay in cache and no buffer grows with n.  Chunk heights, and
# the row blocks the solver streams, are multiples of _ROW_ALIGN rows:
# BLAS matrix-vector kernels work through rows in small fixed groups
# (four in OpenBLAS on x86-64), so a product taken block by block
# groups rows as an unchunked one does and matches it bit for bit.
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


def _r1_cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """R1 on the product grid of two coordinate vectors: (len u, len v)."""
    return np.outer(_k2(u), _k2(v)) - _k4(np.abs(u[:, None] - v[None, :]))


@dataclass(frozen=True)
class AnovaSpec:
    """Term structure of the ANOVA decomposition.

    Attributes
    ----------
    d : int
        Ambient dimension of the predictors.
    main_effects : tuple of int
        Zero-based dimensions with a smooth main effect.
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
        mains = tuple(int(j) for j in self.main_effects)
        inters = tuple((int(a), int(b)) for a, b in self.interactions)
        object.__setattr__(self, "main_effects", mains)
        object.__setattr__(self, "interactions", inters)
        if len(set(mains)) != len(mains):
            raise InvalidConfigError("duplicate main effect")
        for j in mains:
            if not (0 <= j < self.d):
                raise InvalidConfigError(f"main effect {j} outside [0, {self.d})")
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
            scales = tuple(float(s) for s in self.term_scales)
            if len(scales) != self.n_terms:
                raise InvalidConfigError(
                    f"{len(scales)} term scales for {self.n_terms} terms"
                )
            if any(not np.isfinite(s) or s <= 0 for s in scales):
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
        out = [("main", j) for j in self.main_effects]
        out += [("inter", pair) for pair in self.interactions]
        return out

    def term_names(self) -> list:
        return [
            f"x{ref}" if kind == "main" else f"x{ref[0]}:x{ref[1]}"
            for kind, ref in self.terms()
        ]


def default_spec(d: int) -> AnovaSpec:
    """All main effects, plus all pairs when 2 <= d <= AUTO_INTERACTION_MAX_D."""
    mains = tuple(range(d))
    inters = ()
    if 2 <= d <= AUTO_INTERACTION_MAX_D:
        inters = tuple((a, b) for a in range(d) for b in range(a + 1, d))
    return AnovaSpec(d=d, main_effects=mains, interactions=inters)


def _term_block(Xa: np.ndarray, Xb: np.ndarray, kind: str, ref) -> np.ndarray:
    """Unscaled Gram block of one term between two point sets."""
    if kind == "main":
        return _r1_cross(Xa[:, ref], Xb[:, ref])
    a, b = ref
    r1a = _r1_cross(Xa[:, a], Xb[:, a])
    r1b = _r1_cross(Xa[:, b], Xb[:, b])
    lina = np.outer(_k1(Xa[:, a]), _k1(Xb[:, a]))
    linb = np.outer(_k1(Xa[:, b]), _k1(Xb[:, b]))
    return r1a * r1b + r1a * linb + lina * r1b


def null_space_eval(x, spec: AnovaSpec):
    """Evaluate the unpenalized basis: 1, then k1(x_j) per main effect.

    Parameters
    ----------
    x : array_like
        A point (d,) or matrix (n, d) inside the unit cube.
    spec : AnovaSpec

    Returns
    -------
    ndarray
        Shape (m,) for a single point, else (n, m).
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise InvalidInputError("x outside [0, 1]")
    single = arr.ndim == 1
    X = np.atleast_2d(arr)
    if X.shape[1] != spec.d:
        raise InvalidInputError(f"point has {X.shape[1]} coordinates, expected {spec.d}")
    S = np.empty((X.shape[0], spec.m))
    S[:, 0] = 1.0
    for i, j in enumerate(spec.main_effects):
        S[:, 1 + i] = _k1(X[:, j])
    return S[0] if single else S


def chunk_rows(q: int) -> int:
    """Row-chunk height for kernel matrices with q columns.

    A chunk holds about _CHUNK_ENTRIES entries, rounded down to a
    multiple of _ROW_ALIGN rows.
    """
    return max(_ROW_ALIGN, _CHUNK_ENTRIES // max(q, 1) // _ROW_ALIGN * _ROW_ALIGN)


def gram_matrix(Xa, Xb, spec: AnovaSpec, out=None) -> np.ndarray:
    """Kernel matrix of the full penalized kernel between two point sets.

    Rows are built in chunks of chunk_rows(len(Xb)).  Per chunk, R1 of
    every main-effect dimension and the linear product k1(x_j) k1(z_j)'
    of every interaction dimension are computed once and shared by all
    terms; each term is then formed exactly as _term_block forms it, so
    the result is bitwise identical to the scale-weighted sum of
    _term_block over the terms.  All chunks reuse one set of buffers,
    so a call allocates O(chunk * q) memory once, beyond out.

    Parameters
    ----------
    Xa, Xb : array_like
        Point sets, (n, d) and (q, d).
    spec : AnovaSpec
    out : ndarray, optional
        (n, q) float64 array, possibly a strided view (such as the R*
        columns of the design [S | R*]), that receives the result.

    Returns
    -------
    ndarray
        out, or a new (n, q) array.
    """
    Xa = np.atleast_2d(np.asarray(Xa, dtype=np.float64))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=np.float64))
    n, q = Xa.shape[0], Xb.shape[0]
    if out is None:
        out = np.empty((n, q))
    elif out.shape != (n, q) or out.dtype != np.float64:
        raise InvalidInputError(f"out must be a float64 ({n}, {q}) array")
    terms = list(zip(spec.term_scales, spec.terms()))
    linear_dims = sorted({j for _, (kind, ref) in terms if kind == "inter" for j in ref})
    k1b = {j: _k1(Xb[:, j]) for j in linear_dims}
    k2b = {j: _k2(Xb[:, j]) for j in spec.main_effects}
    # Every chunk is written through out= into these buffers, allocated
    # once per call: R1 per main-effect dimension, the linear product
    # per interaction dimension, and two scratch blocks.
    rows = chunk_rows(q)
    shape = (min(n, rows), q)
    r1_buf = {j: np.empty(shape) for j in spec.main_effects}
    lin_buf = {j: np.empty(shape) for j in linear_dims}
    s1_buf, s2_buf = np.empty(shape), np.empty(shape)
    for lo in range(0, n, rows):
        chunk = Xa[lo : lo + rows]
        h = chunk.shape[0]
        s1, s2 = s1_buf[:h], s2_buf[:h]
        r1 = {}
        for j in spec.main_effects:
            # _r1_cross's operations, in its order:
            # k2(u) k2(v)' - k4(|u - v|), k4(t) = (a^4 - a^2/2 + 7/240)/24, a = t - 1/2.
            r = r1[j] = r1_buf[j][:h]
            np.subtract.outer(chunk[:, j], Xb[:, j], out=r)
            np.abs(r, out=r)
            r -= 0.5
            np.multiply(r, r, out=r)
            np.multiply(r, r, out=s1)
            r /= 2.0
            s1 -= r
            s1 += 7.0 / 240.0
            s1 /= 24.0
            np.multiply.outer(_k2(chunk[:, j]), k2b[j], out=r)
            r -= s1
        lin = {j: np.multiply.outer(_k1(chunk[:, j]), k1b[j], out=lin_buf[j][:h])
               for j in linear_dims}
        block = out[lo : lo + rows]
        block.fill(0.0)
        for theta, (kind, ref) in terms:
            if kind == "main":
                block += np.multiply(r1[ref], theta, out=s1)
                continue
            a, b = ref
            # Same operation order as _term_block: r1a*r1b + r1a*linb + lina*r1b.
            np.multiply(r1[a], r1[b], out=s1)
            s1 += np.multiply(r1[a], lin[b], out=s2)
            s1 += np.multiply(lin[a], r1[b], out=s2)
            s1 *= theta
            block += s1
    return out


def _term_diag(X: np.ndarray, kind: str, ref) -> np.ndarray:
    """Diagonal of one term's unscaled Gram on a point set."""
    if kind == "main":
        t = X[:, ref]
        k2t = _k2(t)
        return k2t * k2t - _k4(np.zeros_like(t))
    a, b = ref
    ta, tb = X[:, a], X[:, b]
    r1a = _k2(ta) ** 2 - _k4(np.zeros_like(ta))
    r1b = _k2(tb) ** 2 - _k4(np.zeros_like(tb))
    la = _k1(ta) ** 2
    lb = _k1(tb) ** 2
    return r1a * r1b + r1a * lb + la * r1b


def rescale_term_weights(data, spec: AnovaSpec, basis_points=None) -> AnovaSpec:
    """Set each term scale to q / trace(term Gram on the basis points).

    After rescaling, every term's Gram on the basis points has average
    diagonal exactly 1, so a single smoothing parameter penalizes all
    terms on a comparable scale.  When basis_points is omitted the full
    design is used.

    Raises
    ------
    InvalidConfigError
        If a term's Gram trace is zero (degenerate data), naming the
        term.
    """
    pts = data.X if basis_points is None else np.atleast_2d(basis_points)
    q = pts.shape[0]
    scales = []
    for (kind, ref), name in zip(spec.terms(), spec.term_names()):
        tr = float(_term_diag(pts, kind, ref).sum())
        if tr <= 0.0 or not np.isfinite(tr):
            raise InvalidConfigError(
                f"term {name} has zero Gram trace on the basis points"
            )
        scales.append(q / tr)
    return replace(spec, term_scales=tuple(scales))

