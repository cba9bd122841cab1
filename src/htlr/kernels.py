"""Kernel functions, coefficient functions, and singular self-term quadrature.

Built-in kernels: the Gaussian exp(-|x-y|^2 / (2 sigma^2)), the 2D single
layer potential -log(|x-y|)/(2 pi), and the 3D single layer potential
1/(4 pi |x-y|).  Custom kernels supply a vectorized evaluator.

The diagonal matrix entry of the Nystrom discretization is the cell average
of k(x_i, .) over the cell centered at x_i; on a triangle mesh, the triangle
average of k(centroid, .).  This module owns both self terms, the cells' in
:func:`self_entries` alone.  A kernel smooth at the diagonal gets its cell
averages from one tensor Gauss-Legendre rule over the cell.  Every other
self term goes through one Duffy rule, which keeps coincident pairs from the
kernel evaluator: pieces with their apex at the singular point and their
bases split at the feet of the perpendiculars from it, a Gauss-Legendre rule
along the rays, graded toward the apex for singular kernels, times one base
rule, a tensor Gauss-Legendre rule that a cell's pieces share or a triangle
half edge's own under a sinh substitution.

A translation-invariant kernel between cell centres of a uniform grid
depends on the index offset between the cells alone, so a block of box
pairs holds at most one value per offset: :func:`_offset_table` evaluates
the kernel once per offset, with the self entry at offset 0, and the dense
blocks are windows of that table.  A custom kernel is evaluated on point
pairs (:func:`pairwise`, :func:`pairwise_self`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Optional

import numpy as np

from .grids import _check_int

GAUSSIAN = "gaussian"
SLP2D = "slp2d"
SLP3D = "slp3d"
CUSTOM = "custom"
#: smooth_at_diagonal of each kind as its factory sets it (custom: any)
_SMOOTH_AT_DIAGONAL = {GAUSSIAN: True, SLP2D: False, SLP3D: False, CUSTOM: None}

#: exponent of the radial grading inside the Duffy map; cubic grading
#: resolves the log singularity to ~1e-10 relative at q = 10 (the 1/r
#: singularity is integrated exactly up to rounding)
RADIAL_GRADING = 3

#: kernel evaluations per call of a batched build (the Tucker cores of a
#: tree level, the self entries of a custom kernel) and per row block of
#: the row oracles: 2 MB of values
EVAL_CHUNK = 2**18


@dataclass(frozen=True)
class KernelSpec:
    """A kernel function k(x, y) plus the traits the solver needs to know."""

    kind: str
    sigma: Optional[float] = None
    evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    smooth_at_diagonal: bool = True

    @property
    def translation_invariant(self) -> bool:
        """Built-in kernels depend on |x - y| only, so they are translation
        invariant and symmetric, K(x, y) = K(y, x): the block of a box pair
        (sigma, tau) is the transpose of that of (tau, sigma).  They are
        even in each coordinate of x - y too, so a dense block on two boxes
        of one side is unchanged when both are reflected in a dimension of
        zero offset (:class:`htlr.blocks.DenseBlock`).  Custom ones may be
        none of these."""
        return self.kind != CUSTOM

    def __post_init__(self):
        if self.kind not in _SMOOTH_AT_DIAGONAL:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        smooth = _SMOOTH_AT_DIAGONAL[self.kind]
        if smooth not in (None, self.smooth_at_diagonal):
            raise ValueError(f"{self.kind} kernel needs smooth_at_diagonal={smooth}")
        if self.kind == GAUSSIAN and not 0 < (self.sigma or 0) < np.inf:
            raise ValueError("gaussian kernel needs a finite sigma > 0")
        if self.kind == CUSTOM and self.evaluator is None:
            raise ValueError("custom kernel needs an evaluator")
        if self.kind != CUSTOM and self.evaluator is not None:
            raise ValueError(f"{self.kind} kernel takes no evaluator")
        if self.sigma is not None and self.kind != GAUSSIAN:
            raise ValueError(f"{self.kind} kernel takes no sigma")


def gaussian(sigma: float) -> KernelSpec:
    return KernelSpec(kind=GAUSSIAN, sigma=sigma, smooth_at_diagonal=True)


def slp_2d() -> KernelSpec:
    return KernelSpec(kind=SLP2D, smooth_at_diagonal=False)


def slp_3d() -> KernelSpec:
    return KernelSpec(kind=SLP3D, smooth_at_diagonal=False)


def custom(evaluator, smooth_at_diagonal: bool = True) -> KernelSpec:
    """Wrap a user kernel.  The evaluator receives two arrays broadcastable
    against each other with a trailing coordinate axis and must return the
    kernel values with that axis reduced away."""
    return KernelSpec(kind=CUSTOM, evaluator=evaluator,
                      smooth_at_diagonal=smooth_at_diagonal)


def by_name(name: str, d: int) -> KernelSpec:
    """Kernel from its CLI name; the Gaussian bandwidth defaults to sqrt(d)."""
    if name == GAUSSIAN:
        return gaussian(sigma=float(np.sqrt(d)))
    if name == SLP2D:
        if d != 2:
            raise ValueError("slp2d requires dimension 2")
        return slp_2d()
    if name == SLP3D:
        if d != 3:
            raise ValueError("slp3d requires dimension 3")
        return slp_3d()
    raise ValueError(f"unknown kernel '{name}'")


def _of_r2(k: KernelSpec, r2: np.ndarray) -> np.ndarray:
    """A built-in kernel as a function of the squared distance."""
    if k.kind == GAUSSIAN:
        return np.exp(-r2 / (2.0 * k.sigma * k.sigma))
    if k.kind == SLP2D:
        return -0.5 * np.log(r2) / (2.0 * np.pi)
    return 1.0 / (4.0 * np.pi * np.sqrt(r2))


def _squared_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y|^2 over the trailing coordinate axis, summed coordinate by
    coordinate in their order: for d <= 3 the bits of
    ``np.sum(np.square(x - y), axis=-1)``, without its d-times-larger
    difference array."""
    r2 = np.square(x[..., 0] - y[..., 0])
    for c in range(1, x.shape[-1]):
        r2 += np.square(x[..., c] - y[..., c])
    return r2


def _evaluate(k: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if k.kind == CUSTOM:
        shape = np.broadcast_shapes(x.shape, y.shape)[:-1]
        return _real_values(k.evaluator(x, y), shape, "custom kernel")
    r2 = _squared_distance(x, y)
    if k.kind != GAUSSIAN and np.any(r2 == 0.0):
        raise ValueError("SLP kernel evaluated on the diagonal")
    return _of_r2(k, r2)


def _real_values(values, shape: tuple, what: str) -> np.ndarray:
    """A user function's `values` as float64; a result that is complex or
    not of `shape` is rejected instead of losing its imaginary part or
    broadcasting into a wrong result."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"{what} values are complex; they must be real")
    if values.shape != shape:
        raise ValueError(f"{what} returned shape {values.shape}; expected {shape}")
    return values.astype(np.float64, copy=False)


def pairwise(k: KernelSpec, xpts: np.ndarray, ypts: np.ndarray) -> np.ndarray:
    """Kernel values on all pairs: (m1, d) x (m2, d) -> (m1, m2)."""
    xpts = np.asarray(xpts, dtype=np.float64)
    ypts = np.asarray(ypts, dtype=np.float64)
    return _evaluate(k, xpts[:, None, :], ypts[None, :, :])


def pairwise_self(
    k: KernelSpec, pts: np.ndarray, sel: np.ndarray, self_values
) -> np.ndarray:
    """Kernel values of the rows `sel` of `pts` against all of `pts`, where
    entry (i, sel[i]) pairs a point with itself: it is set to
    `self_values[i]` and never evaluated."""
    pts = np.asarray(pts, dtype=np.float64)
    rows = np.arange(sel.size)
    x, y = pts[sel][:, None, :], pts[None, :, :]
    if k.kind == CUSTOM:
        with np.errstate(all="ignore"):
            out = np.array(_evaluate(k, x, y))
    else:
        r2 = _squared_distance(x, y)
        r2[rows, sel] = 1.0
        out = _of_r2(k, r2)
    out[rows, sel] = self_values
    return out


def _offset_table(k: KernelSpec, steps, h: float, cfg: QuadratureConfig) -> np.ndarray:
    """Values of a translation-invariant kernel at every combination of the
    per-dimension coordinate differences `steps` (d 1-D arrays): entry
    (i_1, ..., i_d) is k at the displacement (steps[0][i_1], ...,
    steps[d-1][i_d]), its squared distance summed coordinate by coordinate
    as in :func:`pairwise`.  The zero displacement, where a cell meets
    itself, is never evaluated: it holds the self entry of a cell of width
    h, as :func:`self_entries` gives it."""
    d = len(steps)
    r2 = np.zeros([len(s) for s in steps])
    for c, s in enumerate(steps):
        r2 += np.square(s).reshape([-1 if a == c else 1 for a in range(d)])
    origin = r2 == 0.0  # the zero displacement, if the steps hold it
    r2[origin] = 1.0
    values = _of_r2(k, r2)
    values[origin] = _origin_entry(k, d, h, cfg)
    return values


class _Constant:
    """The evaluator of a constant coefficient: its one value, recorded so
    that the build need not sample it at every point."""

    def __init__(self, value: float):
        self.value = value

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.full(len(pts), self.value)


@dataclass(frozen=True)
class CoefficientFn:
    """The multiplicative coefficient a(x); evaluator maps (m, d) points to m
    values."""

    evaluator: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(c: float) -> "CoefficientFn":
        """a(x) = c everywhere.  The operators take c as their one diagonal
        value and never evaluate a at the grid points, so c is checked here:
        a complex or non-finite c is rejected."""
        if np.iscomplexobj(c):
            raise ValueError(f"constant coefficient {c!r} is complex; it must be real")
        value = float(c)
        if not np.isfinite(value):
            raise ValueError(f"constant coefficient {value!r} is not finite")
        return CoefficientFn(evaluator=_Constant(value))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """a at each point; a result that is not real, finite and of one
        value per point is rejected instead of broadcasting into a wrong
        diagonal or spreading NaN."""
        pts = np.asarray(pts, dtype=np.float64)
        values = _real_values(self.evaluator(pts), (len(pts),), "coefficient")
        if not np.isfinite(values).all():
            raise ValueError("coefficient values have NaN or infinite entries")
        return values


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre order per direction, also per direction of each Duffy
    piece of a singular self term."""

    q: int = 10

    def __post_init__(self):
        _check_int("quadrature order", self.q)
        if self.q < 2:
            raise ValueError("quadrature order must be >= 2")


@lru_cache(maxsize=None)
def _gauss01(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], computed once per order
    and returned read-only."""
    x, w = np.polynomial.legendre.leggauss(q)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _tensor_rule(nodes, weights, axes: int):
    """The product of `axes` copies of the 1-D rule (nodes, weights): its
    nodes (m, axes), the first axis slowest, and their weights (m,); of no
    axes, one node of weight 1."""
    index = np.indices((len(nodes),) * axes).reshape(axes, len(nodes) ** axes).T
    return nodes[index], np.prod(weights[index], axis=1)


def _smooth_cell_averages(k, centers, h, q):
    """Cell averages at the centers (P, d) of a kernel smooth at the
    diagonal: one tensor Gauss-Legendre rule over every cell, all cells in
    one kernel call."""
    d = centers.shape[1]
    gx, gw = _gauss01(q)
    nodes, w = _tensor_rule(h * gx, h * gw, d)
    pts = (centers[:, None, :] - h / 2) + nodes
    vals = _evaluate(k, np.broadcast_to(centers[:, None, :], pts.shape), pts)
    return np.sum(vals * w, axis=-1) / h**d


def _duffy(k, apex, a, b, q, graded, base):
    """Integral of k(apex_p, .) over each piece {apex_p + u (a_p + sum_j v_j
    b_pj) : u in [0, 1], v in the base} for apex, a (P, d) and b (P, d-1, d),
    all in one kernel call: Jacobian |det[a, b]| u^(d-1), u graded when
    `graded`.  The base rule ``base = (v, wv)`` gives m points v on
    [0, 1]^(d-1) and their weights, shared by all pieces, (m, d-1) and
    (m,), or per piece, (P, m, d-1) and (P, m)."""
    d = apex.shape[1]
    gx, gw = _gauss01(q)
    m = RADIAL_GRADING if graded else 1
    u, wu = gx**m, m * gx ** (m - 1) * gw
    det = np.abs(np.linalg.det(np.concatenate([a[:, None, :], b], axis=1)))
    v, wv = base
    rays = a[:, None, :] + sum(v[..., j, None] * b[:, None, j] for j in range(d - 1))
    pts = apex[:, None, None, :] + u[:, None, None] * rays[:, None, :, :]
    vals = _evaluate(k, np.broadcast_to(apex[:, None, None, :], pts.shape), pts)
    return det * np.einsum("puv,u,pv->p", vals, u ** (d - 1) * wu,
                           np.broadcast_to(wv, rays.shape[:2]))


def _singular_cell_averages(k, centers, h, q):
    """Each cell as 2^d d Duffy pieces with their apex at its center, for
    the centers (P, d), all pieces in one :func:`_duffy` call: each face is
    split at its centre, the foot of the perpendicular from the center, and
    each of the 2^(d-1) parts is the base of one piece."""
    count, d = centers.shape
    # half[s, i] = sign_i h/2 e_i for the s-th sign pattern
    signs = np.array(list(product((-1.0, 1.0), repeat=d)))
    half = (h / 2) * signs[:, :, None] * np.eye(d)
    a = half.reshape(-1, d)
    others = [[j for j in range(d) if j != i] for i in range(d)]
    b = half[:, others].reshape(len(a), d - 1, d)
    gx, gw = _gauss01(q)
    pieces = _duffy(k, np.repeat(centers, len(a), axis=0), np.tile(a, (count, 1)),
                    np.tile(b, (count, 1, 1)), q, graded=True,
                    base=_tensor_rule(gx, gw, d - 1))
    return pieces.reshape(count, len(a)).sum(axis=1) / h**d


def _cell_averages(k, centers, h, q):
    """Average of k(x, .) over the width-h cell centered at x, for every row
    x of `centers` (P, d), with one kernel call per :data:`EVAL_CHUNK`
    evaluations."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"cell width must be finite and positive, got {h!r}")
    count, d = centers.shape
    if k.smooth_at_diagonal:
        average, evals = _smooth_cell_averages, q**d
    else:
        average, evals = _singular_cell_averages, 2**d * d * q**d
        _check_integrable(k, q, "cell",
                          lambda kernel, order: average(kernel, centers[:1], h, order))
    step = max(1, EVAL_CHUNK // evals)
    out = np.empty(count)
    for start in range(0, count, step):
        out[start:start + step] = average(k, centers[start:start + step], h, q)
    return out


def _check_integrable(k: KernelSpec, q: int, region: str, average) -> None:
    """Reject a kernel whose first self term over a `region`,
    ``average(kernel, order)``, is finite but grows with the order: taken at
    two orders where an integrable kernel's has settled (q may be too low),
    against the average of |k|, as k's may vanish."""
    probe = max(q, 10)
    low, high = (average(k, order) for order in (probe, 2 * probe))
    size = average(custom(lambda x, y: np.abs(_evaluate(k, x, y)), smooth_at_diagonal=False),
                   probe)
    if np.any(np.abs(high - low) > 1e-3 * size):
        raise ValueError(f"the self term does not converge ({low[0]:.6g} at order {probe}, "
                         f"{high[0]:.6g} at {2 * probe}): not integrable over a {region}")


def triangle_entries(k: KernelSpec, corners, centers, areas,
                     cfg: QuadratureConfig) -> np.ndarray:
    """Average of k(center_t, .) over each triangle t, for corners (T, 3, 2),
    centers (T, 2) and areas (T,); a kernel that is not integrable over a
    triangle is rejected.  Each edge is split at the foot of the
    perpendicular from the center, clamped to the edge, and each half edge
    is the base of one Duffy piece with its apex at the center; the pieces
    are graded when the kernel is singular.  Along a base of length |b| the
    parameter is v = v* + (delta/|b|) sinh s, with delta the center's
    distance to the edge's line and v* the parameter of the unclamped foot,
    so that the distance to the center, delta cosh s, is smooth in s and
    Gauss-Legendre in s stays accurate on half edges many times longer than
    delta, as on obtuse triangles.  A half edge of zero length (a clamped
    foot) gets zero weight."""
    corners, centers, areas = (np.asarray(a, dtype=np.float64) for a in (corners, centers, areas))
    if not k.smooth_at_diagonal:
        _check_integrable(k, cfg.q, "triangle", lambda kernel, order: _triangle_averages(
            kernel, corners[:1], centers[:1], areas[:1], order))
    return _triangle_averages(k, corners, centers, areas, cfg.q)


def _triangle_averages(k: KernelSpec, start, centers, areas, q: int) -> np.ndarray:
    """:func:`triangle_entries` at the quadrature order q, of the corners `start`, unchecked."""
    c = centers[:, None, :]
    edge = np.roll(start, -1, axis=1) - start
    t = np.sum((c - start) * edge, axis=-1) / np.sum(edge * edge, axis=-1)
    # the center's distance to each edge's line, that to the unclamped foot
    delta = np.linalg.norm(start + t[..., None] * edge - c, axis=-1)
    foot = start + np.clip(t, 0.0, 1.0)[..., None] * edge
    a = np.repeat(foot - c, 2, axis=1).reshape(-1, 2)
    b = (np.stack([start, start + edge], axis=2) - foot[:, :, None]).reshape(-1, 2)
    delta = np.repeat(delta, 2, axis=1).reshape(-1, 1)
    span = np.hypot(b[:, 0], b[:, 1])[:, None]
    # a zero-length half edge has s0 = s1 below, so zero weight
    length = np.where(span > 0.0, span, 1.0)
    # the base's near end as a signed distance from the foot along b; both
    # ends in s
    near = np.sum(a * b, axis=1)[:, None] / length
    s0, s1 = np.arcsinh(near / delta), np.arcsinh((near + span) / delta)
    gx, gw = _gauss01(q)
    s = s0 + (s1 - s0) * gx
    v = (delta * np.sinh(s) - near) / length
    wv = (s1 - s0) * gw * delta * np.cosh(s) / length
    apex = np.repeat(c, 6, axis=1).reshape(-1, 2)
    pieces = _duffy(k, apex, a, b[:, None, :], q,
                    graded=not k.smooth_at_diagonal, base=(v[..., None], wv))
    return pieces.reshape(-1, 6).sum(axis=1) / areas


def diagonal_entry(k: KernelSpec, cell_center, h: float, cfg: QuadratureConfig) -> float:
    """Cell average of k(x_i, .) over the width-h cell centered at x_i:
    :func:`self_entries` at one point."""
    return float(self_entries(k, np.asarray(cell_center, dtype=np.float64)[None], h, cfg)[0])


@lru_cache(maxsize=None)
def _origin_entry(k: KernelSpec, d: int, h: float, cfg: QuadratureConfig) -> float:
    return float(_cell_averages(k, np.zeros((1, d)), h, cfg.q)[0])


def self_entries(
    k: KernelSpec, pts: np.ndarray, h: float, cfg: QuadratureConfig
) -> np.ndarray:
    """Average of k(x, .) over the width-h cell centered at x, for every x
    in `pts`: of a translation-invariant kernel one value for all cells,
    integrated once per (kernel, d, h, quadrature) at the origin; of any
    other kernel in chunks of cells, one kernel call each.  A kernel that is
    not integrable over a cell is rejected."""
    pts = np.asarray(pts, dtype=np.float64)
    if k.translation_invariant:
        return np.full(len(pts), _origin_entry(k, pts.shape[1], h, cfg))
    return _cell_averages(k, pts, h, cfg.q)
