"""Kernel functions, coefficient functions, and singular-cell quadrature.

Built-in kernels: the Gaussian exp(-|x-y|^2 / (2 sigma^2)), the 2D single
layer potential -log(|x-y|)/(2 pi), and the 3D single layer potential
1/(4 pi |x-y|).  Custom kernels supply a vectorized evaluator.

The diagonal matrix entry of the Nystrom discretization is the cell average
of k(x_i, .) over the cell centered at x_i.  For kernels with a diagonal
singularity the cell is split into the 2^d subcells meeting at the center
and each subcell is integrated with a Duffy-type map (radial direction along
the largest coordinate, graded cubically toward the singularity) under a
tensor Gauss-Legendre rule.  This module alone decides the self-cell
entries and keeps coincident point pairs away from the kernel evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .grids import _check_int

GAUSSIAN = "gaussian"
SLP2D = "slp2d"
SLP3D = "slp3d"
CUSTOM = "custom"

#: exponent of the radial grading inside the Duffy map; cubic grading
#: resolves the log singularity to ~1e-10 relative at q = 10 (the 1/r
#: singularity is integrated exactly up to rounding)
RADIAL_GRADING = 3


@dataclass(frozen=True)
class KernelSpec:
    """A kernel function k(x, y) plus the traits the solver needs to know."""

    kind: str
    sigma: Optional[float] = None
    evaluator: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    smooth_at_diagonal: bool = True

    @property
    def translation_invariant(self) -> bool:
        """Built-in kernels depend on x - y only; custom ones may not."""
        return self.kind != CUSTOM

    def __post_init__(self):
        if self.kind == GAUSSIAN and not 0 < (self.sigma or 0) < np.inf:
            raise ValueError("gaussian kernel needs a finite sigma > 0")
        if self.kind == CUSTOM and self.evaluator is None:
            raise ValueError("custom kernel needs an evaluator")


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


def _evaluate(k: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if k.kind == CUSTOM:
        return np.asarray(k.evaluator(x, y), dtype=np.float64)
    r2 = np.sum(np.square(x - y), axis=-1)
    if k.kind != GAUSSIAN and np.any(r2 == 0.0):
        raise ValueError("SLP kernel evaluated on the diagonal")
    return _of_r2(k, r2)


def evaluate(k: KernelSpec, x, y) -> float:
    """Kernel value at a single point pair."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(_evaluate(k, x, y))


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
        # x - y, d times the size of the result, is freed before the formula
        r2 = np.sum(np.square(x - y), axis=-1)
        r2[rows, sel] = 1.0
        out = _of_r2(k, r2)
    out[rows, sel] = self_values
    return out


@dataclass(frozen=True)
class CoefficientFn:
    """The multiplicative coefficient a(x); evaluator maps (m, d) points to m
    values."""

    evaluator: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(c: float) -> "CoefficientFn":
        return CoefficientFn(evaluator=lambda pts: np.full(len(pts), float(c)))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """a at each point; a result that is not real, finite and of one
        value per point is rejected instead of broadcasting into a wrong
        diagonal or spreading NaN."""
        pts = np.asarray(pts, dtype=np.float64)
        values = np.asarray(self.evaluator(pts))
        if np.iscomplexobj(values):
            raise ValueError("coefficient values are complex; a(x) must be real")
        if values.shape != (len(pts),):
            raise ValueError(
                f"coefficient returned shape {values.shape} for {len(pts)} "
                f"points; expected ({len(pts)},)"
            )
        values = values.astype(np.float64, copy=False)
        if not np.isfinite(values).all():
            raise ValueError("coefficient values have NaN or infinite entries")
        return values


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre order per direction; singular kernels get the
    2^d-subcell Duffy treatment."""

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


def _tensor_rule(axes_nodes, axes_weights):
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    w = np.ones(mesh[0].shape)
    for dim, wt in enumerate(axes_weights):
        shape = [1] * len(axes_nodes)
        shape[dim] = len(wt)
        w = w * wt.reshape(shape)
    return mesh, w


def _smooth_cell_average(k, center, h, q):
    d = len(center)
    gx, gw = _gauss01(q)
    axes = [center[dim] - h / 2 + h * gx for dim in range(d)]
    wts = [h * gw] * d
    mesh, w = _tensor_rule(axes, wts)
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    x = np.broadcast_to(np.asarray(center, dtype=np.float64), pts.shape)
    vals = _evaluate(k, x, pts)
    return float(np.sum(vals * w.ravel())) / h**d


def _singular_cell_average(k, center, h, q):
    """Duffy-mapped integration over the 2^d subcells meeting at the singular
    cell center, radially graded by t -> t^RADIAL_GRADING."""
    d = len(center)
    s = h / 2.0
    gx, gw = _gauss01(q)
    m = RADIAL_GRADING
    radial = gx**m
    radial_w = m * gx ** (m - 1) * gw
    total = 0.0
    center = np.asarray(center, dtype=np.float64)
    for signs in np.ndindex(*([2] * d)):
        sign = np.array([1.0 if b else -1.0 for b in signs])
        for axis in range(d):
            # radial coordinate along `axis`, the rest scaled by it
            nodes = [radial if dim == axis else gx for dim in range(d)]
            weights = [radial_w if dim == axis else gw for dim in range(d)]
            mesh, w = _tensor_rule(nodes, weights)
            u = mesh[axis]
            z = np.empty(u.shape + (d,))
            for dim in range(d):
                z[..., dim] = s * u if dim == axis else s * u * mesh[dim]
            pts = center + sign * z
            jac = s**d * u ** (d - 1)
            x = np.broadcast_to(center, pts.reshape(-1, d).shape)
            vals = _evaluate(k, x, pts.reshape(-1, d))
            total += float(np.sum(vals * (jac * w).ravel()))
    return total / h**d


def diagonal_entry(k: KernelSpec, cell_center, h: float, cfg: QuadratureConfig) -> float:
    """Cell average of k(x_i, .) over the width-h cell centered at x_i.

    Translation-invariant kernels are integrated around the origin so the
    result is bit-identical for every cell.
    """
    if h <= 0:
        raise ValueError("cell width must be positive")
    center = np.asarray(cell_center, dtype=np.float64)
    if k.translation_invariant:
        center = np.zeros_like(center)
    if k.smooth_at_diagonal:
        return _smooth_cell_average(k, center, h, cfg.q)
    return _singular_cell_average(k, center, h, cfg.q)


@lru_cache(maxsize=None)
def _origin_entry(k: KernelSpec, d: int, h: float, cfg: QuadratureConfig) -> float:
    return diagonal_entry(k, np.zeros(d), h, cfg)


def self_entries(
    k: KernelSpec, pts: np.ndarray, h: float, cfg: QuadratureConfig
) -> np.ndarray:
    """:func:`diagonal_entry` at every point of `pts`; a translation-invariant
    kernel has one value for all cells, integrated once per (kernel, d, h,
    quadrature)."""
    pts = np.asarray(pts, dtype=np.float64)
    if k.translation_invariant:
        return np.full(len(pts), _origin_entry(k, pts.shape[1], h, cfg))
    return np.array([diagonal_entry(k, p, h, cfg) for p in pts])
