"""Kernel functions, coefficient functions, and singular-cell quadrature.

Built-in kernels: the Gaussian exp(-|x-y|^2 / (2 sigma^2)), the 2D single
layer potential -log(|x-y|)/(2 pi), and the 3D single layer potential
1/(4 pi |x-y|).  Custom kernels supply a vectorized evaluator.

The diagonal matrix entry of the Nystrom discretization is the cell average
of k(x_i, .) over the cell centered at x_i.  For kernels with a diagonal
singularity the cell is split into the 2^d subcells meeting at the center
and each subcell is integrated with a Duffy-type map (radial direction along
the largest coordinate, graded cubically toward the singularity) under a
tensor Gauss-Legendre rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
    translation_invariant: bool = False

    def __post_init__(self):
        if self.kind == GAUSSIAN and (self.sigma is None or self.sigma <= 0):
            raise ValueError("gaussian kernel needs sigma > 0")
        if self.kind == CUSTOM and self.evaluator is None:
            raise ValueError("custom kernel needs an evaluator")


def gaussian(sigma: float) -> KernelSpec:
    return KernelSpec(kind=GAUSSIAN, sigma=sigma, smooth_at_diagonal=True,
                      translation_invariant=True)


def slp_2d() -> KernelSpec:
    return KernelSpec(kind=SLP2D, smooth_at_diagonal=False,
                      translation_invariant=True)


def slp_3d() -> KernelSpec:
    return KernelSpec(kind=SLP3D, smooth_at_diagonal=False,
                      translation_invariant=True)


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


def _evaluate(k: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = x - y
    if k.kind == GAUSSIAN:
        r2 = np.sum(diff * diff, axis=-1)
        return np.exp(-r2 / (2.0 * k.sigma * k.sigma))
    if k.kind == SLP2D:
        r2 = np.sum(diff * diff, axis=-1)
        if np.any(r2 == 0.0):
            raise ValueError("SLP kernel evaluated on the diagonal")
        return -0.5 * np.log(r2) / (2.0 * np.pi)
    if k.kind == SLP3D:
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        if np.any(r == 0.0):
            raise ValueError("SLP kernel evaluated on the diagonal")
        return 1.0 / (4.0 * np.pi * r)
    return np.asarray(k.evaluator(x, y), dtype=np.float64)


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


def _pairwise_coincidence_safe(
    k: KernelSpec, xpts: np.ndarray, ypts: np.ndarray,
    row_idx: np.ndarray, col_idx: np.ndarray,
) -> np.ndarray:
    """Pairwise values where position (row_idx[i], col_idx[i]) is a coincident
    point pair; those entries come out finite but meaningless and must be
    overwritten by the caller."""
    if k.kind in (SLP2D, SLP3D):
        # keep the singular evaluator off the coincident pairs
        diff = xpts[:, None, :] - ypts[None, :, :]
        r2 = np.sum(diff * diff, axis=-1)
        r2[row_idx, col_idx] = 1.0
        if k.kind == SLP2D:
            return -0.5 * np.log(r2) / (2.0 * np.pi)
        return 1.0 / (4.0 * np.pi * np.sqrt(r2))
    with np.errstate(all="ignore"):
        return np.nan_to_num(_evaluate(k, xpts[:, None, :], ypts[None, :, :]))


def pairwise_masked_diagonal(
    k: KernelSpec, xpts: np.ndarray, ypts: np.ndarray, diag: np.ndarray
) -> np.ndarray:
    """Like :func:`pairwise` for a square point set where row i and column i
    are the same point; the (i, i) entries are replaced by `diag`."""
    xpts = np.asarray(xpts, dtype=np.float64)
    ypts = np.asarray(ypts, dtype=np.float64)
    idx = np.arange(xpts.shape[0])
    out = _pairwise_coincidence_safe(k, xpts, ypts, idx, idx)
    out[idx, idx] = diag
    return out


def pairwise_rows_masked(
    k: KernelSpec, pts: np.ndarray, sel: np.ndarray
) -> np.ndarray:
    """Kernel values of the rows `sel` against the full point set, with the
    self-interaction entries (i, sel[i]) left finite for later replacement."""
    return _pairwise_coincidence_safe(
        k, pts[sel], pts, np.arange(sel.size), sel
    )


@dataclass(frozen=True)
class CoefficientFn:
    """The multiplicative coefficient a(x); evaluator maps (m, d) points to m
    values."""

    evaluator: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def constant(c: float) -> "CoefficientFn":
        return CoefficientFn(evaluator=lambda pts: np.full(len(pts), float(c)))

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(pts, dtype=np.float64)),
                          dtype=np.float64)


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre order per direction; singular kernels get the
    2^d-subcell Duffy treatment."""

    q: int = 10

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("quadrature order must be >= 2")


def _gauss01(q: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


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
