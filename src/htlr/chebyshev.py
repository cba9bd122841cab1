"""Chebyshev nodes, Lagrange bases, and kernel interpolation data.

Provides the one-dimensional building blocks (nodes and the factor
matrices of Lagrange basis values) used to assemble Tucker-form
interpolants of kernel interaction blocks, plus two diagnostics: a sampled
Lebesgue constant and the a-priori error bound for asymptotically smooth
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import _check_int


@dataclass(frozen=True)
class ChebGrid1D:
    """Chebyshev nodes of the first kind mapped to [lo, hi], stored in the
    naturally decreasing order xi_t = (hi-lo)/2 * cos((2t-1)pi/(2p)) + mid."""

    lo: float
    hi: float
    nodes: np.ndarray

    @property
    def order(self) -> int:
        return len(self.nodes)


def cheb_points(lo: float, hi: float, order: int) -> ChebGrid1D:
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"interval needs finite ends lo < hi, got [{lo}, {hi}]")
    _check_int("order", order)
    if order < 1:
        raise ValueError("order must be >= 1")
    return ChebGrid1D(lo=lo, hi=hi, nodes=_cheb_nodes(lo, hi, order))


def _cheb_nodes(lo, hi, order: int) -> np.ndarray:
    """The nodes of :func:`cheb_points` on [lo, hi], elementwise: the ends
    may be arrays, which broadcast against the trailing node axis."""
    t = np.arange(1, order + 1)
    return 0.5 * (hi - lo) * np.cos((2 * t - 1) * np.pi / (2 * order)) + 0.5 * (hi + lo)


def factor_matrix(points: Sequence[float], grid: ChebGrid1D) -> np.ndarray:
    """Interpolation factor: entry (i, t) is the t-th Lagrange basis of the
    grid evaluated at the i-th point."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size and (pts.min() < grid.lo or pts.max() > grid.hi):
        raise ValueError("interpolation points must lie inside the interval")
    xi = grid.nodes
    p = grid.order
    out = np.empty((pts.size, p))
    for t in range(p):
        others = np.delete(np.arange(p), t)
        out[:, t] = np.prod(
            (pts[:, None] - xi[None, others]) / (xi[t] - xi[others]), axis=1
        )
    return out


def core_tensor(kernel, grids_tau: Sequence[ChebGrid1D], grids_sigma: Sequence[ChebGrid1D]) -> np.ndarray:
    """Kernel values at all pairs of tensor-product Chebyshev nodes of the two
    boxes, as an order-2d tensor (target modes first, source modes last)."""
    if len(grids_sigma) != len(grids_tau):
        raise ValueError("box dimensions differ")
    return _core_tensors(kernel, [g.nodes[None] for g in grids_tau],
                         [g.nodes[None] for g in grids_sigma])[..., 0]


def _core_tensors(kernel, x_nodes, y_nodes) -> np.ndarray:
    """:func:`core_tensor` of many box pairs in one kernel call.  Per
    dimension, `x_nodes` and `y_nodes` hold each pair's target and source
    nodes, arrays (pairs, order); the cores are stacked along a last axis,
    all first index fastest, so that each core is a contiguous view."""
    from .kernels import _evaluate  # local import to avoid a cycle

    xpts, ypts = _tensor_points(x_nodes), _tensor_points(y_nodes)
    # (pairs, source, target) in C order is (target, source, pairs) in F order
    values = _evaluate(kernel, xpts[:, None, :, :], ypts[:, :, None, :])
    shape = tuple(n.shape[1] for n in x_nodes) + tuple(n.shape[1] for n in y_nodes)
    return values.T.reshape(shape + (len(xpts),), order="F")


def _tensor_points(nodes) -> np.ndarray:
    """The tensor-product points of per-dimension nodes (pairs, order_k), as
    (pairs, points, d), points first index fastest."""
    index = np.indices([n.shape[1] for n in nodes]).reshape(len(nodes), -1, order="F")
    return np.stack([n[:, i] for n, i in zip(nodes, index)], axis=-1)


def lebesgue_constant(order: int, samples: int = 20001) -> float:
    """Sampled Lebesgue constant: max over [-1,1] of the summed absolute
    Lagrange basis values."""
    grid = cheb_points(-1.0, 1.0, order)
    xs = np.linspace(-1.0, 1.0, samples)
    total = np.abs(factor_matrix(xs, grid)).sum(axis=1)
    return float(total.max())


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the interpolation error bound for asymptotically smooth
    kernels.  `eta` is the separation ratio dist/diam of the box pair;
    `c_as` and `gamma` are the kernel's smoothness constants."""

    c_as: float
    gamma: float
    eta: float
    p: int
    d: int
    lambda_p: float

    def __post_init__(self):
        for name in ("c_as", "gamma", "eta", "lambda_p"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.p < 1 or self.d < 1:
            raise ValueError("p and d must be positive")


def asymptotic_error_bound(b: BoundParams) -> float:
    """Relative sup-norm bound on the tensor Chebyshev interpolation error of
    an asymptotically smooth kernel over a well-separated box pair."""
    return (
        4.0
        * b.c_as
        * b.gamma ** (b.p + 1)
        * b.lambda_p ** (2 * b.d - 1)
        * b.d
        / (4.0 * b.eta) ** (b.p + 1)
    )
