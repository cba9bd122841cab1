"""Leaf-block payloads of the hierarchical operators.

An admissible (well-separated) index-box pair is compressed from Chebyshev
interpolation of the kernel either as a Tucker block (per-dimension factor
matrices around an order-2d core) or as a conventional low-rank block whose
basis matrices are the materialized Kronecker products of the same factors.
Inadmissible pairs are stored densely.  All blocks carry the quadrature
weight h^d of the discretization, so materializing any block reproduces the
corresponding submatrix of the system matrix.

Every block kind answers ``apply(seg)``, ``materialize()`` and ``scalars()``
(the stored ``(dense, factor, core)`` counts); no other module knows the kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor
from .chebyshev import cheb_points, core_tensor, factor_matrix
from .grids import IndexBox, UniformGrid, domain_of
from .kernels import (
    CoefficientFn,
    KernelSpec,
    QuadratureConfig,
    pairwise,
    pairwise_self,
    self_entries,
)


@dataclass
class TuckerBlock:
    """Tucker representation of one admissible block: order-2d core and
    orthonormal per-dimension factors for the target (u) and source (v)
    sides.

    A factor entry of ``None`` stands for an identity: when a box side
    equals the rank the (square, orthonormal) factor carries no compression
    and is absorbed into the core at build time instead of being stored.
    """

    core: np.ndarray
    u_factors: list
    v_factors: list

    def _side(self, factors, mode_offset):
        return tuple(
            f.shape[0] if f is not None else self.core.shape[mode_offset + dim]
            for dim, f in enumerate(factors)
        )

    @property
    def row_sizes(self) -> tuple[int, ...]:
        return self._side(self.u_factors, 0)

    @property
    def col_sizes(self) -> tuple[int, ...]:
        return self._side(self.v_factors, len(self.u_factors))

    @property
    def shape(self) -> tuple[int, int]:
        return int(np.prod(self.row_sizes)), int(np.prod(self.col_sizes))

    def apply(self, seg: np.ndarray) -> np.ndarray:
        return tlr_apply(self, seg)

    def materialize(self) -> np.ndarray:
        full = _mode_products(self.core, self.u_factors + self.v_factors)
        return full.reshape(self.shape, order="F")

    def scalars(self) -> tuple[int, int, int]:
        factors = sum(
            f.size for f in self.u_factors + self.v_factors if f is not None
        )
        return 0, factors, self.core.size


@dataclass
class DenseBlock:
    matrix: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def apply(self, seg: np.ndarray) -> np.ndarray:
        return self.matrix @ seg

    def materialize(self) -> np.ndarray:
        return self.matrix

    def scalars(self) -> tuple[int, int, int]:
        return self.matrix.size, 0, 0


@dataclass
class LowRankBlock:
    """Conventional low-rank representation u @ g @ v.T with orthonormal u, v."""

    u: np.ndarray
    g: np.ndarray
    v: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape[0], self.v.shape[0]

    def apply(self, seg: np.ndarray) -> np.ndarray:
        return lowrank_apply(self, seg)

    def materialize(self) -> np.ndarray:
        return self.u @ self.g @ self.v.T

    def scalars(self) -> tuple[int, int, int]:
        return 0, self.u.size + self.v.size, self.g.size


def _mode_products(t: np.ndarray, factors) -> np.ndarray:
    """Multiply axis i of `t` by factors[i] in turn; a ``None`` factor is an
    identity.  The readable, validating form is :func:`tensor.multi_mode_apply`."""
    for axis, f in enumerate(factors):
        if f is not None:
            t = np.moveaxis(np.tensordot(f, t, axes=([1], [axis])), 0, axis)
    return t


def _orthonormalized(raw: np.ndarray):
    """(q, r) with orthonormal q and q @ r == raw; a square factor carries no
    compression, so it stays whole in r and q is an implicit identity."""
    if raw.shape[0] == raw.shape[1]:
        return None, raw
    fac = tensor.qr(raw)
    return fac.q, fac.r


def _interpolation_data(k, grid, tau, sigma, rank):
    """Raw per-dimension factors and kernel core for a box pair."""
    dom_tau = domain_of(grid, tau)
    dom_sigma = domain_of(grid, sigma)
    if dom_tau.overlap_volume(dom_sigma) > 0.0:
        raise ValueError("interpolation blocks require disjoint domains")
    grids_tau = [cheb_points(lo, hi, rank) for lo, hi in dom_tau.intervals]
    grids_sigma = [cheb_points(lo, hi, rank) for lo, hi in dom_sigma.intervals]
    u_raw = [
        factor_matrix(grid.coords1d(*tau.ranges[dim]), grids_tau[dim])
        for dim in range(grid.d)
    ]
    v_raw = [
        factor_matrix(grid.coords1d(*sigma.ranges[dim]), grids_sigma[dim])
        for dim in range(grid.d)
    ]
    core = core_tensor(k, grids_tau, grids_sigma)
    return u_raw, v_raw, core


def build_tlr(
    k: KernelSpec,
    grid: UniformGrid,
    tau: IndexBox,
    sigma: IndexBox,
    rank: int,
    h: float,
) -> TuckerBlock:
    """Interpolate the kernel over the box pair, orthogonalize every factor by
    thin QR, and fold h^d together with the triangular factors into the core.
    """
    u_raw, v_raw, core = _interpolation_data(k, grid, tau, sigma, rank)
    u = [_orthonormalized(raw) for raw in u_raw]
    v = [_orthonormalized(raw) for raw in v_raw]
    core = _mode_products(h**grid.d * core, [r for _, r in u + v])
    return TuckerBlock(
        core=core, u_factors=[q for q, _ in u], v_factors=[q for q, _ in v]
    )


def build_lowrank(
    k: KernelSpec,
    grid: UniformGrid,
    tau: IndexBox,
    sigma: IndexBox,
    rank: int,
    h: float,
) -> LowRankBlock:
    """Same interpolant as :func:`build_tlr` but with the factors materialized
    as Kronecker products and orthogonalized as single tall matrices."""
    u_raw, v_raw, core = _interpolation_data(k, grid, tau, sigma, rank)
    d = grid.d
    # Kronecker order: last dimension outermost, matching the
    # first-index-fastest linearization
    u_full = reduce(np.kron, reversed(u_raw))
    v_full = reduce(np.kron, reversed(v_raw))
    g = h**d * core.reshape(rank**d, rank**d, order="F")
    qr_u = tensor.qr(u_full)
    qr_v = tensor.qr(v_full)
    g = qr_u.r @ g @ qr_v.r.T
    return LowRankBlock(u=qr_u.q, g=g, v=qr_v.q)


def build_dense(
    k: KernelSpec,
    coeff: CoefficientFn,
    grid: UniformGrid,
    tau: IndexBox,
    sigma: IndexBox,
    h: float,
    cfg: QuadratureConfig,
) -> DenseBlock:
    """Dense submatrix a(x_i) 1[i=j] + K_ij h^d over the box pair.

    The hierarchical operators always pass a zero `coeff` and hold a(x) as
    their diagonal, so their dense payloads depend on the kernel alone.
    """
    if tau != sigma:
        overlaps = all(
            max(lo1, lo2) < min(hi1, hi2)
            for (lo1, hi1), (lo2, hi2) in zip(tau.ranges, sigma.ranges)
        )
        if overlaps:
            raise ValueError("dense blocks require equal or disjoint index boxes")
    xpts = grid.points(tau)
    if tau == sigma:
        idx = np.arange(len(xpts))
        diag = self_entries(k, xpts, h, cfg)
        mat = pairwise_self(k, xpts, idx, diag) * h**grid.d
        mat[idx, idx] += coeff(xpts)
    else:
        mat = pairwise(k, xpts, grid.points(sigma)) * h**grid.d
    return DenseBlock(matrix=mat)


def tlr_apply(block: TuckerBlock, u_segment: np.ndarray) -> np.ndarray:
    """Apply a Tucker block to a source-side vector segment: reshape to a
    tensor, contract through the transposed v factors, the core, and the u
    factors, and flatten back."""
    u_segment = np.asarray(u_segment, dtype=np.float64)
    cols = block.col_sizes
    if u_segment.size != int(np.prod(cols)):
        raise ValueError("segment length does not match the block")
    w = _mode_products(
        u_segment.reshape(cols, order="F"),
        [f.T if f is not None else None for f in block.v_factors],
    )
    # the core's last d (source) axes against the d axes of w
    w = np.tensordot(block.core, w, axes=len(cols))
    return _mode_products(w, block.u_factors).ravel(order="F")


def lowrank_apply(block: LowRankBlock, u_segment: np.ndarray) -> np.ndarray:
    u_segment = np.asarray(u_segment, dtype=np.float64).ravel(order="F")
    return block.u @ (block.g @ (block.v.T @ u_segment))


def materialize(block) -> np.ndarray:
    """Full matrix represented by a block (for tests and small oracles)."""
    return block.materialize()


def storage_count(block) -> int:
    """Number of 64-bit scalars the block stores."""
    return sum(block.scalars())
