"""Leaf-block payloads of the hierarchical operators.

There are two block kinds.  An admissible (well-separated) index-box pair is
compressed from Chebyshev interpolation of the kernel into a Tucker block:
per-dimension factor matrices around an order-2d core.  The conventional
low-rank block of the baseline is the same Tucker block with each side's
factors multiplied out into one Kronecker basis, i.e. an order-2 Tucker
block u @ g @ v.T.  Inadmissible pairs are stored densely.  All blocks carry
the quadrature weight h^d of the discretization, so materializing any block
reproduces the corresponding submatrix of the system matrix.

Every block kind answers ``apply(seg)``, ``materialize()`` and ``scalars()``
(the stored ``(dense, factor, core)`` counts); no other module knows the kinds.
``apply`` takes one F-raveled source segment, or a ``(cols, m)`` matrix of m
such segments as columns and then returns m target segments as columns, so
that one call applies a shared payload to every leaf of a translation class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor
from .chebyshev import cheb_points, core_tensor, factor_matrix
from .grids import IndexBox, UniformGrid, domain_of
from .kernels import (
    KernelSpec,
    QuadratureConfig,
    pairwise,
    pairwise_self,
    self_entries,
)


@dataclass
class TuckerBlock:
    """Tucker representation of one admissible block: a core with one axis
    per factor and orthonormal factors for the target (u) and source (v)
    sides; one factor per dimension (order-2d core), or one per side
    (order-2 core) for the baseline's low-rank block.

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
    dom_tau = domain_of(grid, tau)
    dom_sigma = domain_of(grid, sigma)
    if dom_tau.overlap_volume(dom_sigma) > 0.0:
        raise ValueError("interpolation blocks require disjoint domains")
    grids_tau = [cheb_points(lo, hi, rank) for lo, hi in dom_tau.intervals]
    grids_sigma = [cheb_points(lo, hi, rank) for lo, hi in dom_sigma.intervals]
    u = [
        _orthonormalized(factor_matrix(grid.coords1d(lo, hi), g))
        for (lo, hi), g in zip(tau.ranges, grids_tau)
    ]
    v = [
        _orthonormalized(factor_matrix(grid.coords1d(lo, hi), g))
        for (lo, hi), g in zip(sigma.ranges, grids_sigma)
    ]
    core = h**grid.d * core_tensor(k, grids_tau, grids_sigma)
    core = _mode_products(core, [r for _, r in u + v])
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
) -> TuckerBlock:
    """The :func:`build_tlr` block with each side's factors multiplied out
    into one orthonormal basis of rank rank^d: an order-2 Tucker block."""
    block = build_tlr(k, grid, tau, sigma, rank, h)
    eye = np.eye(rank)

    def basis(factors):
        # Kronecker order: last dimension outermost, matching the
        # first-index-fastest linearization
        return reduce(np.kron, reversed([eye if f is None else f for f in factors]))

    r = rank**grid.d
    return TuckerBlock(
        core=block.core.reshape(r, r, order="F"),
        u_factors=[basis(block.u_factors)],
        v_factors=[basis(block.v_factors)],
    )


def build_dense(
    k: KernelSpec,
    grid: UniformGrid,
    tau: IndexBox,
    sigma: IndexBox,
    h: float,
    cfg: QuadratureConfig,
) -> DenseBlock:
    """Dense kernel submatrix K_ij h^d over the box pair.

    The coefficient a(x) is not part of the block: the hierarchical
    operators hold it as their diagonal, so dense payloads depend on the
    kernel alone.
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
    else:
        mat = pairwise(k, xpts, grid.points(sigma)) * h**grid.d
    return DenseBlock(matrix=mat)


def tlr_apply(block: TuckerBlock, u_segment: np.ndarray) -> np.ndarray:
    """Apply a Tucker block to a source-side vector segment, or to each
    column of a ``(cols, m)`` matrix of segments: reshape to a tensor (with a
    trailing batch axis), contract through the transposed v factors, the
    core, and the u factors, and flatten back."""
    u_segment = np.asarray(u_segment, dtype=np.float64)
    cols = block.col_sizes
    if u_segment.ndim not in (1, 2) or u_segment.shape[0] != int(np.prod(cols)):
        raise ValueError("segment length does not match the block")
    batch = u_segment.shape[1:]
    w = _mode_products(
        u_segment.reshape(cols + batch, order="F"),
        [f.T if f is not None else None for f in block.v_factors],
    )
    # the core's last d (source) axes against the first d axes of w
    w = np.tensordot(block.core, w, axes=len(cols))
    return _mode_products(w, block.u_factors).reshape((-1,) + batch, order="F")


def lowrank_apply(block: TuckerBlock, u_segment: np.ndarray) -> np.ndarray:
    """Apply a :func:`build_lowrank` block; it is a Tucker block."""
    return tlr_apply(block, u_segment)


def materialize(block) -> np.ndarray:
    """Full matrix represented by a block (for tests and small oracles)."""
    return block.materialize()


def storage_count(block) -> int:
    """Number of 64-bit scalars the block stores."""
    return sum(block.scalars())
