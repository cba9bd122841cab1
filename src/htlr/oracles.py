"""Ground-truth machinery: dense assembly, exact row evaluation on the grid
and on triangle centroids (self terms from the kernels module),
sequentially truncated Tucker compression, and error measurement.

Everything here favors obviousness over speed; these are the references the
fast paths are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, tensor
from .grids import IndexBox, UniformGrid
from .kernels import (
    CoefficientFn,
    KernelSpec,
    QuadratureConfig,
    pairwise_self,
    self_entries,
    triangle_entries,
)

DENSE_GUARD = 2**15


@dataclass
class DenseOperator:
    matrix: np.ndarray


def _grid_points(grid: UniformGrid) -> np.ndarray:
    box = IndexBox(tuple((0, grid.n) for _ in range(grid.d)))
    return grid.points(box)


def dense_assemble(
    k: KernelSpec,
    coeff: CoefficientFn,
    grid: UniformGrid,
    cfg: QuadratureConfig,
    max_points: int = DENSE_GUARD,
) -> DenseOperator:
    """Full system matrix a(x_i) 1[i=j] + K_ij h^d on the uniform grid."""
    n_pts = grid.num_points
    if n_pts > max_points:
        raise ValueError(
            f"dense assembly of {n_pts} points exceeds the guard {max_points}"
        )
    pts = _grid_points(grid)
    idx = np.arange(n_pts)
    diag = self_entries(k, pts, grid.h, cfg)
    mat = pairwise_self(k, pts, idx, diag) * grid.h**grid.d
    mat[idx, idx] += coeff(pts)
    return DenseOperator(matrix=mat)


def _row_oracle(k, coeff, pts, weights, self_values):
    """(rows, u) -> exact rows of f_i = a(x_i) u_i + sum_j K_ij w_j u_j, with
    K_ii from self_values(rows), recomputing kernel rows on demand, as many
    rows at a time as :data:`htlr.kernels.EVAL_CHUNK` evaluations allow (at
    least one), so memory stays O(N)."""

    def rows_apply(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        u = np.asarray(u, dtype=np.float64).ravel(order="F")
        out = np.empty(rows.size)
        step = max(1, kernels.EVAL_CHUNK // len(pts))
        for start in range(0, rows.size, step):
            sel = rows[start : start + step]
            block = pairwise_self(k, pts, sel, self_values(sel))
            out[start : start + step] = block @ (weights * u)
        out += coeff(pts[rows]) * u[rows]
        return out

    return rows_apply


def exact_row_evaluator(
    k: KernelSpec,
    coeff: CoefficientFn,
    grid: UniformGrid,
    cfg: QuadratureConfig,
):
    """Row oracle for the uniform-grid system: returns a callable mapping
    (row ids, u) to the exact matvec values on those rows."""
    pts = _grid_points(grid)
    return _row_oracle(
        k, coeff, pts, grid.h**grid.d,
        lambda sel: self_entries(k, pts[sel], grid.h, cfg),
    )


@dataclass
class SthosvdResult:
    core: np.ndarray
    factors: list
    discarded_energy: np.ndarray  # per mode, sum of squared dropped singular values

    def reconstruct(self) -> np.ndarray:
        return tensor.multi_mode_apply(
            self.core, [(f, mode + 1) for mode, f in enumerate(self.factors)]
        )


def _unfold(t: np.ndarray, mode: int) -> np.ndarray:
    moved = np.moveaxis(t, mode, 0)
    return moved.reshape(t.shape[mode], -1, order="F")


def sthosvd(t: np.ndarray, ranks) -> SthosvdResult:
    """Sequentially truncated Tucker compression, processing modes in
    ascending order: unfold the current core, truncate its SVD, contract, and
    move on."""
    t = np.asarray(t, dtype=np.float64)
    ranks = list(ranks)
    if len(ranks) != t.ndim:
        raise ValueError("one rank per mode required")
    for r, n in zip(ranks, t.shape):
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} invalid for extent {n}")
    core = t
    factors = []
    discarded = np.zeros(t.ndim)
    for mode, r in enumerate(ranks):
        u, s, _ = np.linalg.svd(_unfold(core, mode), full_matrices=False)
        factors.append(u[:, :r])
        discarded[mode] = float(np.sum(s[r:] ** 2))
        core = tensor.mode_product(core, u[:, :r].T, mode + 1)
    return SthosvdResult(core=core, factors=factors, discarded_energy=discarded)


def quasi_row_evaluator(k: KernelSpec, coeff: CoefficientFn, mesh,
                        cfg: QuadratureConfig):
    """Row oracle for the quasi-uniform system on triangle centroids:
    f_i = a(x_i) u_i + sum_j K_ij |cell_j| u_j with the diagonal entry the
    triangle average of the kernel."""
    pts, areas = mesh.centroids, mesh.areas
    return _row_oracle(
        k, coeff, pts, areas,
        lambda sel: triangle_entries(
            k, mesh.vertices[mesh.triangles[sel]], pts[sel], areas[sel], cfg
        ),
    )


def rel_fro_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative Frobenius-norm error of an approximation."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if approx.shape != exact.shape:
        raise ValueError("shape mismatch")
    denom = np.linalg.norm(exact)
    if denom == 0.0:
        raise ValueError("exact reference has zero norm")
    return float(np.linalg.norm(approx - exact) / denom)
