"""Exact matvec of the uniform-grid system by circulant embedding.

With a translation-invariant kernel on a uniform grid, the system matrix
A = diag(a(x_i)) + h^d K is multilevel Toeplitz: K[i, j] depends only on the
index offset i - j.  Embedding it in a circulant of side 2n per dimension
makes A u one FFT convolution (R. Chan and M. Ng, "Conjugate gradient methods
for Toeplitz systems", SIAM Review 38, 1996).  The kernels are evaluated here
from their formulas; only the quadrature diagonal scalar comes from the
library, and the coefficient term a(x) u is added exactly.
"""

from __future__ import annotations

import numpy as np

import htlr


def _kernel_of_offsets(kernel, r2: np.ndarray) -> np.ndarray:
    """Kernel value at squared distances r2 > 0."""
    if kernel.kind == "gaussian":
        return np.exp(-r2 / (2.0 * kernel.sigma * kernel.sigma))
    if kernel.kind == "slp2d":
        return -0.5 * np.log(r2) / (2.0 * np.pi)
    if kernel.kind == "slp3d":
        return 1.0 / (4.0 * np.pi * np.sqrt(r2))
    raise ValueError(f"no circulant reference for kernel kind {kernel.kind!r}")


class CirculantReference:
    """A u for the configured kernel and coefficient on a UniformGrid."""

    def __init__(self, cfg, grid):
        d, n, h = grid.d, grid.n, grid.h
        self.d, self.n = d, n
        # slot n holds offset n, which no output entry reads
        offsets = np.arange(2 * n)
        offsets = np.where(offsets <= n, offsets, offsets - 2 * n) * h
        mesh = np.meshgrid(*([offsets] * d), indexing="ij")
        r2 = sum(m * m for m in mesh)
        zero = (0,) * d
        r2[zero] = 1.0  # replaced by the quadrature diagonal below
        col = _kernel_of_offsets(cfg.kernel, r2)
        center = np.full(d, 0.5 * h)
        col[zero] = htlr.diagonal_entry(cfg.kernel, center, h, cfg.quadrature)
        self._spectrum = np.fft.rfftn(col * h**d)
        box = htlr.IndexBox(tuple((0, n) for _ in range(d)))
        self._coeff = cfg.coeff(grid.points(box))

    def matvec(self, u: np.ndarray) -> np.ndarray:
        n, d = self.n, self.d
        u = np.asarray(u, dtype=np.float64)
        tens = u.reshape((n,) * d, order="F")
        shape, axes = (2 * n,) * d, tuple(range(d))
        full = np.fft.irfftn(
            np.fft.rfftn(tens, s=shape, axes=axes) * self._spectrum, s=shape, axes=axes
        )
        out = full[(slice(0, n),) * d].ravel(order="F")
        return out + self._coeff * u
