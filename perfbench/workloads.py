"""The benchmark's workloads and the inputs each one derives from its seed.

Every workload is a closed loop with one caller: each operator application
waits for the previous one, as a Krylov solver does.  The seed fixes the
vectors, the right-hand sides and the mesh jitter; the library receives only
these generated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import htlr


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    d: int
    n: int  # uniform grid side; cells per side of the mesh when quasi
    kernel: str  # gaussian | slp2d | slp3d
    strong: bool  # strong admissibility with eta = sqrt(d), else weak
    rank: int
    leaf: int
    linear_coeff: bool  # a(x) = 1e-3 (1 + x_1), else a = 0
    loop: str  # "stream" of matvecs, or "cg" solves
    builds: int  # set-ups per run; setup_s is their median
    gate: float  # largest accepted rel_err
    rho: Optional[float] = None  # quasi-uniform pipeline oversampling

    @property
    def quasi(self) -> bool:
        return self.rho is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gauss2d-n512-build",
            "2D Gaussian weak build of 5,116 leaves in few translation classes; "
            "the build dominates and dense blocks hold most stored scalars",
            d=2, n=512, kernel="gaussian", strong=False, rank=8, leaf=16,
            linear_coeff=False, loop="stream", builds=1, gate=1e-9,
        ),
        Workload(
            "slp2d-n128-solve",
            "2D single layer, strong admissibility, non-constant a(x); CG "
            "solves where the matvec and its per-leaf loop dominate",
            d=2, n=128, kernel="slp2d", strong=True, rank=8, leaf=16,
            linear_coeff=True, loop="cg", builds=2, gate=1e-5,
        ),
        Workload(
            "gauss3d-n32",
            "3D Gaussian weak: the only order-6 cores and identity-folded "
            "square factors (leaf side 4 = p)",
            d=3, n=32, kernel="gaussian", strong=False, rank=4, leaf=5,
            linear_coeff=False, loop="stream", builds=2, gate=1e-3,
        ),
        Workload(
            "quasi-n8192",
            "jittered 8,192-triangle mesh through the S/T transfers; the only "
            "user of quasi, whose overlap build dominates",
            d=2, n=64, kernel="gaussian", strong=False, rank=8, leaf=16,
            linear_coeff=False, loop="stream", builds=2, gate=1e-1, rho=2.0,
        ),
    )
}

#: vectors per run on the uniform grid; the stream cycles through them
POOL = 4
#: rows of the quasi-uniform row oracle checked.  The error there depends on
#: the sampled rows far more than on the vector, and each row costs ~3 ms,
#: so the mesh workload checks many rows of a single vector.
QUASI_ROWS = 1024
CHECK_ROWS_SEED = 20250808
#: CG relative residual target
CG_RTOL = 1e-8


def _linear_coeff(pts: np.ndarray) -> np.ndarray:
    return 1e-3 * (1.0 + pts[:, 0])


def build_config(w: Workload) -> htlr.BuildConfig:
    if w.kernel == "gaussian":
        kernel = htlr.gaussian(float(np.sqrt(w.d)))
    elif w.kernel == "slp2d":
        kernel = htlr.slp_2d()
    else:
        kernel = htlr.slp_3d()
    rule = (
        htlr.AdmissibilityRule.strong(float(np.sqrt(w.d)))
        if w.strong
        else htlr.AdmissibilityRule.weak()
    )
    coeff = (
        htlr.CoefficientFn(_linear_coeff)
        if w.linear_coeff
        else htlr.CoefficientFn.constant(0.0)
    )
    return htlr.BuildConfig(
        rank=w.rank, leaf_side=w.leaf, rule=rule, kernel=kernel, coeff=coeff
    )


def jittered_mesh(cells: int, rng: np.random.Generator) -> "htlr.TriMesh":
    """Structured mesh with every interior vertex moved by up to a quarter
    cell per coordinate; a quarter cell cannot fold a triangle over."""
    base = htlr.structured_trimesh(cells)
    verts = base.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[interior] += rng.uniform(-0.25, 0.25, size=(int(interior.sum()), 2)) / cells
    return htlr.TriMesh(vertices=verts, triangles=base.triangles)


@dataclass
class Inputs:
    cfg: htlr.BuildConfig
    grid: Optional[htlr.UniformGrid]
    mesh: Optional["htlr.TriMesh"]
    vectors: list  # stream inputs, or CG right-hand sides
    rows: Optional[np.ndarray]  # quasi-uniform check rows


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, w.d, w.n])
    cfg = build_config(w)
    if w.quasi:
        mesh = jittered_mesh(w.n, rng)
        size = mesh.num_triangles
        grid = None
        # the check rows do not depend on the seed: which rows are sampled
        # moves the error by several percent, far more than the seed does
        rows = np.random.default_rng(CHECK_ROWS_SEED).choice(
            size, size=min(QUASI_ROWS, size), replace=False)
        rows.sort()
    else:
        mesh, rows = None, None
        grid = htlr.UniformGrid(w.d, w.n)
        size = grid.num_points
    # positive entries keep |A u| away from zero for the smooth kernels, so
    # the relative error does not swing with the seed
    vectors = [rng.random(size) for _ in range(1 if w.quasi else POOL)]
    return Inputs(cfg=cfg, grid=grid, mesh=mesh, vectors=vectors, rows=rows)


def setup(w: Workload, inputs: Inputs):
    """The timed set-up: construct, or build_pipeline for the quasi path."""
    if w.quasi:
        return htlr.build_pipeline(inputs.mesh, inputs.cfg, rho=w.rho)
    return htlr.construct(inputs.cfg, inputs.grid)


def apply(w: Workload, built, u: np.ndarray) -> np.ndarray:
    if w.quasi:
        return htlr.apply_pipeline(built, u)
    return htlr.matvec(built, u)


def operator_of(w: Workload, built):
    """The hierarchical operator inside what `setup` returned."""
    return built.op if w.quasi else built
