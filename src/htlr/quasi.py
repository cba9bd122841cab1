"""Triangle meshes and the quasi-uniform forward-evaluation pipeline.

A vector sampled on triangle centroids is moved to an auxiliary uniform
grid by the area-overlap matrix S, multiplied by the hierarchical operator
there, and moved back by the reverse-overlap matrix T.  Both transfer
matrices are sparse and row-stochastic whenever the mesh covers the unit
square.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .grids import UniformGrid, _leaf_side
from .operators import BuildConfig, HTLRMatrix, checked_vector, construct, matvec

COVERAGE_TOL = 1e-8


@dataclass
class TriMesh:
    """Triangulation of [0,1]^2 with per-triangle centroids and areas."""

    vertices: np.ndarray  # (V, 2)
    triangles: np.ndarray  # (F, 3) int, 0-based
    centroids: np.ndarray = field(init=False)
    areas: np.ndarray = field(init=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.triangles.min(initial=0) < 0 or self.triangles.max(
            initial=-1
        ) >= len(self.vertices):
            raise ValueError("triangle vertex index out of range")
        corners = self.vertices[self.triangles]  # (F, 3, 2)
        self.centroids = corners.mean(axis=1)
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
            b[:, 1] - a[:, 1]
        ) * (c[:, 0] - a[:, 0])
        self.areas = 0.5 * np.abs(cross)
        if np.any(self.areas <= 0.0):
            raise ValueError("mesh contains a zero-area triangle")
        deficit = abs(float(self.areas.sum()) - 1.0)
        if deficit > COVERAGE_TOL:
            raise ValueError(
                f"mesh does not cover the unit square (area deficit {deficit:.2e})"
            )

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def corners(self, i: int) -> np.ndarray:
        return self.vertices[self.triangles[i]]


def load_mesh(path) -> TriMesh:
    """Read a mesh file: first line 'V F', then V lines 'x y', then F lines
    'i j k' with 1-based vertex indices."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("mesh file too short")
    try:
        nv, nf = int(tokens[0]), int(tokens[1])
        flat = tokens[2:]
        if len(flat) != 2 * nv + 3 * nf:
            raise ValueError(
                f"expected {2 * nv + 3 * nf} values after the header, "
                f"got {len(flat)}"
            )
        verts = np.array(flat[: 2 * nv], dtype=np.float64).reshape(nv, 2)
        tris = np.array(flat[2 * nv :], dtype=np.int64).reshape(nf, 3) - 1
    except ValueError:
        raise
    except Exception as exc:  # tokenization / numeric garbage
        raise ValueError(f"malformed mesh file: {exc}") from exc
    return TriMesh(vertices=verts, triangles=tris)


def save_mesh(mesh: TriMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for tri in mesh.triangles:
            fh.write(f"{tri[0] + 1} {tri[1] + 1} {tri[2] + 1}\n")


def structured_trimesh(cells_per_side: int, diagonal: str = "down") -> TriMesh:
    """Split every cell of a k-by-k grid over [0,1]^2 into two triangles.

    ``diagonal="down"`` cuts along the top-left to bottom-right diagonal,
    ``"up"`` along the other one.
    """
    k = cells_per_side
    if k < 1:
        raise ValueError("cells_per_side must be >= 1")
    if diagonal not in ("down", "up"):
        raise ValueError("diagonal must be 'down' or 'up'")
    xs = np.arange(k + 1) / k
    vid = lambda i, j: i + j * (k + 1)
    verts = np.array([[xs[i], xs[j]] for j in range(k + 1) for i in range(k + 1)])
    tris = []
    for j in range(k):
        for i in range(k):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            if diagonal == "down":
                tris.append((a, b, d))
                tris.append((b, c, d))
            else:
                tris.append((a, b, c))
                tris.append((a, c, d))
    return TriMesh(vertices=verts, triangles=np.array(tris))


def _clip_halfplane(poly, axis, bound, keep_le):
    out = []
    m = len(poly)
    for i in range(m):
        prev = poly[i - 1]
        cur = poly[i]
        if keep_le:
            prev_in = prev[axis] <= bound
            cur_in = cur[axis] <= bound
        else:
            prev_in = prev[axis] >= bound
            cur_in = cur[axis] >= bound
        if cur_in != prev_in:
            t = (bound - prev[axis]) / (cur[axis] - prev[axis])
            out.append(
                (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
            )
        if cur_in:
            out.append(cur)
    return out


def _polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    total = 0.0
    for i in range(len(poly)):
        x0, y0 = poly[i - 1]
        x1, y1 = poly[i]
        total += x0 * y1 - x1 * y0
    return 0.5 * abs(total)


def overlap_area(tri, cell) -> float:
    """Area of the intersection of a triangle with an axis-aligned rectangle
    (x0, y0, x1, y1) via Sutherland-Hodgman clipping and the shoelace formula.
    """
    x0, y0, x1, y1 = cell
    poly = [tuple(p) for p in np.asarray(tri, dtype=np.float64)]
    for axis, bound, keep_le in (
        (0, x0, False),
        (0, x1, True),
        (1, y0, False),
        (1, y1, True),
    ):
        poly = _clip_halfplane(poly, axis, bound, keep_le)
        if not poly:
            return 0.0
    return _polygon_area(poly)


@dataclass
class SparseInterpMatrix:
    """Row-compressed nonnegative transfer weights."""

    matrix: sp.csr_matrix

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def entries_in_row(self, row: int) -> int:
        return self.matrix.indptr[row + 1] - self.matrix.indptr[row]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=np.float64)


def _overlap_entries(mesh: TriMesh, m_side: int):
    """All (cell_id, triangle_id, overlap_area) triples with positive area.

    Cells are linearized first-index-fastest to match the uniform-grid
    vectors.  Candidate cells come from each triangle's bounding box.
    """
    h = 1.0 / m_side
    cell_area = h * h
    drop = 1e-13 * cell_area
    rows, cols, areas = [], [], []
    for t in range(mesh.num_triangles):
        corners = mesh.corners(t)
        xmin, ymin = corners.min(axis=0)
        xmax, ymax = corners.max(axis=0)
        i0 = max(int(np.floor(xmin * m_side)), 0)
        i1 = min(int(np.ceil(xmax * m_side)), m_side)
        j0 = max(int(np.floor(ymin * m_side)), 0)
        j1 = min(int(np.ceil(ymax * m_side)), m_side)
        for j in range(j0, j1):
            for i in range(i0, i1):
                area = overlap_area(
                    corners, (i * h, j * h, (i + 1) * h, (j + 1) * h)
                )
                if area > drop:
                    rows.append(i + j * m_side)
                    cols.append(t)
                    areas.append(area)
    return np.array(rows), np.array(cols), np.array(areas)


def quasi_to_uniform(mesh: TriMesh, m_side: int) -> SparseInterpMatrix:
    """Transfer matrix from centroid values to uniform-grid values; entry
    (t, i) is the overlap of cell t with triangle i over the cell area."""
    rows, cols, areas = _overlap_entries(mesh, m_side)
    m_total = m_side * m_side
    weights = areas * (m_side * m_side)
    mat = sp.csr_matrix(
        (weights, (rows, cols)), shape=(m_total, mesh.num_triangles)
    )
    sums = np.asarray(mat.sum(axis=1)).ravel()
    bad = np.abs(sums - 1.0) > COVERAGE_TOL
    if np.any(bad):
        raise ValueError(
            f"{int(bad.sum())} uniform cells are not fully covered by the mesh"
        )
    return SparseInterpMatrix(matrix=mat)


def uniform_to_quasi(mesh: TriMesh, m_side: int) -> SparseInterpMatrix:
    """Transfer matrix from uniform-grid values to centroid values; entry
    (i, t) is the overlap of triangle i with cell t over the triangle area."""
    rows, cols, areas = _overlap_entries(mesh, m_side)
    m_total = m_side * m_side
    weights = areas / mesh.areas[cols]
    mat = sp.csr_matrix(
        (weights, (cols, rows)), shape=(mesh.num_triangles, m_total)
    )
    sums = np.asarray(mat.sum(axis=1)).ravel()
    bad = np.abs(sums - 1.0) > COVERAGE_TOL
    if np.any(bad):
        raise ValueError(
            f"{int(bad.sum())} triangles stick out of the uniform grid"
        )
    return SparseInterpMatrix(matrix=mat)


@dataclass
class QuasiPipeline:
    """The three-stage forward map: to the uniform grid, hierarchical matvec,
    back to the centroids."""

    to_quasi: SparseInterpMatrix  # (N, M)
    op: HTLRMatrix
    to_uniform: SparseInterpMatrix  # (M, N)
    m_side: int
    rho: float


def valid_uniform_side(target: int, leaf_side: int) -> int:
    """Nearest grid side to `target` that halves evenly down to the leaf
    threshold."""
    for delta in range(max(target, 4)):
        for cand in (target + delta, target - delta):
            if cand < 1:
                continue
            try:
                _leaf_side(cand, leaf_side)
            except ValueError:
                continue
            return cand
    raise ValueError("no valid uniform grid side near the target")


def build_pipeline(mesh: TriMesh, cfg: BuildConfig, rho: float) -> QuasiPipeline:
    """Assemble the pipeline for an oversampling ratio rho ~ sqrt(2M/N); the
    uniform side is rounded to the nearest buildable grid and the exact rho
    is recomputed."""
    n_quasi = mesh.num_triangles
    target = int(round(np.sqrt(rho * rho * n_quasi / 2.0)))
    m_side = valid_uniform_side(max(target, cfg.leaf_side), cfg.leaf_side)
    grid = UniformGrid(2, m_side)
    op = construct(cfg, grid)
    s_mat = quasi_to_uniform(mesh, m_side)
    t_mat = uniform_to_quasi(mesh, m_side)
    exact_rho = float(np.sqrt(2.0 * m_side * m_side / n_quasi))
    return QuasiPipeline(
        to_quasi=t_mat, op=op, to_uniform=s_mat, m_side=m_side, rho=exact_rho
    )


def apply_pipeline(pipe: QuasiPipeline, u: np.ndarray) -> np.ndarray:
    u = checked_vector(u)
    if u.size != pipe.to_uniform.cols:
        raise ValueError("vector length does not match the mesh")
    return pipe.to_quasi.apply(matvec(pipe.op, pipe.to_uniform.apply(u)))
