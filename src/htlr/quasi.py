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
#: (triangle, cell) pairs clipped per batch; bounds the clipper's scratch
#: arrays to a few MB whatever the mesh size
_CLIP_CHUNK = 8192


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
        if self.vertices.shape[1:] != (2,) or self.triangles.shape[1:] != (3,):
            raise ValueError("mesh needs (V, 2) vertices and (F, 3) triangles")
        if not np.isfinite(self.vertices).all():
            raise ValueError("mesh vertex coordinates must be finite")
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
    except OverflowError as exc:  # an integer too large for int64
        raise ValueError(f"malformed mesh file: {exc}") from exc
    return TriMesh(vertices=verts, triangles=tris)


def save_mesh(mesh: TriMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for tri in mesh.triangles:
            fh.write(f"{tri[0] + 1} {tri[1] + 1} {tri[2] + 1}\n")


def structured_trimesh(cells_per_side: int) -> TriMesh:
    """Split every cell of a k-by-k grid over [0,1]^2 into two triangles
    along its top-left to bottom-right diagonal."""
    k = cells_per_side
    if k < 1:
        raise ValueError("cells_per_side must be >= 1")
    xs = np.arange(k + 1) / k
    vid = lambda i, j: i + j * (k + 1)
    verts = np.array([[xs[i], xs[j]] for j in range(k + 1) for i in range(k + 1)])
    tris = []
    for j in range(k):
        for i in range(k):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, d))
            tris.append((b, c, d))
    return TriMesh(vertices=verts, triangles=np.array(tris))


def _clamp_axis(poly, axis, width):
    """Sutherland-Hodgman against 0 <= coordinate `axis` <= width with a
    fixed vertex count: both crossings of each edge are inserted, in order,
    and every vertex is then clamped onto the strip.  The parts outside
    become paths along the strip's sides, which enclose no area."""
    prev = np.roll(poly, 1, axis=1)
    start = prev[..., axis]
    step = poly[..., axis] - start
    step[step == 0.0] = 1.0  # edge parallel to the sides: its points add no area
    ts = np.sort([-start / step, (width[:, None] - start) / step], axis=0)
    first, second = prev + ts.clip(0.0, 1.0)[..., None] * (poly - prev)
    out = np.stack([first, second, poly], axis=2).reshape(len(poly), -1, 2)
    out[..., axis] = out[..., axis].clip(0.0, width[:, None])
    return out


def _clip_areas(tris, cells):
    """Overlap areas of K triangles (K, 3, 2) with K axis-aligned rectangles
    (K, 4) given as (x0, y0, x1, y1), by the shoelace formula on the clipped
    polygons.  Coordinates are taken relative to each lower-left corner."""
    poly = tris - cells[:, None, :2]
    for axis in (0, 1):
        poly = _clamp_axis(poly, axis, cells[:, 2 + axis] - cells[:, axis])
    x, y = poly[..., 0], poly[..., 1]
    nxt = np.roll(poly, -1, axis=1)
    return 0.5 * np.abs((x * nxt[..., 1] - nxt[..., 0] * y).sum(axis=1))


def overlap_area(tri, cell) -> float:
    """Area of the intersection of a triangle with an axis-aligned rectangle
    (x0, y0, x1, y1) via Sutherland-Hodgman clipping and the shoelace formula.
    """
    tris = np.asarray(tri, dtype=np.float64)[None]
    return float(_clip_areas(tris, np.asarray(cell, dtype=np.float64)[None])[0])


@dataclass
class SparseInterpMatrix:
    """Row-compressed nonnegative transfer weights."""

    matrix: sp.csr_matrix

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=np.float64)


def _overlap_entries(mesh: TriMesh, m_side: int):
    """All (cell_id, triangle_id, overlap_area) triples with positive area.

    Cells are linearized first-index-fastest to match the uniform-grid
    vectors.  Candidate cells come from each triangle's bounding box and
    are clipped _CLIP_CHUNK pairs at a time.
    """
    h = 1.0 / m_side
    corners = mesh.vertices[mesh.triangles]  # (F, 3, 2)
    lo = np.clip(np.floor(corners.min(axis=1) * m_side), 0, m_side).astype(np.int64)
    hi = np.clip(np.ceil(corners.max(axis=1) * m_side), 0, m_side).astype(np.int64)
    span = hi - lo  # (F, 2) candidate cells per axis
    counts = span[:, 0] * span[:, 1]
    tris = np.repeat(np.arange(mesh.num_triangles), counts)
    local = np.arange(len(tris)) - np.repeat(np.cumsum(counts) - counts, counts)
    i = lo[tris, 0] + local % span[tris, 0]
    j = lo[tris, 1] + local // span[tris, 0]
    areas = np.empty(len(tris))
    for k in range(0, len(tris), _CLIP_CHUNK):
        part = slice(k, k + _CLIP_CHUNK)
        cells = np.stack([i[part], j[part], i[part] + 1, j[part] + 1], axis=1) * h
        areas[part] = _clip_areas(corners[tris[part]], cells)
    keep = areas > 1e-13 * h * h
    return (i + j * m_side)[keep], tris[keep], areas[keep]


def _checked_transfer(weights, rows, cols, shape, failure) -> SparseInterpMatrix:
    mat = sp.csr_matrix((weights, (rows, cols)), shape=shape)
    bad = np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0) > COVERAGE_TOL
    if np.any(bad):
        raise ValueError(f"{int(bad.sum())} {failure}")
    return SparseInterpMatrix(matrix=mat)


def _to_uniform(mesh: TriMesh, m_side: int, entries) -> SparseInterpMatrix:
    cells, tris, areas = entries
    m_total = m_side * m_side
    return _checked_transfer(
        areas * m_total, cells, tris, (m_total, mesh.num_triangles),
        "uniform cells are not fully covered by the mesh",
    )


def _to_quasi(mesh: TriMesh, m_side: int, entries) -> SparseInterpMatrix:
    cells, tris, areas = entries
    return _checked_transfer(
        areas / mesh.areas[tris], tris, cells,
        (mesh.num_triangles, m_side * m_side),
        "triangles stick out of the uniform grid",
    )


def quasi_to_uniform(mesh: TriMesh, m_side: int) -> SparseInterpMatrix:
    """Transfer matrix from centroid values to uniform-grid values; entry
    (t, i) is the overlap of cell t with triangle i over the cell area."""
    return _to_uniform(mesh, m_side, _overlap_entries(mesh, m_side))


def uniform_to_quasi(mesh: TriMesh, m_side: int) -> SparseInterpMatrix:
    """Transfer matrix from uniform-grid values to centroid values; entry
    (i, t) is the overlap of triangle i with cell t over the triangle area."""
    return _to_quasi(mesh, m_side, _overlap_entries(mesh, m_side))


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
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("oversampling ratio rho must be finite and positive")
    n_quasi = mesh.num_triangles
    target = int(round(np.sqrt(rho * rho * n_quasi / 2.0)))
    m_side = valid_uniform_side(max(target, cfg.leaf_side), cfg.leaf_side)
    grid = UniformGrid(2, m_side)
    op = construct(cfg, grid)
    entries = _overlap_entries(mesh, m_side)
    s_mat = _to_uniform(mesh, m_side, entries)
    t_mat = _to_quasi(mesh, m_side, entries)
    exact_rho = float(np.sqrt(2.0 * m_side * m_side / n_quasi))
    return QuasiPipeline(
        to_quasi=t_mat, op=op, to_uniform=s_mat, m_side=m_side, rho=exact_rho
    )


def apply_pipeline(pipe: QuasiPipeline, u: np.ndarray) -> np.ndarray:
    u = checked_vector(u)
    if u.size != pipe.to_uniform.cols:
        raise ValueError("vector length does not match the mesh")
    return pipe.to_quasi.apply(matvec(pipe.op, pipe.to_uniform.apply(u)))
