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
#: (triangle, cell) pairs cut per batch; keeps the clipper's scratch arrays
#: near the cache size whatever the mesh size
_CHUNK = 4096


@dataclass
class TriMesh:
    """Triangulation of [0,1]^2 with per-triangle centroids and areas."""

    vertices: np.ndarray  # (V, 2)
    triangles: np.ndarray  # (F, 3) int, 0-based
    centroids: np.ndarray = field(init=False)
    areas: np.ndarray = field(init=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        triangles = np.asarray(self.triangles)
        if not np.issubdtype(triangles.dtype, np.integer):
            raise ValueError(
                f"triangle vertex indices must be integers, got {triangles.dtype}"
            )
        self.triangles = np.asarray(triangles, dtype=np.int64)
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


def _clip_below(u, v, line):
    """Closed polygons (n + 1, K), one per column with the first vertex
    repeated last, with vertex coordinates u, v, cut to u <= line (K,) by
    one Sutherland-Hodgman pass with a fixed vertex count 2n + 1: before
    each vertex comes the point where the edge into it crosses the line, or
    one of the edge's ends if it does not cross; every vertex is then
    clamped onto the line.  The part beyond the line becomes a path along
    it, which encloses no area.  Swap u and v to cut along the other axis."""
    pu, pv = u[:-1], v[:-1]
    du, dv = u[1:] - pu, v[1:] - pv
    # an edge parallel to the line does not cross it: any of its points will do
    t = ((line - pu) / np.where(du == 0.0, 1.0, du)).clip(0.0, 1.0)
    cu = np.empty((2 * len(u) - 1, u.shape[1]))
    cv = np.empty_like(cu)
    cu[0::2], cu[1::2] = u, pu + t * du
    cv[0::2], cv[1::2] = v, pv + t * dv
    np.minimum(cu, line, out=cu)
    return cu, cv


def _area(u, v):
    """Shoelace areas of closed polygons given as in _clip_below."""
    return 0.5 * np.abs((u[:-1] * v[1:] - u[1:] * v[:-1]).sum(axis=0))


def _strip_edges(x, y, width):
    """The part A -> B of every edge of closed triangles (4, K) with
    0 <= x <= width, as four (3, K) arrays xa, ya, xb, yb, x clamped into the
    strip.  An edge that misses the strip has A = B on the strip side it
    lies on.  Between B of one edge and A of the next, the triangle's
    boundary is outside the strip: clamped onto it, that part is a vertical
    segment at x = xb."""
    px, py = x[:-1], y[:-1]
    dx, dy = x[1:] - px, y[1:] - py
    # an edge parallel to the strip: any of its points will do, as the
    # vertical segment from B to the next A covers the rest of it
    step = np.where(dx == 0.0, 1.0, dx)
    t0 = (-px / step).clip(0.0, 1.0)
    t1 = ((width - px) / step).clip(0.0, 1.0)
    ta, tb = np.minimum(t0, t1), np.maximum(t0, t1)
    return ((px + ta * dx).clip(0.0, width), py + ta * dy,
            (px + tb * dx).clip(0.0, width), py + tb * dy)


def _area_below(xa, ya, xb, yb, line):
    """Areas below y = line (K,) of the strip polygons of _strip_edges:
    the trapezoid sums of y-differences times x-sums along the edge parts
    and the vertical segments between them, with every point clamped to
    y <= line.  The part above the line then has no y-difference, so it
    adds nothing, and a polygon wholly above the line has area exactly 0."""
    dy = yb - ya
    t = ((line - ya) / np.where(dy == 0.0, 1.0, dy)).clip(0.0, 1.0)
    xc = xa + t * (xb - xa)
    yc = np.minimum(ya + t * dy, line)
    ya, yb = np.minimum(ya, line), np.minimum(yb, line)
    s = (yc - ya) * (xa + xc) + (yb - yc) * (xc + xb) + 2.0 * xb * (ya[[1, 2, 0]] - yb)
    return 0.5 * np.abs(s.sum(axis=0))


def overlap_area(tri, cell) -> float:
    """Area of the intersection of a triangle (3, 2) with an axis-aligned
    rectangle (x0, y0, x1, y1): the triangle cut by each side of the
    rectangle in turn, and the shoelace formula."""
    tri = np.asarray(tri, dtype=np.float64)
    cell = np.asarray(cell, dtype=np.float64)
    if tri.shape != (3, 2) or cell.shape != (4,):
        raise ValueError(
            "overlap_area needs a (3, 2) triangle and a cell (x0, y0, x1, y1)"
        )
    if not (np.isfinite(tri).all() and np.isfinite(cell).all()):
        raise ValueError("overlap_area coordinates must be finite")
    x0, y0, x1, y1 = cell
    if not (x0 < x1 and y0 < y1):
        raise ValueError("overlap_area needs a cell with x0 < x1 and y0 < y1")
    # relative to (x0, y0); a side x >= 0 is the cut -x <= 0
    u, v = tri[[0, 1, 2, 0], :1] - x0, tri[[0, 1, 2, 0], 1:] - y0
    u, v = _clip_below(u, v, x1 - x0)
    v, u = _clip_below(v, u, y1 - y0)
    u, v = _clip_below(-u, v, 0.0)
    v, u = _clip_below(-v, u, 0.0)
    return float(_area(u, v)[0])


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


def _ragged(counts):
    """Owner and 1-based position of each of sum(counts) items, where owner
    o has counts[o] consecutive items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    return owner, np.arange(len(owner)) - first + 1


def _overlap_entries(mesh: TriMesh, m_side: int):
    """All (cell_id, triangle_id, overlap_area) triples with positive area.

    Cells are linearized first-index-fastest to match the uniform-grid
    vectors.  Each triangle is cut once into every column strip k of its
    bounding box, with x relative to the strip's left line, and each strip
    is cut once along every row line l it reaches, which gives H(k, l), the
    strip's area below line l.  A cell's overlap is the difference of H at
    its lower and upper lines.  Every area is that of a polygon one cell
    wide, so its rounding error stays near an ulp of h^2 times the
    triangle's span in cells, and the rows a strip does not reach are never
    cut.  Strips are cut about _CHUNK cells of their bounding boxes at a
    time, which bounds the scratch arrays whatever the mesh size.
    """
    if not isinstance(m_side, (int, np.integer)) or m_side < 1:
        raise ValueError(f"m_side must be a positive integer, got {m_side!r}")
    h = 1.0 / m_side
    corners = mesh.vertices[mesh.triangles]  # (F, 3, 2)
    # A triangle sticking out of the grid gets at most one column or row of
    # cells beyond it on each side; those are dropped, so its area outside
    # is missing from its row sum and _to_quasi reports it.
    lo = np.clip(np.floor(corners.min(axis=1) * m_side), -1, m_side).astype(np.int64)
    hi = np.clip(np.ceil(corners.max(axis=1) * m_side), 0, m_side + 1).astype(np.int64)
    span = hi - lo  # (F, 2) cells per axis
    # closed triangles (4, F), relative to each box's lower-left corner
    x = (corners[:, [0, 1, 2, 0], 0] - lo[:, :1] * h).T
    y = (corners[:, [0, 1, 2, 0], 1] - lo[:, 1:] * h).T
    # one strip per (triangle, column k = 1 .. span)
    tri, k = _ragged(span[:, 0])
    rows = span[tri, 1]
    ends = np.cumsum(rows)
    bounds = np.unique(np.r_[
        0, np.searchsorted(ends, np.arange(_CHUNK, ends[-1], _CHUNK)), len(tri)
    ])
    cells, tris, areas = [], [], []
    for a, b in zip(bounds[:-1], bounds[1:]):
        p = np.arange(a, b)
        xa, ya, xb, yb = _strip_edges(x[:, tri[p]] - (k[p] - 1) * h, y[:, tri[p]], h)
        # the row lines first + 1 .. last the strip reaches: below them its
        # area is 0, above them all of it
        low = np.minimum(ya, yb).min(axis=0)
        first = np.clip(np.floor(low / h), 0, rows[p] - 1).astype(np.int64)
        top = np.maximum(ya, yb).max(axis=0)
        last = np.clip(np.ceil(top / h), first + 1, rows[p]).astype(np.int64)
        strip, pos = _ragged(last - first)
        l = first[strip] + pos
        g = _area_below(xa[:, strip], ya[:, strip], xb[:, strip], yb[:, strip], l * h)
        t, kk = tri[p][strip], k[p][strip]
        # differences along l within a strip, from 0 below its first line
        g[1:] -= np.where(pos[1:] > 1, g[:-1], 0.0)
        i = lo[t, 0] + kk - 1
        j = lo[t, 1] + l - 1
        keep = (g > 1e-13 * h * h) & (np.minimum(i, j) >= 0) & (np.maximum(i, j) < m_side)
        cells.append((i + j * m_side)[keep])
        tris.append(t[keep])
        areas.append(g[keep])
    return np.concatenate(cells), np.concatenate(tris), np.concatenate(areas)


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
