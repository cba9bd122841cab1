"""Triangle meshes and the quasi-uniform forward-evaluation pipeline.

A vector sampled on triangle centroids is moved to an auxiliary uniform
grid by the area-overlap matrix S, multiplied by the hierarchical operator
there, and moved back by the reverse-overlap matrix T.  Both are one stored
sparse matrix O of triangle-cell overlap areas: S = m^2 O^T is applied as
its transpose and T = diag(1 / area) O as it stands, and both are
row-stochastic whenever the mesh covers the unit square.  Every overlap, in
O and in :func:`overlap_area`, comes from one primitive, _cell_overlaps: a
sum over the triangle's three edges of closed-form integrals of y dx over
each column of cells, with no polygon clipping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .grids import UniformGrid, _check_int
from .operators import BuildConfig, HTLRMatrix, _leaf_threshold, checked_vector, construct, matvec

COVERAGE_TOL = 1e-8
#: padded cells per batch of _overlap_entries; its scratch arrays hold
#: 3 edges x (rows + 1) lines per column of the batch's boxes, near the
#: cache size at this budget whatever the mesh size
_CHUNK = 2**14


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
        if min(nv, nf) < 0:
            raise ValueError(f"mesh header counts must be non-negative, got {nv} {nf}")
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
    _check_int("cells_per_side", k)
    if k < 1:
        raise ValueError("cells_per_side must be >= 1")
    xs = np.arange(k + 1) / k
    # vertex i + j (k + 1) at (xs[i], xs[j]); a is cell (i, j)'s lower left
    verts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    a = (np.arange(k) + (k + 1) * np.arange(k)[:, None]).ravel()
    b, c, d = a + 1, a + k + 2, a + k + 1
    tris = np.stack([a, b, d, b, c, d], axis=1).reshape(-1, 3)
    return TriMesh(vertices=verts, triangles=tris)


def _cell_overlaps(x, y, cols: int, rows: int) -> np.ndarray:
    """Overlap areas (T, rows, cols) of T triangles, corners x, y (3, T) in
    cell units, with the unit cells [c, c + 1] x [j, j + 1].

    An area is the integral of y dx around the boundary, up to sign.  Over
    column c the triangle is bounded by its edges clipped to the column and
    by vertical segments, which add nothing.  A clipped edge has signed
    width w and covers a y-range [a, b] uniformly, so it adds to cell (c, j)
    w (psi(j + 1) - psi(j)), with psi(l) = E[min(Y, l)] for Y uniform on
    [a, b], i.e. min(l, b) - (clip(l, a, b) - a)^2 / (2 (b - a)).  The
    difference is evaluated as clip(a - j, 0, 1) + du (1 - (u(j) + u(j + 1))
    / (2 (b - a))) with u(l) = clip(l, a, b) - a, two terms in [0, 1], so an
    overlap's rounding error stays near an ulp of the cell's area however
    many cells the triangle spans.  A part with b = a adds w clip(a - j, 0, 1),
    with no division.
    """
    x1, y1 = x[[1, 2, 0]], y[[1, 2, 0]]  # edge k runs from corner k to k + 1
    dx = x1 - x
    # an edge with dx = 0 has width 0 over every column, whatever its slope
    slope = (y1 - y) / np.where(dx == 0.0, 1.0, dx)
    column = np.arange(cols, dtype=np.float64)[:, None, None]
    u0, u1 = x - column, x1 - column  # (cols, 3, T)
    xa, xb = u0.clip(0.0, 1.0), u1.clip(0.0, 1.0)
    ya, yb = y + (xa - u0) * slope, y1 + (xb - u1) * slope
    a = np.minimum(ya, yb)
    d = np.maximum(ya, yb) - a
    half_inv = np.divide(0.5, d, out=np.zeros_like(d), where=d > 0.0)
    # (rows + 1, cols, 3, T) on every row line at once, updated in place:
    # the scratch is a few arrays of this size
    lines = np.arange(rows + 1, dtype=np.float64)[:, None, None, None]
    u = lines - a
    np.maximum(u, 0.0, out=u)
    np.minimum(u, d, out=u)
    dpsi = u[1:] + u[:-1]
    dpsi *= half_inv
    np.subtract(1.0, dpsi, out=dpsi)
    du = u[1:] - u[:-1]
    dpsi *= du
    below = np.subtract(a, lines[:-1], out=du)  # clip(a - j, 0, 1)
    np.maximum(below, 0.0, out=below)
    np.minimum(below, 1.0, out=below)
    dpsi += below
    g = np.ascontiguousarray(np.einsum("jcet,cet->tjc", dpsi, xb - xa))
    return np.abs(g, out=g)


def overlap_area(tri, cell) -> float:
    """Area of the intersection of a triangle (3, 2) with an axis-aligned
    rectangle (x0, y0, x1, y1): the unit cell of _cell_overlaps, in units of
    the rectangle's sides relative to (x0, y0)."""
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
    width, height = x1 - x0, y1 - y0
    g = _cell_overlaps((tri[:, :1] - x0) / width, (tri[:, 1:] - y0) / height, 1, 1)
    return float(g[0, 0, 0]) * width * height


@dataclass
class SparseInterpMatrix:
    """A transfer held as the (F, M) CSR matrix O of triangle-cell overlap
    areas, which the two directions share.  With the triangle areas it is
    T = diag(1 / areas) O, from grid values to centroid values; without
    them it is S = m^2 O^T, from centroid values to grid values, applied
    through scipy's CSC view of O's own three arrays.  Neither stores a
    matrix of its own: :attr:`matrix` builds one on request."""

    overlaps: sp.csr_matrix  # O, (F, M)
    areas: np.ndarray | None = None  # (F,), given for T only
    # the sparse factor of the product: O for T, its CSC view O^T for S
    _factor: sp.spmatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._factor = self.overlaps if self.areas is not None else self.overlaps.T

    @property
    def cols(self) -> int:
        return self._factor.shape[1]

    @property
    def matrix(self) -> sp.csr_matrix:
        """The transfer as a CSR matrix of its own, built on each access."""
        o = self.overlaps
        if self.areas is None:
            return (self._factor * o.shape[1]).tocsr()
        return sp.csr_matrix(
            (o.data / np.repeat(self.areas, np.diff(o.indptr)), o.indices, o.indptr),
            shape=o.shape,
        )

    def row_sums(self) -> np.ndarray:
        """The transfer applied to ones: 1 on each row the mesh covers."""
        return self._apply(np.ones(self.cols))

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = checked_vector(v)
        if v.size != self.cols:
            raise ValueError(f"transfer takes a vector of length {self.cols}, got {v.size}")
        return self._apply(v)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """The product with a flat float64 vector of length cols, unchecked."""
        out = self._factor @ v
        if self.areas is None:
            out *= self.overlaps.shape[1]
        else:
            out /= self.areas
        return out


def _overlap_entries(mesh: TriMesh, m_side: int):
    """The (F, M) CSR matrix of every positive overlap area of a triangle
    with a cell, cells linearized first-index-fastest to match the
    uniform-grid vectors.  Each triangle is cut by _cell_overlaps over the
    cells of its bounding box, in cell units relative to the box's
    lower-left corner.  Triangles go in batches sorted by box size, each
    padded to its largest box and holding at most _CHUNK padded cells (or
    one triangle), so the scratch stays bounded however unevenly the
    triangles are sized; their triangles miss the padding cells.
    """
    _check_int("m_side", m_side)
    if m_side < 1:
        raise ValueError(f"m_side must be a positive integer, got {m_side!r}")
    num = mesh.num_triangles
    xy = np.take(mesh.vertices.T, mesh.triangles.T, axis=1) * m_side  # (2, 3, F)
    # A triangle sticking out of the grid gets at most one column or row of
    # cells beyond it on each side; those are dropped, so its area outside
    # is missing from its row sum and _checked reports it.
    lo = np.clip(np.floor(xy.min(axis=1)), -1, m_side).astype(np.int64)  # (2, F)
    span = np.clip(np.ceil(xy.max(axis=1)), 0, m_side + 1).astype(np.int64) - lo
    xy -= lo[:, None]
    order = np.lexsort(span[::-1])  # by columns, then by rows
    # the triples in the index dtype scipy takes, so that it copies none
    index = _index_dtype(max(num, m_side * m_side))
    batches, counts, cells, areas = [], [], [], []
    start = 0
    while start < num:
        # columns never decrease along the order, rows may
        window = order[start : start + _CHUNK]
        cols, rows = span[0, window], np.maximum.accumulate(span[1, window])
        padded = np.arange(1, len(window) + 1) * cols * rows
        size = max(1, int(np.searchsorted(padded, _CHUNK, side="right")))
        tris = window[:size]
        start += size
        g = _cell_overlaps(xy[0][:, tris], xy[1][:, tris],
                           int(cols[size - 1]), int(rows[size - 1]))
        i = lo[0, tris, None] + np.arange(g.shape[2])
        j = lo[1, tris, None] + np.arange(g.shape[1])
        keep = ((g > 1e-13) & ((i >= 0) & (i < m_side))[:, None]
                & ((j >= 0) & (j < m_side))[:, :, None])
        batches.append(tris.astype(index))
        counts.append(np.count_nonzero(keep.reshape(size, -1), axis=1))
        cells.append((i[:, None] + j[:, :, None] * m_side)[keep].astype(index))
        areas.append(g[keep])
    # the entries come triangle block by triangle block in batch order, each
    # block in cell order; the conversion puts the blocks in triangle order
    return sp.csr_matrix(
        (np.concatenate(areas) / (m_side * m_side),
         (np.repeat(np.concatenate(batches), np.concatenate(counts)), np.concatenate(cells))),
        shape=(num, m_side * m_side),
    )


def _index_dtype(size: int) -> np.dtype:
    """The index dtype of a scipy.sparse matrix whose larger side is `size`:
    the smallest signed type that holds -size - 1, at least int32."""
    return np.promote_types(np.min_scalar_type(-size - 1), np.int32)


def _checked(*transfers: SparseInterpMatrix) -> None:
    """Raise one error naming every transfer whose rows do not sum to 1: a T
    row for each triangle sticking out of the grid, an S row for each cell
    the mesh leaves uncovered."""
    faults = []
    for transfer in transfers:
        bad = int(np.count_nonzero(np.abs(transfer.row_sums() - 1.0) > COVERAGE_TOL))
        if bad:
            faults.append(f"{bad} triangles stick out of the uniform grid"
                          if transfer.areas is not None else
                          f"{bad} uniform cells are not fully covered by the mesh")
    if faults:
        raise ValueError("; ".join(faults))


def quasi_to_uniform(mesh: TriMesh, m_side: int) -> SparseInterpMatrix:
    """Transfer S from centroid values to uniform-grid values; entry (t, i)
    is the overlap of cell t with triangle i over the cell area."""
    s_mat = SparseInterpMatrix(_overlap_entries(mesh, m_side))
    _checked(s_mat)
    return s_mat


def uniform_to_quasi(mesh: TriMesh, m_side: int) -> SparseInterpMatrix:
    """Transfer T from uniform-grid values to centroid values; entry (i, t)
    is the overlap of triangle i with cell t over the triangle area."""
    t_mat = SparseInterpMatrix(_overlap_entries(mesh, m_side), mesh.areas)
    _checked(t_mat)
    return t_mat


@dataclass
class QuasiPipeline:
    """The three-stage forward map: to the uniform grid, hierarchical matvec,
    back to the centroids.  The two transfers hold one overlap matrix."""

    to_quasi: SparseInterpMatrix  # (N, M)
    op: HTLRMatrix
    to_uniform: SparseInterpMatrix  # (M, N)
    m_side: int
    rho: float


def valid_uniform_side(target: int, leaf_side: int) -> int:
    """Nearest grid side to `target` that halves evenly down to the leaf
    threshold L, the larger of two at one distance.  Every side up to L is
    buildable, and for j >= 1 the buildable sides in (L 2^(j-1), L 2^j] are
    the multiples of 2^j: the nearest is the multiple below or above the
    target at the smallest j with L 2^j >= target, or L 2^(j-1)."""
    if target <= leaf_side:
        return max(target, 1)
    step = 1 << (-(-target // leaf_side) - 1).bit_length()  # 2^j
    below = max(target - target % step, leaf_side * step // 2)
    above = target - target % -step
    return above if above - target <= target - below else below


def build_pipeline(mesh: TriMesh, cfg: BuildConfig, rho: float) -> QuasiPipeline:
    """Assemble the pipeline for an oversampling ratio rho ~ sqrt(2M/N); the
    uniform side is rounded to the nearest grid that halves evenly down to
    the build's leaf threshold (:func:`htlr.operators._leaf_threshold`) and
    the exact rho is recomputed.  Both transfers hold the one overlap matrix
    of _overlap_entries, and both are checked for coverage."""
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("oversampling ratio rho must be finite and positive")
    n_quasi = mesh.num_triangles
    target = int(round(np.sqrt(rho * rho * n_quasi / 2.0)))
    m_side = valid_uniform_side(max(target, _leaf_threshold(cfg)), _leaf_threshold(cfg))
    grid = UniformGrid(2, m_side)
    op = construct(cfg, grid)
    overlaps = _overlap_entries(mesh, m_side)
    s_mat, t_mat = SparseInterpMatrix(overlaps), SparseInterpMatrix(overlaps, mesh.areas)
    _checked(s_mat, t_mat)
    exact_rho = float(np.sqrt(2.0 * m_side * m_side / n_quasi))
    return QuasiPipeline(
        to_quasi=t_mat, op=op, to_uniform=s_mat, m_side=m_side, rho=exact_rho
    )


def apply_pipeline(pipe: QuasiPipeline, u: np.ndarray) -> np.ndarray:
    u = checked_vector(u)
    if u.size != pipe.to_uniform.cols:
        raise ValueError("vector length does not match the mesh")
    return pipe.to_quasi._apply(matvec(pipe.op, pipe.to_uniform._apply(u)))
