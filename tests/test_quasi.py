import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp

from htlr import (
    AdmissibilityRule,
    BuildConfig,
    CoefficientFn,
    TriMesh,
    apply_pipeline,
    build_pipeline,
    custom,
    gaussian,
    load_mesh,
    overlap_area,
    quasi_row_evaluator,
    quasi_to_uniform,
    save_mesh,
    structured_trimesh,
    uniform_to_quasi,
)
from htlr import quasi
from htlr.grids import _leaf_side
from htlr.quasi import _overlap_entries, valid_uniform_side
from oracle_utils import monte_carlo_overlap


def perturbed_mesh(k, amplitude=0.25, seed=0):
    """Structured mesh with interior vertices jiggled; still covers [0,1]^2."""
    mesh = structured_trimesh(k)
    rng = np.random.default_rng(seed)
    verts = mesh.vertices.copy()
    interior = np.all((verts > 1e-12) & (verts < 1 - 1e-12), axis=1)
    verts[interior] += (rng.random((interior.sum(), 2)) - 0.5) * (
        2 * amplitude / k
    )
    return TriMesh(vertices=verts, triangles=mesh.triangles)


def clip_poly(subject, clipper):
    """Reference clipper: `subject` clipped against each side of the convex,
    counterclockwise polygon `clipper`, in plain Python."""
    out = [tuple(p) for p in subject]
    m = len(clipper)
    for i in range(m):
        a = clipper[i]
        b = clipper[(i + 1) % m]
        if not out:
            return []
        prev = out[-1]
        new = []

        def inside(p):
            return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (
                p[0] - a[0]
            ) >= 0

        for cur in out:
            if inside(cur) != inside(prev):
                t = (
                    (a[0] - prev[0]) * (b[1] - a[1])
                    - (a[1] - prev[1]) * (b[0] - a[0])
                ) / (
                    (cur[0] - prev[0]) * (b[1] - a[1])
                    - (cur[1] - prev[1]) * (b[0] - a[0])
                )
                new.append(
                    (
                        prev[0] + t * (cur[0] - prev[0]),
                        prev[1] + t * (cur[1] - prev[1]),
                    )
                )
            if inside(cur):
                new.append(cur)
            prev = cur
        out = new
    return out


def area(poly):
    """Shoelace area of a polygon given as a list of points."""
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for i in range(len(poly)):
        x0, y0 = poly[i - 1]
        x1, y1 = poly[i]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2


def mixed_span_mesh():
    """The coarse triangles of structured_trimesh(2) on the left half of the
    square and those of structured_trimesh(64) on the right: not conforming
    along x = 1/2, but covering the square."""
    coarse, fine = structured_trimesh(2), structured_trimesh(64)
    left = coarse.vertices[coarse.triangles][:, :, 0].max(axis=1) <= 0.5
    right = fine.vertices[fine.triangles][:, :, 0].min(axis=1) >= 0.5
    return TriMesh(vertices=np.vstack([coarse.vertices, fine.vertices]),
                   triangles=np.vstack([coarse.triangles[left],
                                        fine.triangles[right] + len(coarse.vertices)]))


def assert_matches_independent_clipper(mesh, m_side):
    """Every entry of quasi_to_uniform equals clip_poly's overlap of its
    cell and triangle, no entry is a rounding-size remnant (its overlap
    exceeds half the 1e-13 h^2 keep threshold), and each triangle's entries
    add up to its area, so no overlap is missing from the pattern.  The
    reference works relative to the cell's lower-left corner, so that its
    shoelace sums terms of the cell's size, not of the square's."""
    h = 1.0 / m_side
    s_mat = quasi_to_uniform(mesh, m_side).matrix.tocoo()
    clipped = np.zeros(mesh.num_triangles)
    for cell, t, s_val in zip(s_mat.row, s_mat.col, s_mat.data):
        i, j = cell % m_side, cell // m_side
        x0, y0, x1, y1 = i * h, j * h, (i + 1) * h, (j + 1) * h
        rect = [(0.0, 0.0), (x1 - x0, 0.0), (x1 - x0, y1 - y0), (0.0, y1 - y0)]
        tri = mesh.corners(t) - (x0, y0)
        u, v = tri[1] - tri[0], tri[2] - tri[0]
        ccw = tri if u[0] * v[1] - u[1] * v[0] > 0 else tri[::-1]
        expected = area(clip_poly(rect, [tuple(p) for p in ccw]))
        assert abs(s_val * h * h - expected) <= 1e-12 * h * h
        assert expected > 0.5e-13 * h * h
        clipped[t] += expected
    assert np.abs(clipped - mesh.areas).max() <= 1e-12


class TestTriMesh:
    def test_two_triangle_square(self, tmp_path):
        path = tmp_path / "square.mesh"
        path.write_text("4 2\n0 0\n1 0\n1 1\n0 1\n1 2 4\n2 3 4\n")
        mesh = load_mesh(path)
        assert np.allclose(sorted(mesh.areas), [0.5, 0.5])
        cents = mesh.centroids[np.argsort(mesh.centroids[:, 0])]
        assert np.allclose(cents[0], [1 / 3, 1 / 3])
        assert np.allclose(cents[1], [2 / 3, 2 / 3])

    def test_structured_counts(self):
        for k in (1, 3, 8):
            mesh = structured_trimesh(k)
            assert mesh.num_triangles == 2 * k * k
            assert len(mesh.vertices) == (k + 1) ** 2
            assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [True, 2.0, 2.5])
    def test_structured_side_not_integer_rejected(self, k):
        # True built a 1x1 mesh; 2.0 raised a bare TypeError
        with pytest.raises(ValueError, match="cells_per_side must be an integer"):
            structured_trimesh(k)

    def test_k1_matches_two_triangle_example(self):
        mesh = structured_trimesh(1)
        cents = mesh.centroids[np.argsort(mesh.centroids[:, 0])]
        assert np.allclose(cents, [[1 / 3, 1 / 3], [2 / 3, 2 / 3]])

    def test_malformed_index_rejected(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n1 2 5\n")
        with pytest.raises(ValueError):
            load_mesh(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.mesh"
        path.write_text("4 2\n0 0\n1 0\n")
        with pytest.raises(ValueError):
            load_mesh(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "header.mesh"
        path.write_text("4\n")
        with pytest.raises(ValueError, match="mesh file too short"):
            load_mesh(path)

    @pytest.mark.parametrize("k", [0, -2])
    def test_structured_side_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="cells_per_side must be >= 1"):
            structured_trimesh(k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        mesh = structured_trimesh(2)
        verts = mesh.vertices.copy()
        verts[4, 0] = bad  # the centre vertex
        with pytest.raises(ValueError, match="finite"):
            TriMesh(vertices=verts, triangles=mesh.triangles)

    @pytest.mark.parametrize("token", ["nan", "1e999"])
    def test_non_finite_file_rejected(self, tmp_path, token):
        path = tmp_path / "nan.mesh"
        path.write_text(f"4 2\n0 0\n1 0\n1 1\n0 {token}\n1 2 4\n2 3 4\n")
        with pytest.raises(ValueError, match="finite"):
            load_mesh(path)

    # 2 V + 3 F = 3 values follow each header, so only the sign can reject it
    @pytest.mark.parametrize("header", ["-3 3", "3 -1"])
    def test_negative_header_count_rejected(self, tmp_path, header):
        path = tmp_path / "negative.mesh"
        path.write_text(f"{header}\n1 2 3\n")
        with pytest.raises(ValueError, match="counts must be non-negative"):
            load_mesh(path)

    def test_overflowing_index_rejected(self, tmp_path):
        path = tmp_path / "huge.mesh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n1 2 99999999999999999999\n")
        with pytest.raises(ValueError, match="malformed mesh file"):
            load_mesh(path)

    @pytest.mark.parametrize("part", ["triangles", "vertices"])
    def test_wrong_array_shape_rejected(self, part):
        # neither fails a later check: a duplicated 4th triangle column still
        # covers the square, and a 3rd vertex column gives 3-column centroids
        mesh = structured_trimesh(4)
        verts, tris = mesh.vertices, mesh.triangles
        if part == "triangles":
            tris = np.column_stack([tris, tris[:, 0]])
        else:
            verts = np.column_stack([verts, np.zeros(len(verts))])
        with pytest.raises(ValueError, match=r"\(V, 2\) vertices"):
            TriMesh(vertices=verts, triangles=tris)

    def test_non_integer_index_rejected(self):
        mesh = structured_trimesh(2)
        tris = mesh.triangles.astype(float)
        tris[0, 0] = 0.7  # would truncate to vertex 0
        with pytest.raises(ValueError, match="must be integers"):
            TriMesh(vertices=mesh.vertices, triangles=tris)

    def test_coverage_deficit_rejected(self):
        verts = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        with pytest.raises(ValueError):
            TriMesh(vertices=verts, triangles=np.array([[0, 1, 2]]))

    def test_zero_area_triangle_rejected(self):
        verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        tris = np.array([[0, 1, 2], [0, 2, 3], [0, 1, 1]])  # last is degenerate
        with pytest.raises(ValueError, match="zero-area"):
            TriMesh(vertices=verts, triangles=tris)

    def test_roundtrip_through_file(self, tmp_path):
        mesh = perturbed_mesh(4, seed=3)
        path = tmp_path / "rt.mesh"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)


class TestOverlapArea:
    def test_triangle_inside_cell(self):
        tri = [(0.2, 0.2), (0.4, 0.2), (0.2, 0.4)]
        assert overlap_area(tri, (0.0, 0.0, 1.0, 1.0)) == pytest.approx(0.02)

    def test_disjoint(self):
        tri = [(2.0, 2.0), (3.0, 2.0), (2.0, 3.0)]
        assert overlap_area(tri, (0.0, 0.0, 1.0, 1.0)) == 0.0

    def test_half_covering_right_triangle(self):
        tri = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        assert overlap_area(tri, (0.0, 0.0, 1.0, 1.0)) == pytest.approx(0.5)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(46)
        for seed in range(3):
            tri = rng.random((3, 2)) * 1.5 - 0.25
            if overlap_area(tri, (-1, -1, 2, 2)) < 0.02:  # degenerate triangle
                continue
            cell = (0.1, 0.2, 0.8, 0.9)
            exact = overlap_area(tri, cell)
            mc = monte_carlo_overlap(tri, cell, samples=10**6, seed=seed)
            assert abs(exact - mc) <= 2e-3

    @pytest.mark.parametrize(
        "tri, cell",
        [
            ([(0.0, 0.0), (1.0, 0.0)], (0.0, 0.0, 1.0, 1.0)),  # two points
            ([(0.0, 0.0), (1.0, 0.0), (np.nan, 1.0)], (0.0, 0.0, 1.0, 1.0)),
            ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], (0.0, 0.0, np.inf, 1.0)),
            ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], (1.0, 0.0, 0.0, 1.0)),
            ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], (0.0, 0.5, 1.0, 0.5)),
            ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], (0.0, 0.0, 1.0)),
        ],
        ids=["two-point-triangle", "nan-vertex", "infinite-cell",
             "inverted-cell", "flat-cell", "three-number-cell"],
    )
    def test_malformed_input_rejected(self, tri, cell):
        with pytest.raises(ValueError, match="overlap_area"):
            overlap_area(tri, cell)

    def test_matches_independent_clipper_on_random_pairs(self):
        # triangles partly outside, inside or around the cell, of any
        # orientation
        rng = np.random.default_rng(49)
        for _ in range(200):
            tri = rng.random((3, 2)) * 1.4 - 0.2
            x0, y0 = rng.random(2) * 0.8
            w, h = rng.random(2) * 0.5 + 1e-3
            rect = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
            expected = area(clip_poly([tuple(p) for p in tri], rect))
            got = overlap_area(tri, (x0, y0, x0 + w, y0 + h))
            assert abs(got - expected) <= 1e-15

    def test_never_negative(self):
        # a strip that misses the cell has equal areas below both lines up
        # to rounding, which must not come out as a negative overlap
        rng = np.random.default_rng(123)
        for _ in range(2000):
            tri = rng.random((3, 2)) * 1.4 - 0.2
            x0, y0 = rng.random(2) * 0.8
            w, h = rng.random(2) * 0.5 + 1e-3
            assert overlap_area(tri, (x0, y0, x0 + w, y0 + h)) >= 0.0

    def test_clip_order_symmetry(self):
        # clipping the rectangle against the triangle's half-planes gives the
        # same area as clipping the triangle against the rectangle
        def cross2(a, b):
            return a[0] * b[1] - a[1] * b[0]

        rng = np.random.default_rng(47)
        for _ in range(10):
            tri = rng.random((3, 2))
            signed = cross2(tri[1] - tri[0], tri[2] - tri[0])
            if 0.5 * abs(signed) < 1e-3:
                continue
            x0, y0 = rng.random(2) * 0.5
            cell = (x0, y0, x0 + 0.4, y0 + 0.4)
            rect = [(x0, y0), (cell[2], y0), (cell[2], cell[3]), (x0, cell[3])]
            direct = overlap_area(tri, cell)
            # orient the triangle counterclockwise for the half-plane test
            t = tri if signed > 0 else tri[::-1]
            swapped = area(clip_poly(rect, [tuple(p) for p in t]))
            assert abs(direct - swapped) <= 1e-12


class TestTransferMatrices:
    def test_aligned_mesh_two_entries_per_cell_row(self):
        mesh = structured_trimesh(8)
        s_mat = quasi_to_uniform(mesh, 8)
        per_row = np.diff(s_mat.matrix.indptr)
        assert np.all(per_row == 2)
        assert np.allclose(s_mat.matrix.data, 0.5, atol=1e-12)

    def test_aligned_mesh_single_entry_per_triangle_row(self):
        mesh = structured_trimesh(8)
        t_mat = uniform_to_quasi(mesh, 8)
        per_row = np.diff(t_mat.matrix.indptr)
        assert np.all(per_row == 1)
        assert np.allclose(t_mat.matrix.data, 1.0, atol=1e-12)

    def test_constants_preserved(self):
        mesh = structured_trimesh(16)
        s_mat = quasi_to_uniform(mesh, 24)
        t_mat = uniform_to_quasi(mesh, 24)
        ones_quasi = np.ones(mesh.num_triangles)
        assert np.abs(s_mat.apply(ones_quasi) - 1.0).max() <= 1e-10
        assert np.abs(t_mat.apply(np.ones(24 * 24)) - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_stochastic_on_perturbed_meshes(self, seed):
        mesh = perturbed_mesh(16, seed=seed)
        s_mat = quasi_to_uniform(mesh, 24)
        t_mat = uniform_to_quasi(mesh, 24)
        assert np.abs(s_mat.row_sums() - 1.0).max() <= 1e-10
        assert np.abs(t_mat.row_sums() - 1.0).max() <= 1e-10

    def test_area_pairing_identity(self):
        mesh = perturbed_mesh(12, seed=2)
        m_side = 16
        s_mat = quasi_to_uniform(mesh, m_side).matrix.tocoo()
        t_mat = uniform_to_quasi(mesh, m_side).matrix.tocsr()
        cell_area = 1.0 / m_side**2
        for t, i, s_val in zip(s_mat.row, s_mat.col, s_mat.data):
            t_val = t_mat[i, t]
            assert abs(t_val * mesh.areas[i] - s_val * cell_area) <= 1e-12

    def test_coarse_mesh_on_fine_grid_matches_independent_clipper(self):
        # each triangle covers many cells and the bounding boxes differ in
        # size, so every side of a cell clips some triangle
        assert_matches_independent_clipper(perturbed_mesh(4, seed=7), 40)

    # rho ~ 48 and 100: each triangle spans ~50 and ~100 cells per axis, so
    # its area is thousands of cells, far above the 1e-13 h^2 threshold's
    # reach if the overlaps were differences of areas that large
    @pytest.mark.parametrize("k, m_side", [(2, 97), (1, 100)], ids=["rho48", "rho100"])
    def test_large_ratios_match_independent_clipper(self, k, m_side):
        assert_matches_independent_clipper(perturbed_mesh(k), m_side)

    def test_mixed_spans_match_independent_clipper(self):
        # on a grid of side 60 the boxes span 1 to 30 cells per axis, so the
        # batches of _overlap_entries pad boxes of very different sizes
        mesh = mixed_span_mesh()
        corners = mesh.vertices[mesh.triangles] * 60
        span = np.ceil(corners.max(axis=1)) - np.floor(corners.min(axis=1))
        assert span.min() == 1 and span.max() == 30
        assert_matches_independent_clipper(mesh, 60)

    def test_mixed_spans_scratch_is_bounded(self):
        # measured 4.4 MB; padding all 4,100 triangles to the coarse ones'
        # 30 columns x 31 row lines x 3 edges takes 87 MB per scratch array
        mesh = mixed_span_mesh()
        tracemalloc.start()
        try:
            _overlap_entries(mesh, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("size", [2**31 - 1, 2**31])
    def test_triples_in_the_index_dtype_scipy_takes(self, size):
        # a matrix with no entries takes its index dtype from its shape alone
        empty = np.zeros(0, dtype=np.int64)
        coo = sp.coo_matrix((np.zeros(0), (empty, empty)), shape=(1, size))
        assert quasi._index_dtype(size) == coo.row.dtype == coo.col.dtype

    @pytest.mark.parametrize("m_side", [32, 64, 78])
    def test_pipeline_ratios_match_independent_clipper(self, m_side):
        # rho ~ 1, 2 and 2.4; at rho 1 many triangles span one cell on an
        # axis, and on every grid some triangles touch the square's sides
        mesh = perturbed_mesh(32)
        if m_side == 32:
            c = mesh.vertices[mesh.triangles]
            span = np.ceil(c.max(axis=1) * 32) - np.floor(c.min(axis=1) * 32)
            assert (span == 1).any()
        assert_matches_independent_clipper(mesh, m_side)

    @pytest.mark.parametrize("mesh", [structured_trimesh(8), perturbed_mesh(8)],
                             ids=["aligned", "perturbed"])
    @pytest.mark.parametrize("m_side", [8, 16, 24])
    def test_edges_on_grid_lines_divide_by_nothing(self, mesh, m_side):
        # the aligned mesh has every edge on a grid line or diagonal, and the
        # perturbed one keeps its boundary edges on the square's sides
        with np.errstate(divide="raise", invalid="raise"):
            s_mat = quasi_to_uniform(mesh, m_side)
            t_mat = uniform_to_quasi(mesh, m_side)
        assert np.abs(s_mat.row_sums() - 1.0).max() <= 1e-12
        assert np.abs(t_mat.row_sums() - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("m_side", [0, -3, 2.5, True])
    @pytest.mark.parametrize("build", [quasi_to_uniform, uniform_to_quasi])
    def test_side_not_positive_integer_rejected(self, build, m_side):
        with pytest.raises(ValueError, match="m_side"):
            build(structured_trimesh(4), m_side)

    @pytest.mark.parametrize("shift", [(-0.01, 0.0), (0.0, -0.01), (0.0, 0.01)])
    def test_mesh_sticking_out_on_any_side_rejected(self, shift):
        mesh = structured_trimesh(8)
        shifted = TriMesh(vertices=mesh.vertices + shift, triangles=mesh.triangles)
        with pytest.raises(ValueError, match="not fully covered"):
            quasi_to_uniform(shifted, 16)
        with pytest.raises(ValueError, match="stick out"):
            uniform_to_quasi(shifted, 16)

    def test_shifted_mesh_coverage_errors(self):
        mesh = structured_trimesh(8)
        shifted = TriMesh(vertices=mesh.vertices + [0.01, 0.0],
                          triangles=mesh.triangles)
        with pytest.raises(ValueError, match="not fully covered"):
            quasi_to_uniform(shifted, 16)
        with pytest.raises(ValueError, match="stick out"):
            uniform_to_quasi(shifted, 16)


class TestTransferInput:
    """A transfer keeps matvec's input contract: complex or non-finite input
    and a wrong length are errors, the length error naming the size."""

    @pytest.fixture(params=["S", "T"])
    def transfer(self, request):
        build = quasi_to_uniform if request.param == "S" else uniform_to_quasi
        return build(structured_trimesh(8), 16)

    def test_complex_input_rejected(self, transfer):
        with pytest.raises(ValueError, match="complex"):
            transfer.apply(np.full(transfer.cols, 1.0 + 2.0j))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, transfer, bad):
        v = np.ones(transfer.cols)
        v[5] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            transfer.apply(v)

    def test_wrong_length_names_the_expected_size(self, transfer):
        assert transfer.cols in (128, 256)
        with pytest.raises(ValueError, match=f"length {transfer.cols}, got 7"):
            transfer.apply(np.zeros(7))

    def test_list_input_applied(self, transfer):
        v = np.random.default_rng(4).random(transfer.cols)
        assert np.array_equal(transfer.apply(list(v)), transfer.matrix @ v)


def identity_cfg() -> BuildConfig:
    """A build whose operator is the identity: a zero kernel, a(x) = 1."""
    zero = custom(lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]))
    return BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                       kernel=zero, coeff=CoefficientFn.constant(1.0))


def owned_bytes(root) -> int:
    """Bytes of the distinct buffers reachable from `root` through
    attributes, dicts and sequences, each view counted as the array that
    owns its memory: what a resident-memory count sums."""
    seen, owners, stack = set(), {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return sum(a.nbytes for a in owners.values())


class TestPipeline:
    def test_transfers_match_public_builders(self):
        mesh = perturbed_mesh(16, seed=1)
        zero = custom(lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]))
        cfg = BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                          kernel=zero, coeff=CoefficientFn.constant(1.0))
        pipe = build_pipeline(mesh, cfg, rho=1.5)
        for got, want in (
            (pipe.to_uniform.matrix, quasi_to_uniform(mesh, pipe.m_side).matrix),
            (pipe.to_quasi.matrix, uniform_to_quasi(mesh, pipe.m_side).matrix),
        ):
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    def test_transfers_hold_one_overlap_matrix(self):
        mesh = perturbed_mesh(16, seed=1)
        pipe = build_pipeline(mesh, identity_cfg(), rho=1.5)
        s_over, t_over = pipe.to_uniform.overlaps, pipe.to_quasi.overlaps
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(s_over, name), getattr(t_over, name))
        # the overlaps count once in the walk, beside the triangle areas
        held = s_over.data.nbytes + s_over.indices.nbytes + s_over.indptr.nbytes
        held += mesh.areas.nbytes
        assert owned_bytes([pipe.to_uniform, pipe.to_quasi]) == held
        assert owned_bytes(pipe) == owned_bytes(pipe.op) + held

    def test_applied_transfers_match_public_builders(self):
        # m = 48: m^2 is no power of two, so S's scale rounds; every output
        # is within a few ulps of the builders' matrix products (measured 4)
        mesh = perturbed_mesh(32, seed=3)
        pipe = build_pipeline(mesh, identity_cfg(), rho=1.5)
        assert pipe.m_side == 48
        rng = np.random.default_rng(5)
        for transfer, mat in ((pipe.to_uniform, quasi_to_uniform(mesh, 48).matrix),
                              (pipe.to_quasi, uniform_to_quasi(mesh, 48).matrix)):
            x = rng.standard_normal(transfer.cols)
            scale = abs(mat) @ np.abs(x)
            assert np.all(np.abs(transfer.apply(x) - mat @ x) <= 8 * np.spacing(scale))

    def test_shifted_mesh_raises_both_coverage_errors(self):
        mesh = structured_trimesh(8)
        shifted = TriMesh(vertices=mesh.vertices + [0.01, 0.0], triangles=mesh.triangles)
        with pytest.raises(ValueError, match="cells are not fully covered.*triangles stick out"):
            build_pipeline(shifted, identity_cfg(), rho=1.5)

    @pytest.mark.parametrize("rho", [0.0, -2.0, np.nan])
    def test_non_positive_or_nan_rho_rejected(self, rho):
        cfg = BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(1.0), coeff=CoefficientFn.constant(1.0))
        with pytest.raises(ValueError, match="rho"):
            build_pipeline(structured_trimesh(4), cfg, rho)

    def test_constant_preserved_by_identity_operator(self):
        mesh = structured_trimesh(16)
        zero = custom(lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]))
        cfg = BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                          kernel=zero, coeff=CoefficientFn.constant(1.0))
        pipe = build_pipeline(mesh, cfg, rho=1.5)
        out = apply_pipeline(pipe, np.full(mesh.num_triangles, 3.0))
        assert np.abs(out - 3.0).max() <= 1e-10

    def test_oversampling_improves_accuracy(self):
        mesh = structured_trimesh(32)
        cfg = BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        pts = mesh.centroids
        u = 1 + 0.5 * np.exp(-((pts[:, 0] - 0.3) ** 2) - (pts[:, 1] - 0.6) ** 2)
        rows_fn = quasi_row_evaluator(cfg.kernel, cfg.coeff, mesh,
                                      cfg.quadrature)
        rows = np.arange(mesh.num_triangles)
        exact = rows_fn(rows, u)
        errs = []
        for rho in (1.5, 3.0):
            pipe = build_pipeline(mesh, cfg, rho)
            out = apply_pipeline(pipe, u)
            errs.append(np.linalg.norm(out - exact) / np.linalg.norm(exact))
        assert errs[1] < errs[0]
        assert errs[0] <= 1e-1

    def test_constant_input_error_is_transfer_limited(self):
        # S and T are exact on constants, but the middle stage produces a
        # non-constant field whose transfer back to centroids carries the
        # O(h^2)-level overlap-averaging error; constant input is therefore
        # accurate but not at the compression tolerance
        mesh = structured_trimesh(32)
        cfg = BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        u = np.ones(mesh.num_triangles)
        rows_fn = quasi_row_evaluator(cfg.kernel, cfg.coeff, mesh,
                                      cfg.quadrature)
        exact = rows_fn(np.arange(mesh.num_triangles), u)
        pipe = build_pipeline(mesh, cfg, rho=2.0)
        out = apply_pipeline(pipe, u)
        err = np.linalg.norm(out - exact) / np.linalg.norm(exact)
        assert err <= 1e-2

    def test_rho_one_error_dominated_by_interpolation(self):
        from htlr import UniformGrid, construct, dense_assemble, matvec

        mesh = structured_trimesh(32)
        cfg = BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        pipe = build_pipeline(mesh, cfg, rho=1.0)
        assert pipe.m_side == 32
        u = 1 + mesh.centroids[:, 0]
        rows_fn = quasi_row_evaluator(cfg.kernel, cfg.coeff, mesh,
                                      cfg.quadrature)
        exact = rows_fn(np.arange(mesh.num_triangles), u)
        out = apply_pipeline(pipe, u)
        pipeline_err = np.linalg.norm(out - exact) / np.linalg.norm(exact)

        grid = UniformGrid(2, 32)
        op = construct(cfg, grid)
        rng = np.random.default_rng(48)
        uu = rng.standard_normal(grid.num_points)
        fe = dense_assemble(cfg.kernel, cfg.coeff, grid, cfg.quadrature).matrix @ uu
        pure_err = np.linalg.norm(matvec(op, uu) - fe) / np.linalg.norm(fe)
        assert pipeline_err > pure_err

    def test_length_mismatch_rejected(self):
        mesh = structured_trimesh(8)
        zero = custom(lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]))
        cfg = BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                          kernel=zero, coeff=CoefficientFn.constant(1.0))
        pipe = build_pipeline(mesh, cfg, rho=1.5)
        with pytest.raises(ValueError):
            apply_pipeline(pipe, np.zeros(7))

    def _identity_pipeline(self):
        mesh = structured_trimesh(8)
        zero = custom(lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]))
        cfg = BuildConfig(rank=4, leaf_side=8, rule=AdmissibilityRule.weak(),
                          kernel=zero, coeff=CoefficientFn.constant(1.0))
        return build_pipeline(mesh, cfg, rho=1.5), mesh.num_triangles

    def test_complex_input_rejected(self):
        pipe, size = self._identity_pipeline()
        with pytest.raises(ValueError, match="complex"):
            apply_pipeline(pipe, np.full(size, 1.0 + 2.0j))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        pipe, size = self._identity_pipeline()
        u = np.ones(size)
        u[5] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            apply_pipeline(pipe, u)

    def test_reported_rho_matches_grid(self):
        mesh = structured_trimesh(64)
        cfg = BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        pipe = build_pipeline(mesh, cfg, rho=2.0)
        assert pipe.m_side == 128
        assert pipe.rho == pytest.approx(np.sqrt(2 * 128**2 / 8192))


class TestValidUniformSide:
    @pytest.mark.parametrize("leaf", [4, 5, 8, 16])
    def test_nearest_buildable_side_larger_on_a_tie(self, leaf):
        def buildable(side):
            try:
                _leaf_side(side, leaf)
            except ValueError:
                return False
            return True

        for target in range(1, 301):
            # a buildable side leaf * 2^k lies in (target / 2, target] when
            # target > leaf, so the nearest is at most 2 * target
            nearest = min((side for side in range(1, 2 * target + 1) if buildable(side)),
                          key=lambda side: (abs(side - target), -side))
            assert valid_uniform_side(target, leaf) == nearest, target

    @pytest.mark.parametrize("target", [0, -3])
    def test_target_below_one_gives_the_smallest_side(self, target):
        assert valid_uniform_side(target, 4) == 1

    def test_pipeline_builds_on_the_nearest_buildable_side(self, monkeypatch):
        # rho 2 on 1,250 triangles targets side 50, which halves to 25, above
        # leaf 16; 49 and 51 are odd, and 48 (leaves of side 12) and 52 (13)
        # are both 2 away, so the larger is taken
        targets = []
        search = quasi.valid_uniform_side

        def recording(target, leaf_side):
            targets.append(target)
            return search(target, leaf_side)

        monkeypatch.setattr(quasi, "valid_uniform_side", recording)
        cfg = BuildConfig(rank=8, leaf_side=16, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        pipe = build_pipeline(structured_trimesh(25), cfg, rho=2.0)
        assert targets == [50]
        assert pipe.m_side == 52
        assert pipe.rho == pytest.approx(np.sqrt(2 * 52**2 / 1250))

    def test_pipeline_rounds_to_the_build_threshold(self):
        # leaf 4 below 2p = 16: the build splits no pair of side 16 or less,
        # so the target 40 builds (it halves to leaves of side 10), where
        # rounding to the configured leaf 4 would give 48
        cfg = BuildConfig(rank=8, leaf_side=4, rule=AdmissibilityRule.weak(),
                          kernel=gaussian(np.sqrt(2.0)),
                          coeff=CoefficientFn.constant(0.0))
        assert build_pipeline(structured_trimesh(20), cfg, rho=2.0).m_side == 40
