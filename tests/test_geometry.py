import re
import warnings

import numpy as np
import pytest

from brickforge.bricks import Brick, BrickAssembly
from brickforge.errors import (
    DegenerateCloudError,
    DegenerateExtentError,
    EmptyCloudError,
    EmptyMeshError,
    MalformedInputError,
    NonFiniteInputError,
)
from brickforge.geometry import (
    PointCloud,
    SurfaceMesh,
    VoxelGrid,
    chamfer,
    extract_surface,
    iou,
    normalize_cloud,
    sample_surface,
    voxelize_assembly,
    voxelize_points,
)

from conftest import (
    assert_watertight,
    chamfer_bruteforce,
    chamfer_reference,
    cloud_to_text_reference,
    enclosed_volume,
    euler_characteristic,
    grow_random_assembly,
)


TETRAHEDRON = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)


def sphere_cloud(n=20000, seed=5):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return PointCloud(v / np.linalg.norm(v, axis=1, keepdims=True))


def box_shell_cloud(n=30000, seed=7):
    """Points densely covering the surface of the unit cube."""
    rng = np.random.default_rng(seed)
    face = rng.integers(0, 6, size=n)
    uv = rng.random((n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    level = (face % 2).astype(float)
    for i in range(n):
        others = [a for a in range(3) if a != axis[i]]
        pts[i, axis[i]] = level[i]
        pts[i, others[0]] = uv[i, 0]
        pts[i, others[1]] = uv[i, 1]
    return PointCloud(pts)


class TestPointCloud:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        points = np.zeros((4, 3))
        points[2, 1] = bad
        with pytest.raises(NonFiniteInputError):
            PointCloud(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_normal_rejected(self, bad):
        normals = np.tile([0.0, 0.0, 1.0], (4, 1))
        normals[3, 0] = bad
        with pytest.raises(NonFiniteInputError):
            PointCloud(np.zeros((4, 3)), normals)

    def test_normal_count_must_match_point_count(self):
        with pytest.raises(ValueError, match="normals must match point count"):
            PointCloud(np.zeros((4, 3)), np.tile([0.0, 0.0, 1.0], (3, 1)))

    def test_nan_line_in_text_rejected(self):
        with pytest.raises(NonFiniteInputError):
            PointCloud.from_text("0 0 0\n1 1 1\nnan 0 0\n")

    @pytest.mark.parametrize("text", [
        "0 0 0\n1 2\n",                 # too few fields
        "0 0 0 1\n",                     # between 3 and 6
        "0 0 0\n1 two 3\n",             # not a number
        "0 0 0 1 0 0\n1 2 3\n",         # normals on some lines only
        "0 0 0 1 1 1\n",                 # a normal that is not unit length
    ])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(MalformedInputError):
            PointCloud.from_text(text)


class TestVoxelizePoints:
    def test_box_shell_solid_fill(self):
        grid = voxelize_points(box_shell_cloud(), solid_fill=True)
        assert int(grid.occupancy.sum()) == 20 ** 3  # closed shell fills to a solid block
        hollow = voxelize_points(box_shell_cloud(), solid_fill=False)
        assert int(hollow.occupancy.sum()) < 20 ** 3

    def test_sphere_volume(self):
        grid = voxelize_points(sphere_cloud(), solid_fill=True)
        expected = 4.0 / 3.0 * np.pi * 10 ** 3
        assert abs(int(grid.occupancy.sum()) - expected) / expected < 0.15

    @pytest.mark.parametrize("points", [
        np.ones((5, 3)),  # all points coincide
        [[0, 0, 0], [1e-310, 0, 0]],  # (GRID - 1) / extent overflows
        [[-1e308, 0, 0], [1e308, 0, 0], [0, 1, 0]],  # the extent itself overflows
    ])
    def test_degenerate_extent(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy warns
            with pytest.raises(DegenerateExtentError):
                voxelize_points(PointCloud(np.array(points, dtype=float)))

    def test_tiny_extent_still_scales(self):
        grid = voxelize_points(PointCloud(np.array([[0, 0, 0], [1e-300, 0, 0]])))
        assert np.argwhere(grid.occupancy).tolist() == [[0, 10, 10], [19, 10, 10]]

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloudError):
            voxelize_points(PointCloud(np.zeros((0, 3))))


class TestVoxelizeAssembly:
    def test_single_brick(self):
        grid = voxelize_assembly(BrickAssembly((Brick(2, 4, 0, 0, 0),)))
        assert int(grid.occupancy.sum()) == 8

    def test_empty(self):
        assert int(voxelize_assembly(BrickAssembly()).occupancy.sum()) == 0

    def test_two_stacked(self):
        a = BrickAssembly((Brick(2, 2, 0, 0, 0), Brick(2, 2, 0, 0, 1)))
        grid = voxelize_assembly(a)
        assert int(grid.occupancy.sum()) == 8
        assert grid.occupancy[:, :, 0].sum() == 4 and grid.occupancy[:, :, 1].sum() == 4

    def test_cell_count_matches_area_sum(self, rng):
        for _ in range(5):
            a = grow_random_assembly(rng, 20)
            assert int(voxelize_assembly(a).occupancy.sum()) == sum(b.h * b.w for b in a.bricks)


@pytest.mark.parametrize("shape", [(20, 20), (20, 20, 19), (21, 20, 20)])
def test_voxel_grid_of_the_wrong_shape_rejected(shape):
    with pytest.raises(ValueError, match=rf"grid must be 20\^3, got {re.escape(str(shape))}"):
        VoxelGrid(np.zeros(shape, bool))


class TestIoU:
    def test_identical(self):
        g = voxelize_assembly(BrickAssembly((Brick(2, 4, 3, 3, 0),)))
        assert iou(g, g) == 1.0

    def test_disjoint(self):
        a = voxelize_assembly(BrickAssembly((Brick(1, 1, 0, 0, 0),)))
        b = voxelize_assembly(BrickAssembly((Brick(1, 1, 5, 5, 5),)))
        assert iou(a, b) == 0.0

    def test_partial_overlap(self):
        occ_a = np.zeros((20, 20, 20), bool)
        occ_b = np.zeros((20, 20, 20), bool)
        occ_a[0, 0, 0] = occ_a[1, 0, 0] = True   # {c1, c2}
        occ_b[1, 0, 0] = occ_b[2, 0, 0] = True   # {c2, c3}
        assert iou(VoxelGrid(occ_a), VoxelGrid(occ_b)) == pytest.approx(1 / 3)

    def test_both_empty(self):
        a, b = (VoxelGrid(np.zeros((20, 20, 20), bool)) for _ in range(2))
        assert iou(a, b) == 0.0

    def test_symmetric(self, rng):
        a = VoxelGrid(rng.random((20, 20, 20)) < 0.3)
        b = VoxelGrid(rng.random((20, 20, 20)) < 0.3)
        assert iou(a, b) == iou(b, a)

    def test_one_iff_identical(self, rng):
        a = VoxelGrid(rng.random((20, 20, 20)) < 0.3)
        flipped = a.occupancy.copy()
        flipped[0, 0, 0] = not flipped[0, 0, 0]
        assert iou(a, VoxelGrid(a.occupancy.copy())) == 1.0
        assert iou(a, VoxelGrid(flipped)) < 1.0


class TestSurfaceExtraction:
    def test_empty_grid(self):
        mesh = extract_surface(VoxelGrid(np.zeros((20, 20, 20), bool)))
        assert mesh.n_triangles() == 0

    def test_single_voxel(self):
        occ = np.zeros((20, 20, 20), bool)
        occ[4, 5, 6] = True
        mesh = extract_surface(VoxelGrid(occ))
        assert_watertight(mesh)
        assert euler_characteristic(mesh) == 2
        assert enclosed_volume(mesh) == pytest.approx(1.0, rel=1e-9)

    def test_2x2x2_block_volume(self):
        occ = np.zeros((20, 20, 20), bool)
        occ[5:7, 5:7, 5:7] = True
        mesh = extract_surface(VoxelGrid(occ))
        assert_watertight(mesh)
        assert euler_characteristic(mesh) == 2
        assert enclosed_volume(mesh) == pytest.approx(8.0, rel=1e-6)

    def test_diagonal_edge_contact_is_manifold(self):
        # two voxels sharing only an edge: the classic pinched configuration
        occ = np.zeros((20, 20, 20), bool)
        occ[3, 3, 3] = True
        occ[4, 4, 3] = True
        mesh = extract_surface(VoxelGrid(occ))
        assert_watertight(mesh)
        assert enclosed_volume(mesh) == pytest.approx(2.0, rel=1e-9)

    def test_corner_contact_is_manifold(self):
        occ = np.zeros((20, 20, 20), bool)
        occ[3, 3, 3] = True
        occ[4, 4, 4] = True
        mesh = extract_surface(VoxelGrid(occ))
        assert_watertight(mesh)

    def test_random_grids_watertight_and_volume_exact(self, rng):
        for density in (0.1, 0.5, 0.9):
            occ = rng.random((20, 20, 20)) < density
            mesh = extract_surface(VoxelGrid(occ))
            assert_watertight(mesh)
            assert enclosed_volume(mesh) == pytest.approx(float(occ.sum()), rel=1e-9)

    def test_no_degenerate_triangles(self, rng):
        occ = rng.random((20, 20, 20)) < 0.4
        mesh = extract_surface(VoxelGrid(occ))
        assert mesh.triangle_areas().min() > 0.0


class TestSurfaceMesh:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SurfaceMesh(np.zeros((3, 3)), [[0, 1, -1]])

    def test_too_large_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SurfaceMesh(np.zeros((3, 3)), [[0, 1, 3]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        vertices = np.zeros((3, 3))
        vertices[1, 2] = bad
        with pytest.raises(NonFiniteInputError):
            SurfaceMesh(vertices, [[0, 1, 2]])

    def test_empty_mesh_accepted(self):
        assert SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)).n_triangles() == 0


class TestSampleSurface:
    def test_single_triangle_barycentric(self):
        mesh = SurfaceMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float),
                           np.array([[0, 1, 2]]))
        cloud = sample_surface(mesh, 3, seed=1)
        assert len(cloud) == 3
        assert np.allclose(cloud.points[:, 2], 0.0)
        assert (cloud.points[:, 0] >= 0).all() and (cloud.points[:, 1] >= 0).all()
        assert (cloud.points[:, 0] + cloud.points[:, 1] <= 1.0 + 1e-12).all()

    def test_area_proportional(self):
        # areas 1 and 3: the larger triangle should get ~3000 of 4000 samples
        mesh = SurfaceMesh(
            np.array([[0, 0, 0], [2, 0, 0], [0, 1, 0],
                      [10, 0, 0], [12, 0, 0], [10, 3, 0]], float),
            np.array([[0, 1, 2], [3, 4, 5]]))
        cloud = sample_surface(mesh, 4000, seed=9)
        big = (cloud.points[:, 0] >= 5).sum()
        assert abs(big - 3000) <= 150

    def test_deterministic(self):
        occ = np.zeros((20, 20, 20), bool)
        occ[4:8, 4:8, 0:2] = True
        mesh = extract_surface(VoxelGrid(occ))
        a = sample_surface(mesh, 500, seed=42)
        b = sample_surface(mesh, 500, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_empty_mesh(self):
        with pytest.raises(EmptyMeshError):
            sample_surface(extract_surface(VoxelGrid(np.zeros((20, 20, 20), bool))), 10, seed=0)

    def test_zero_samples_rejected(self):
        occ = np.zeros((20, 20, 20), bool)
        occ[4, 4, 0] = True
        with pytest.raises(ValueError, match="n must be >= 1"):
            sample_surface(extract_surface(VoxelGrid(occ)), 0, seed=0)


class TestNormalize:
    def test_two_points(self):
        out = normalize_cloud(PointCloud(np.array([[0, 0, 0], [2, 0, 0]], float)))
        assert np.allclose(out.points, [[-1, 0, 0], [1, 0, 0]])

    def test_idempotent(self, rng):
        cloud = PointCloud(rng.normal(size=(100, 3)) * 7 + 3)
        once = normalize_cloud(cloud)
        twice = normalize_cloud(once)
        assert np.abs(twice.points - once.points).max() < 1e-9

    def test_postconditions(self, rng):
        out = normalize_cloud(PointCloud(rng.normal(size=(200, 3)) * 4 - 9))
        assert np.abs(out.points.mean(axis=0)).max() < 1e-9
        assert abs(np.linalg.norm(out.points, axis=1).max() - 1.0) < 1e-9

    def test_degenerate(self):
        with pytest.raises(DegenerateCloudError):
            normalize_cloud(PointCloud(np.ones((4, 3))))

    def test_empty(self):
        with pytest.raises(EmptyCloudError, match="cannot normalize an empty cloud"):
            normalize_cloud(PointCloud(np.zeros((0, 3))))

    @pytest.mark.parametrize("points", [
        [[8e307, 0, 0]] * 3 + [[9e307, 0, 0]],  # the centroid's sum overflows
        TETRAHEDRON * 1e200,  # the squared radius overflows
        [[-1.7e308, 0, 0], [1.7e308, 0, 0], [1.7e308, 0, 0]],  # a centred point overflows
    ])
    def test_overflowing_extent(self, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before numpy warns
            with pytest.raises(DegenerateExtentError, match="coordinates up to"):
                normalize_cloud(PointCloud(np.array(points, dtype=float)))

    def test_large_finite_extent_still_scales(self):
        out = normalize_cloud(PointCloud(TETRAHEDRON * 2.0 ** 500))  # exact scaling
        assert np.array_equal(out.points, normalize_cloud(PointCloud(TETRAHEDRON)).points)

    @pytest.mark.parametrize("extent", [1e-300, 1e-162, 1e-160, 1e-155])  # squares subnormal or 0
    def test_tiny_extent_normalizes_like_its_magnified_copy(self, extent):
        tiny = np.array([[0, 0, 0], [extent, 0, 0], [0, extent, 0], [0, 0, 3 * extent]])
        out = normalize_cloud(PointCloud(tiny)).points
        assert np.abs(out - normalize_cloud(PointCloud(tiny / extent)).points).max() < 1e-12


class TestChamfer:
    def test_identical(self, rng):
        p = PointCloud(rng.normal(size=(50, 3)))
        assert chamfer(p, p) == 0.0

    def test_two_singletons(self):
        p = PointCloud(np.array([[0.0, 0.0, 0.0]]))
        q = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        assert chamfer(p, q) == 2.0

    def test_matches_bruteforce(self, rng):
        for _ in range(10):
            p = PointCloud(rng.normal(size=(200, 3)))
            q = PointCloud(rng.normal(size=(200, 3)))
            assert abs(chamfer(p, q) - chamfer_bruteforce(p, q)) < 1e-9

    def test_symmetric_nonnegative(self, rng):
        p = PointCloud(rng.normal(size=(80, 3)))
        q = PointCloud(rng.normal(size=(60, 3)))
        assert chamfer(p, q) == chamfer(q, p) >= 0.0

    def test_empty(self):
        with pytest.raises(EmptyCloudError):
            chamfer(PointCloud(np.zeros((0, 3))), PointCloud(np.ones((1, 3))))

    def test_equals_the_median_split_reference_exactly(self):
        """Sliding-midpoint trees return the very distances of the default
        trees, on clouds full of ties and flat or collinear spans."""
        rng = np.random.default_rng(28)

        def cloud(kind: int) -> PointCloud:
            n = int(rng.integers(1, 300))
            if kind == 0:  # one point
                return PointCloud(rng.normal(size=(1, 3)))
            if kind == 1:  # a few points, each repeated
                return PointCloud(np.repeat(rng.normal(size=(1 + n // 20, 3)), 20, axis=0))
            if kind == 2:  # coplanar
                return PointCloud(np.column_stack([rng.normal(size=(n, 2)), np.zeros(n)]))
            if kind == 3:  # colinear
                return PointCloud(np.outer(rng.normal(size=n), rng.normal(size=3)))
            if kind == 4:  # quarter steps on the grid, as surface samples nearly are
                return PointCloud(rng.integers(0, 80, size=(n, 3)) / 4.0)
            return PointCloud(rng.normal(size=(n, 3)))

        for _ in range(200):
            p, q = cloud(int(rng.integers(6))), cloud(int(rng.integers(6)))
            assert chamfer(p, q) == chamfer_reference(p, q)


class TestWireFormats:
    def test_cloud_text_roundtrip(self, rng):
        cloud = PointCloud(rng.normal(size=(30, 3)))
        back = PointCloud.from_text(cloud.to_text())
        assert np.array_equal(back.points, cloud.points)

    def test_cloud_text_with_normals(self):
        n = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        cloud = PointCloud(np.array([[0.5, 1.5, -2.0], [3.0, 0.0, 1.0]]), n)
        back = PointCloud.from_text(cloud.to_text())
        assert np.array_equal(back.normals, n)

    def test_cloud_text_equals_the_per_row_reference(self, rng):
        normals = rng.normal(size=(30, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        odd = np.array([[0.1 + 0.2, 1e-300, -0.0], [5e-324, -1e308, 1.7976931348623157e308]])
        odd_normals = np.array([[-0.0, 1.0, 0.0], [0.6, -0.8, -0.0]])
        clouds = [PointCloud(rng.normal(size=(30, 3)) * 10),
                  PointCloud(rng.normal(size=(30, 3)), normals),
                  PointCloud([[1.5, -2.0, 0.25]]), PointCloud([[1.5, -2.0, 0.25]], [[0.0, 0.0, -1.0]]),
                  PointCloud(np.zeros((0, 3))), PointCloud(np.zeros((0, 3)), np.zeros((0, 3))),
                  PointCloud(odd), PointCloud(odd, odd_normals)]
        for cloud in clouds:
            assert cloud.to_text() == cloud_to_text_reference(cloud)
        assert clouds[4].to_text() == clouds[5].to_text() == "\n"
        assert clouds[7].to_text().split("\n")[0] == "0.30000000000000004 1e-300 -0.0 -0.0 1.0 0.0"

    def test_grid_dict_roundtrip(self, rng):
        grid = VoxelGrid(rng.random((20, 20, 20)) < 0.2)
        back = VoxelGrid.from_dict(grid.to_dict())
        assert np.array_equal(back.occupancy, grid.occupancy)
