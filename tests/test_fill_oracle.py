"""The numpy hole fill behind ``voxelize_points(solid_fill=True)`` against
``scipy.ndimage.binary_fill_holes``, which it replaced and which stays here
as the oracle: the same array on every grid, whatever its shape."""

import numpy as np
import pytest
from scipy import ndimage

from brickforge.bricks import GRID
from brickforge.geometry import (
    _fill_holes,
    extract_surface,
    sample_surface,
    voxelize_assembly,
    voxelize_points,
)

from conftest import grow_random_assembly


def assert_fills_like_ndimage(occ: np.ndarray):
    before = occ.copy()
    filled = _fill_holes(occ)
    assert np.array_equal(occ, before), "the input grid was modified"
    assert filled.dtype == bool and filled.shape == occ.shape
    assert np.array_equal(filled, ndimage.binary_fill_holes(occ))


def box_shell(lo: int, hi: int, occ: np.ndarray | None = None) -> np.ndarray:
    """The one-cell-thick walls of the cube [lo, hi]^3."""
    occ = np.zeros((GRID,) * 3, dtype=bool) if occ is None else occ
    occ[lo:hi + 1, lo:hi + 1, lo:hi + 1] = True
    occ[lo + 1:hi, lo + 1:hi, lo + 1:hi] = False
    return occ


@pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                                     0.7, 0.8, 0.9, 0.98, 1.0])
def test_random_grids(density):
    rng = np.random.default_rng(int(density * 1000))
    for _ in range(25):
        assert_fills_like_ndimage(rng.random((GRID,) * 3) < density)


def test_full_and_empty_grids():
    assert_fills_like_ndimage(np.zeros((GRID,) * 3, dtype=bool))
    assert_fills_like_ndimage(np.ones((GRID,) * 3, dtype=bool))
    assert _fill_holes(box_shell(0, GRID - 1)).all()


@pytest.mark.parametrize("lo, hi", [(0, GRID - 1), (3, 12), (8, 10), (5, 6)])
def test_closed_shells_fill_solid(lo, hi):
    occ = box_shell(lo, hi)
    assert_fills_like_ndimage(occ)
    assert _fill_holes(occ)[lo:hi + 1, lo:hi + 1, lo:hi + 1].all()


@pytest.mark.parametrize("lo, hi", [(0, GRID - 1), (3, 12), (8, 10)])
@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("side", ["lo", "hi"])
def test_a_pinhole_in_any_wall_keeps_the_shell_hollow(lo, hi, axis, side):
    occ = box_shell(lo, hi)
    hole = [(lo + hi) // 2] * 3
    hole[axis] = lo if side == "lo" else hi
    occ[tuple(hole)] = False
    assert_fills_like_ndimage(occ)
    assert not _fill_holes(occ)[(lo + hi) // 2, (lo + hi) // 2, (lo + hi) // 2]


@pytest.mark.parametrize("outer_hole, inner_hole", [(False, False), (True, False),
                                                    (False, True), (True, True)])
def test_nested_cavities(outer_hole, inner_hole):
    occ = box_shell(2, 17)
    box_shell(6, 13, occ)
    occ[9, 9, 9:11] = True  # a solid core inside the inner cavity
    if outer_hole:
        occ[2, 4, 4] = False
    if inner_hole:
        occ[13, 9, 9] = False
    assert_fills_like_ndimage(occ)
    filled = _fill_holes(occ)
    assert filled[4, 4, 4] == (not outer_hole)
    assert filled[8, 8, 8] == (not (outer_hole and inner_hole))


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("index", [0, GRID - 1])
def test_cells_on_each_grid_face(axis, index):
    rng = np.random.default_rng(7 * axis + index)
    occ = np.zeros((GRID,) * 3, dtype=bool)
    face = [slice(None)] * 3
    face[axis] = index
    occ[tuple(face)] = rng.random((GRID, GRID)) < 0.6
    assert_fills_like_ndimage(occ)
    # the covered face and the four walls around the axis leave the opposite face open
    occ[tuple(face)] = True
    box = box_shell(0, GRID - 1)
    inner = [slice(1, -1)] * 3
    inner[axis] = slice(None)
    box[tuple(inner)] = False  # open the two walls across the axis
    assert_fills_like_ndimage(occ | box)


def serpentine(open_end: bool) -> np.ndarray:
    """A solid grid with a one-cell corridor winding through layer z = 10
    in rows x = 1, 3, ..., 17, entering at the y = 0 face when ``open_end``."""
    occ = np.ones((GRID,) * 3, dtype=bool)
    for row, x in enumerate(range(1, GRID - 1, 2)):
        occ[x, 1:GRID - 1, 10] = False
        if x + 2 < GRID - 1:
            occ[x + 1, GRID - 2 if row % 2 == 0 else 1, 10] = False
    if open_end:
        occ[1, 0, 10] = False
    return occ


@pytest.mark.parametrize("open_end", [True, False])
def test_serpentine_corridor(open_end):
    occ = serpentine(open_end)
    assert (~occ).sum() > 150
    assert_fills_like_ndimage(occ)
    assert _fill_holes(occ).all() == (not open_end)
    for axes in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        assert_fills_like_ndimage(np.transpose(occ, axes).copy())


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 5, 5), (2, 2, 2), (3, 4, 5), (7, 3, 9)])
def test_other_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    for density in (0.0, 0.3, 0.6, 1.0):
        assert_fills_like_ndimage(rng.random(shape) < density)
    if min(shape) >= 3:
        occ = np.ones(shape, dtype=bool)
        occ[1:-1, 1:-1, 1:-1] = False
        assert_fills_like_ndimage(occ)


@pytest.mark.parametrize("n_bricks", [20, 80, 150])
def test_voxelized_surface_samples(n_bricks):
    """The grids ``total_reward`` builds from a target cloud."""
    for seed in range(4):
        assembly = grow_random_assembly(np.random.default_rng(100 + seed), n_bricks)
        mesh = extract_surface(voxelize_assembly(assembly))
        for samples in (512, 8192):
            cloud = sample_surface(mesh, samples, seed)
            hollow = voxelize_points(cloud, solid_fill=False).occupancy
            solid = voxelize_points(cloud, solid_fill=True)
            assert np.array_equal(solid.occupancy, ndimage.binary_fill_holes(hollow))
