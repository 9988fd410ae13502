"""The array-based ``extract_surface`` against the per-face original kept in
``conftest.py``: the same vertices and triangles, bit for bit and in the same
order, because ``sample_surface`` draws by triangle order."""

import numpy as np
import pytest

from brickforge import geometry, reward
from brickforge.bricks import GRID
from brickforge.geometry import PointCloud, VoxelGrid, extract_surface, voxelize_assembly
from brickforge.reward import total_reward

from conftest import extract_surface_reference, grow_random_assembly


def assert_same_mesh(occupancy: np.ndarray):
    grid = VoxelGrid(occupancy)
    mesh = extract_surface(grid)
    expected = extract_surface_reference(grid)
    assert mesh.vertices.dtype == expected.vertices.dtype
    assert mesh.triangles.dtype == expected.triangles.dtype
    assert np.array_equal(mesh.vertices, expected.vertices)
    assert np.array_equal(mesh.triangles, expected.triangles)


def cells(*coords) -> np.ndarray:
    occ = np.zeros((GRID, GRID, GRID), dtype=bool)
    for c in coords:
        occ[c] = True
    return occ


@pytest.mark.parametrize("n_bricks", [1, 20, 80, 150])
def test_random_assemblies(n_bricks):
    for seed in range(4):
        assembly = grow_random_assembly(np.random.default_rng(seed), n_bricks)
        assert_same_mesh(voxelize_assembly(assembly).occupancy)


@pytest.mark.parametrize("density", [0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_random_grids(density):
    rng = np.random.default_rng(int(density * 100))
    for _ in range(2):
        assert_same_mesh(rng.random((GRID, GRID, GRID)) < density)


@pytest.mark.parametrize("coords", [
    ((3, 3, 3), (4, 4, 3)),                      # edge contact
    ((3, 3, 3), (4, 4, 4)),                      # corner contact
    ((3, 3, 3), (4, 4, 3), (3, 4, 4), (4, 3, 4)),  # several pinched edges
])
def test_pinches(coords):
    assert_same_mesh(cells(*coords))


def test_cells_on_every_grid_face():
    last = GRID - 1
    assert_same_mesh(cells((0, 5, 5), (last, 5, 5), (5, 0, 5), (5, last, 5),
                           (5, 5, 0), (5, 5, last), (0, 0, 0), (last, last, last)))


def test_full_and_empty_grids():
    assert_same_mesh(np.ones((GRID, GRID, GRID), dtype=bool))
    assert_same_mesh(np.zeros((GRID, GRID, GRID), dtype=bool))


@pytest.mark.parametrize("turn, coords, message", [
    # the opposite face of a lone cell exists but does not hold the edge
    (geometry._TANGENT_NORMAL ^ 1, ((3, 3, 3),), "lacks the shared corner"),
    # the +x face of the left cell of a pair does not exist
    (np.zeros_like(geometry._TANGENT_NORMAL), ((3, 3, 3), (4, 3, 3)), "no partner face"),
])
def test_edge_pairing_fault_raises(monkeypatch, turn, coords, message):
    # a broken pairing must raise, never weld through a wrapped -1 index
    monkeypatch.setattr(geometry, "_TANGENT_NORMAL", turn)
    with pytest.raises(ValueError, match=message):
        extract_surface(VoxelGrid(cells(*coords)))


def test_total_reward_matches_reference(monkeypatch):
    rng = np.random.default_rng(11)
    target_assembly = grow_random_assembly(rng, 40)
    candidate = grow_random_assembly(rng, 40)
    target = PointCloud(np.argwhere(voxelize_assembly(target_assembly).occupancy) + 0.5)
    fast = total_reward(target, candidate, samples=2048, seed=3)
    monkeypatch.setattr(reward, "extract_surface", extract_surface_reference)
    assert total_reward(target, candidate, samples=2048, seed=3) == fast
