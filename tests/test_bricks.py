import json
import re

import numpy as np
import pytest

from brickforge.bricks import (
    CATALOG_SIZES,
    GRID,
    Brick,
    BrickAssembly,
    attachment_edges,
    is_connected,
    is_free,
    place,
    root_index,
)
from brickforge.errors import (
    CollisionError,
    DisconnectedGraphError,
    MalformedInputError,
    OutOfBoundsError,
    SizeNotInLibraryError,
)
from brickforge.decode import RollbackEvent
from brickforge.stability import EquilibriumProgram, PhysicsParams, assemble_equilibrium_program
from brickforge.tokens import Token
from brickforge.tree import build_spanning_tree

from conftest import (
    CATALOG,
    DEEP_JSON,
    attached,
    grow_random_assembly,
    recursion_message,
    stamp_reference,
)


def test_footprint_unit():
    assert set(Brick(1, 1, 0, 0, 0).cells()) == {(0, 0)}


def test_footprint_2x4():
    cells = set(Brick(2, 4, 3, 5, 2).cells())
    assert cells == {(x, y) for x in (3, 4) for y in (5, 6, 7, 8)}
    assert len(cells) == 8


def test_footprint_boundary():
    # an 8-long footprint along x ending exactly at the workspace edge
    cells = set(Brick(8, 1, 12, 0, 0).cells())
    assert cells == {(x, 0) for x in range(12, 20)}


def test_footprint_size_law(rng):
    for _ in range(200):
        h, w = CATALOG[rng.integers(0, len(CATALOG))]
        b = Brick(h, w, int(rng.integers(0, GRID - h + 1)),
                  int(rng.integers(0, GRID - w + 1)), int(rng.integers(0, GRID)))
        cells = set(b.cells())
        assert len(cells) == h * w
        assert all(0 <= cx < GRID and 0 <= cy < GRID for cx, cy in cells)


def test_brick_validation():
    with pytest.raises(SizeNotInLibraryError):
        Brick(3, 2, 0, 0, 0)
    with pytest.raises(OutOfBoundsError):
        Brick(8, 1, 13, 0, 0)  # x + h = 21
    with pytest.raises(OutOfBoundsError):
        Brick(1, 1, 0, 0, 20)
    with pytest.raises(OutOfBoundsError):
        Brick(1, 1, -1, 0, 0)


@pytest.mark.parametrize("cls, fields, text, larger", [
    (Brick, (2, 4, 0, 0, 0), "Brick(h=2, w=4, x=0, y=0, z=0)", (2, 4, 0, 1, 0)),
    (Token, ("COORD", 5), "COORD(5)", ("COORD", 6)),
])
def test_value_type_acts_as_a_frozen_ordered_dataclass(cls, fields, text, larger):
    a, b, c = cls(*fields), cls(*fields), cls(*larger)
    assert repr(a) == text
    assert a == b and a is not b and not a != b and hash(a) == hash(b) == hash(fields)
    assert a != c and sorted([c, a, b]) == [a, b, c] and a < c and a <= b and c > a and c >= a
    assert a != fields and fields != a and list(fields) != a  # equal only to its own type
    with pytest.raises(TypeError):
        a < fields
    assert [getattr(a, name) for name in cls.__slots__] == list(fields)
    assert not hasattr(a, "__dict__")
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b  # unchanged


def test_brick_fields_go_through_operator_index():
    brick = Brick(*map(np.int64, (2, 4, 1, 2, 3)))
    assert brick == Brick(2, 4, 1, 2, 3)
    assert all(type(getattr(brick, name)) is int for name in "hwxyz")
    assert json.loads(BrickAssembly((brick,)).to_json()) == {
        "bricks": [{"h": 2, "w": 4, "x": 1, "y": 2, "z": 3}]}
    for fields in [(2, 2, 1.0, 0, 0), (2.0, 2, 0, 0, 0), (2, 2, 0, "0", 0), (2, 2, 0, 0, None)]:
        with pytest.raises(MalformedInputError, match="are not all ints"):
            Brick(*fields)
    with pytest.raises(MalformedInputError):
        BrickAssembly((Brick(2, 2, 1.0, 0, 0),))


def test_is_free_matches_the_numpy_slice(rng):
    """Every catalog footprint, so 1 x k and 2 x k in both orientations,
    against ``occupancy[...].any()`` on seeded assemblies."""
    seen = set()
    for n in (5, 40, 120):
        a = grow_random_assembly(rng, n, max_z=4)
        for h, w in CATALOG:
            for _ in range(40):
                x, y = int(rng.integers(0, GRID - h + 1)), int(rng.integers(0, GRID - w + 1))
                z = int(rng.integers(0, 4))
                free = not a.occupancy[x:x + h, y:y + w, z].any()
                assert is_free(a._cells, h, w, x, y, z) is free, (h, w, x, y, z)
                seen.add((h, w, free))
    assert seen == {(h, w, free) for h, w in CATALOG for free in (True, False)}


def test_place_on_empty():
    a = place(BrickAssembly(), Brick(2, 2, 0, 0, 0))
    assert len(a) == 1


def test_place_collision():
    a = BrickAssembly((Brick(2, 2, 0, 0, 0),))
    with pytest.raises(CollisionError) as err:
        place(a, Brick(1, 1, 1, 1, 0))
    assert err.value.cell == (1, 1, 0)


def test_place_vertical_stack_ok():
    a = BrickAssembly((Brick(2, 2, 0, 0, 0),))
    b = place(a, Brick(2, 2, 1, 1, 1))
    assert len(b) == 2


def test_place_then_removal_restores_occupancy(rng):
    a = grow_random_assembly(rng, 10)
    before = a.occupancy.copy()
    extended = None
    for h, w in CATALOG:
        for x in range(GRID - h + 1):
            for y in range(GRID - w + 1):
                if not a.occupancy[x:x + h, y:y + w, 5].any():
                    extended = place(a, Brick(h, w, x, y, 5))
                    break
            if extended is not None:
                break
        if extended is not None:
            break
    removed = BrickAssembly(extended.bricks[:-1])
    assert np.array_equal(removed.occupancy, before)


def occupancy_reference(bricks) -> np.ndarray:
    occ = np.zeros((GRID, GRID, GRID), dtype=bool)
    for brick in bricks:
        stamp_reference(occ, brick)
    return occ


def test_occupancy_matches_the_numpy_stamp(rng):
    for n in (1, 5, 40, 120):
        a = grow_random_assembly(rng, n)
        assert a.occupancy.dtype == bool and a.occupancy.shape == (GRID, GRID, GRID)
        assert np.array_equal(a.occupancy, occupancy_reference(a.bricks))
        assert a.occupancy is a.occupancy  # built once per assembly
        assert not a.occupancy.flags.writeable
        with pytest.raises(ValueError):
            a.occupancy[0, 0, 0] = True


def test_collisions_name_the_cell_of_the_numpy_stamp(rng):
    collisions = multi_cell = 0
    for _ in range(20):
        a = grow_random_assembly(rng, 30, max_z=4)
        before = occupancy_reference(a.bricks)
        for _ in range(50):
            h, w = CATALOG[rng.integers(0, len(CATALOG))]
            brick = Brick(h, w, int(rng.integers(0, GRID - h + 1)),
                          int(rng.integers(0, GRID - w + 1)), int(rng.integers(0, 4)))
            occ = before.copy()
            try:
                stamp_reference(occ, brick)
            except CollisionError as err:
                collisions += 1
                multi_cell += before[brick.x:brick.x + h, brick.y:brick.y + w, brick.z].sum() > 1
                for build in (lambda: place(a, brick), lambda: BrickAssembly(a.bricks + (brick,))):
                    with pytest.raises(CollisionError) as ours:
                        build()
                    assert ours.value.cell == err.cell
            else:
                assert np.array_equal(place(a, brick).occupancy, occ)
        assert np.array_equal(a.occupancy, before)  # failed placements left no mark
    assert collisions > 100 and multi_cell > 50


def test_attachment_graph_stack():
    a = BrickAssembly((Brick(2, 2, 0, 0, 0), Brick(2, 2, 0, 0, 1)))
    assert attachment_edges(a) == {(0, 1)}


def test_attachment_graph_side_by_side():
    a = BrickAssembly((Brick(2, 2, 0, 0, 0), Brick(2, 2, 2, 0, 0)))
    assert attachment_edges(a) == set()


def test_attachment_graph_three_bricks_vs_bruteforce():
    a = BrickAssembly((Brick(4, 2, 0, 0, 0), Brick(1, 1, 0, 0, 1), Brick(1, 1, 3, 1, 1)))
    expected = set()
    for i in range(3):
        for j in range(i + 1, 3):
            bi, bj = a.bricks[i], a.bricks[j]
            if abs(bi.z - bj.z) == 1 and set(bi.cells()) & set(bj.cells()):
                expected.add((i, j))
    assert attachment_edges(a) == expected == {(0, 1), (0, 2)}


def test_attachment_predicate_symmetric(rng):
    a = grow_random_assembly(rng, 20)
    for i in range(len(a.bricks)):
        for j in range(len(a.bricks)):
            if i != j:
                assert attached(a.bricks[i], a.bricks[j]) == attached(a.bricks[j], a.bricks[i])


def test_is_connected():
    assert is_connected(BrickAssembly())
    assert is_connected(BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(1, 1, 0, 0, 1))))
    assert not is_connected(BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(1, 1, 19, 19, 0))))


def tree_parents(tree) -> dict[int, int]:
    """Each non-root brick's parent in ``tree``, read off its child lists."""
    return {c: p for p, children in tree.children.items() for c in children}


def test_spanning_tree_single_brick():
    tree = build_spanning_tree(BrickAssembly((Brick(2, 4, 0, 0, 0),)))
    assert tree.root == 0
    assert tree_parents(tree) == {}
    assert tree.bfs_order == [0]


def test_spanning_tree_vertical_chain():
    a = BrickAssembly(tuple(Brick(1, 1, 4, 4, z) for z in range(3)))
    tree = build_spanning_tree(a)
    assert tree.root == 0
    assert tree_parents(tree) == {1: 0, 2: 1}
    assert tree.bfs_order == [0, 1, 2]


def test_spanning_tree_diamond_tie():
    # base spans two 1x1 middles; a top brick touches both middles and is
    # assigned to whichever middle is dequeued first (the f=0 one)
    a = BrickAssembly((
        Brick(4, 1, 0, 0, 0),
        Brick(1, 1, 0, 0, 1),
        Brick(1, 1, 3, 0, 1),
        Brick(4, 1, 0, 0, 2),
    ))
    tree = build_spanning_tree(a)
    assert tree.root == 0
    assert tree.children[0] == [1, 2]  # sorted by f: 0 then 3
    assert tree_parents(tree)[3] == 1
    assert tree.bfs_order == [0, 1, 2, 3]


def test_spanning_tree_deterministic(rng):
    a = grow_random_assembly(rng, 40)
    t1 = build_spanning_tree(a)
    t2 = build_spanning_tree(a)
    assert tree_parents(t1) == tree_parents(t2)
    assert t1.bfs_order == t2.bfs_order


def test_spanning_tree_is_a_record_compared_by_its_fields():
    a = BrickAssembly((Brick(2, 4, 0, 0, 0), Brick(2, 2, 1, 0, 1)))
    tree = build_spanning_tree(a)
    assert tree._fields == ("root", "children", "bfs_order", "codes")
    assert tree == (0, {0: [1], 1: []}, [0, 1], {1: (1, 0)})
    again = build_spanning_tree(a)
    assert again == tree and again is not tree


def test_rollback_event_is_a_record_compared_by_its_fields():
    event = RollbackEvent(body_len_before=9, body_len_after=4, brick=2, cause="lp")
    assert event._fields == ("body_len_before", "body_len_after", "brick", "cause")
    assert event == (9, 4, 2, "lp") and event != RollbackEvent(9, 4, 2, "certificate")
    with pytest.raises(AttributeError):
        event.brick = 3


def test_equilibrium_program_is_a_record_compared_by_its_fields():
    a = BrickAssembly((Brick(2, 4, 0, 0, 0), Brick(2, 2, 1, 0, 1)))
    program = assemble_equilibrium_program(a, PhysicsParams())
    assert program._fields == ("indices", "contacts", "grounds", "c", "A_eq", "b_eq", "A_ub",
                               "b_ub", "bounds")
    assert program == EquilibriumProgram(**program._asdict())
    assert program != program._replace(bounds=program.bounds[:-1])
    with pytest.raises(AttributeError):
        program.c = program.c.copy()


def test_spanning_tree_edges_subset_and_count(rng):
    for _ in range(10):
        a = grow_random_assembly(rng, 25)
        tree = build_spanning_tree(a)
        edges = attachment_edges(a)
        tree_edges = {(min(c, p), max(c, p)) for c, p in tree_parents(tree).items()}
        assert tree_edges <= edges
        assert len(tree_edges) == len(a.bricks) - 1


def test_spanning_tree_disconnected():
    a = BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(1, 1, 19, 19, 0)))
    with pytest.raises(DisconnectedGraphError) as err:
        build_spanning_tree(a)
    assert err.value.components == 2


def test_spanning_tree_disconnected_counts_every_component():
    a = BrickAssembly((Brick(2, 2, 8, 8, 4), Brick(1, 1, 0, 0, 0), Brick(1, 2, 8, 9, 5),
                       Brick(1, 1, 19, 19, 0), Brick(1, 1, 0, 0, 1)))
    with pytest.raises(DisconnectedGraphError) as err:
        build_spanning_tree(a)
    assert err.value.components == 3


def test_root_is_lexicographic_min():
    a = BrickAssembly((Brick(1, 1, 5, 5, 1), Brick(2, 2, 4, 4, 0)))
    assert root_index(a) == 1


def test_assembly_json_roundtrip(rng):
    a = grow_random_assembly(rng, 15)
    assert BrickAssembly.from_json(a.to_json()) == a


@pytest.mark.parametrize("fields", [
    {"h": 1},
    {"h": 1, "w": 1, "x": 0, "y": 0},
    {"h": 1, "w": 1, "x": 0, "y": 0, "z": "0"},
    {"h": 1, "w": 1, "x": 0, "y": 0, "z": 1.5},
    {"h": 1, "w": 1, "x": 0, "y": 0, "z": 0.0},
    {"h": True, "w": 1, "x": 0, "y": 0, "z": 0},
    {"h": 1, "w": 1, "x": 0, "y": 0, "z": None},
    [1, 1, 0, 0, 0],
    "h1w1",
    7,
])
def test_brick_from_dict_needs_int_fields(fields):
    with pytest.raises(MalformedInputError, match="needs int fields h, w, x, y, z"):
        Brick.from_dict(fields)


def test_brick_from_dict_keeps_domain_errors():
    assert Brick.from_dict({"h": 2, "w": 4, "x": 1, "y": 2, "z": 3, "extra": 0}) \
        == Brick(2, 4, 1, 2, 3)
    with pytest.raises(OutOfBoundsError):
        Brick.from_dict({"h": 1, "w": 1, "x": 0, "y": 0, "z": 20})
    with pytest.raises(SizeNotInLibraryError):
        Brick.from_dict({"h": 3, "w": 3, "x": 0, "y": 0, "z": 0})


@pytest.mark.parametrize("text, detail", [
    ('{"bricks": [', "assembly is not JSON"),
    ("", "assembly is not JSON"),
    ("NaN", 'assembly JSON needs a "bricks" list'),
    ("[]", 'assembly JSON needs a "bricks" list'),
    ("{}", 'assembly JSON needs a "bricks" list'),
    ('{"bricks": 5}', 'assembly JSON needs a "bricks" list'),
    ('{"bricks": {"h": 1}}', 'assembly JSON needs a "bricks" list'),
    ('{"bricks": [{"h": 1}]}', "needs int fields"),
    ('{"bricks": ["h"]}', "needs int fields"),
    pytest.param(DEEP_JSON, re.escape(f"assembly is not JSON: {recursion_message(DEEP_JSON)}"),
                 id="nested-too-deep"),
])
def test_assembly_from_json_raises_malformed_input(text, detail):
    with pytest.raises(MalformedInputError, match=detail):
        BrickAssembly.from_json(text)


def test_rotated_sizes_catalog():
    assert len(CATALOG_SIZES) == 14
    assert (4, 2) in CATALOG_SIZES and (2, 4) in CATALOG_SIZES
    assert (8, 8) not in CATALOG_SIZES
