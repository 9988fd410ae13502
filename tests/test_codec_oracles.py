"""The one-brick ``place``, the layer-bucketed ``attachment_edges`` and the
decoder built on them, checked against the full-rebuild and all-pairs
implementations kept in ``conftest``."""

import warnings

import numpy as np
import pytest

from brickforge import tokenizer
from brickforge.bricks import GRID, Brick, BrickAssembly, attachment_edges, place
from brickforge.errors import BrickforgeError, CollisionError
from brickforge.tokenizer import detokenize, detokenize_lenient, sequence_stats, tokenize
from brickforge.tokens import CODEBOOK_SIZE, TokenSequence

from conftest import (
    CATALOG,
    attachment_edges_reference,
    grow_random_assembly,
    place_reference,
)

SIZES = (1, 20, 80, 150)


def corpus(n: int, count: int = 6):
    rng = np.random.default_rng(1000 + n)
    return [grow_random_assembly(rng, n) for _ in range(count)]


def place_outcome(fn, assembly, brick):
    try:
        result = fn(assembly, brick)
    except CollisionError as err:
        return ("collision", err.cell)
    return (result.bricks, result.occupancy.tobytes())


@pytest.mark.parametrize("n", SIZES)
def test_place_matches_full_rebuild(n):
    rng = np.random.default_rng(n)
    for target in corpus(n):
        ours, ref = BrickAssembly(), BrickAssembly()
        for brick in target.bricks:
            parent, before = ours, ours.occupancy.copy()
            ours, ref = place(ours, brick), place_reference(ref, brick)
            assert np.array_equal(parent.occupancy, before)  # the parent is untouched
            assert ours.bricks == ref.bricks
            assert np.array_equal(ours.occupancy, ref.occupancy)
            assert not ours.occupancy.flags.writeable
            # a random probe: the same collision cell or the same extension
            h, w = CATALOG[rng.integers(len(CATALOG))]
            probe = Brick(h, w, int(rng.integers(GRID - h + 1)),
                          int(rng.integers(GRID - w + 1)), brick.z)
            assert place_outcome(place, ours, probe) == place_outcome(place_reference, ref, probe)
            assert np.array_equal(ours.occupancy, ref.occupancy)
        assert ours == target
        assert np.array_equal(ours.occupancy, target.occupancy)


@pytest.mark.parametrize("n", SIZES)
def test_place_collision_cell_matches_full_rebuild(n):
    for target in corpus(n):
        for brick in target.bricks:
            for h, w in CATALOG:  # anchored on the brick's first or last cell
                x = max(brick.x + brick.h - h, 0) if (h + w) % 2 else min(brick.x, GRID - h)
                y = max(brick.y + brick.w - w, 0) if (h + w) % 2 else min(brick.y, GRID - w)
                probe = Brick(h, w, x, y, brick.z)
                ours = place_outcome(place, target, probe)
                assert ours == place_outcome(place_reference, target, probe)
                assert ours[0] == "collision"


@pytest.mark.parametrize("n", SIZES)
def test_attachment_edges_match_all_pairs(n):
    rng = np.random.default_rng(n)
    for target in corpus(n):
        assert attachment_edges(target) == attachment_edges_reference(target)
        shuffled = BrickAssembly(tuple(target.bricks[i] for i in rng.permutation(len(target))))
        edges = attachment_edges(shuffled)
        assert edges == attachment_edges_reference(shuffled)
        assert all(i < j for i, j in edges)


def random_id_sequence(rng, pool) -> list[int]:
    """Random ids: a third drawn uniformly, the rest a sequence from ``pool``
    with one or two ids replaced, dropped or repeated, so decoding reaches
    collisions, out-of-bounds children and a drained queue at every depth."""
    if rng.random() < 1 / 3:
        return [int(v) for v in rng.integers(0, CODEBOOK_SIZE, size=rng.integers(0, 30))]
    ids = list(pool[rng.integers(len(pool))])
    for _ in range(rng.integers(1, 3)):
        k = int(rng.integers(len(ids)))
        edit = rng.random()
        if edit < 0.6:
            ids[k] = int(rng.integers(CODEBOOK_SIZE))
        elif edit < 0.8:
            del ids[k]
        else:
            ids[k:k] = ids[k:k + 4]
    return ids


def decode_outcomes(sequence: TokenSequence) -> tuple:
    """What each decoder returns or raises, with the warnings it issues."""
    out = []
    for fn in (detokenize, detokenize_lenient, sequence_stats):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fn(sequence)
            except BrickforgeError as err:
                result = (err.code, str(err))
        if fn is detokenize_lenient:
            assembly, diagnostic = result
            result = (assembly.bricks, assembly.occupancy.tobytes(), diagnostic)
        elif isinstance(result, BrickAssembly):
            result = (result.bricks, result.occupancy.tobytes())
        out.append((result, [str(w.message) for w in caught]))
    return tuple(out)


def test_decoders_match_full_rebuild_on_random_ids(monkeypatch):
    rng = np.random.default_rng(20000)
    pool = [tokenize(grow_random_assembly(rng, int(n))).ids()
            for n in rng.integers(2, 20, size=200)]
    sequences = [TokenSequence.from_ids(random_id_sequence(rng, pool)) for _ in range(20_000)]
    ours = [decode_outcomes(seq) for seq in sequences]
    monkeypatch.setattr(tokenizer, "place", place_reference)
    ref = [decode_outcomes(seq) for seq in sequences]
    assert ours == ref
    # the corpus reaches deep into the decoder, not only the header checks
    codes = {strict[0] for (strict, _), _, _ in ours if isinstance(strict[0], str)}
    assert {"collision", "out_of_bounds", "token_out_of_range", "tuples_after_queue_empty",
            "malformed_header", "malformed_sequence"} <= codes
    assert sum(1 for _, ((prefix, _, _), _), _ in ours if len(prefix) >= 10) > 1000
