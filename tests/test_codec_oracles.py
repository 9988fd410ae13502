"""The one-brick ``place``, the layer-bucketed ``attachment_edges`` and the
decoder built on them, checked against the full-rebuild and all-pairs
implementations kept in ``conftest``; and ``DecodeState``, the one walker
of the sequence grammar, against the three walkers it replaced."""

import warnings

import numpy as np
import pytest

from brickforge import tokenizer
from brickforge.bricks import GRID, Brick, BrickAssembly, attachment_edges, place
from brickforge.errors import BrickforgeError, CollisionError, InconsistentSequenceError
from brickforge.tokenizer import (
    DecodeState,
    detokenize,
    detokenize_lenient,
    sequence_stats,
    tokenize,
)
from brickforge.tokens import CODEBOOK_SIZE, KIND_EOP, TokenSequence

from conftest import (
    CATALOG,
    attachment_edges_reference,
    detokenize_lenient_reference,
    detokenize_reference,
    grow_random_assembly,
    place_reference,
    replay_checked_reference,
    replay_reference,
    sequence_stats_reference,
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


DECODERS = (detokenize, detokenize_lenient, sequence_stats)
REFERENCE_DECODERS = (detokenize_reference, detokenize_lenient_reference, sequence_stats_reference)


def decode_outcomes(sequence: TokenSequence, decoders=DECODERS) -> tuple:
    """What each decoder (strict, lenient, stats) returns or raises, with
    the warnings it issues."""
    out = []
    for fn in decoders:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = fn(sequence)
            except BrickforgeError as err:
                result = (err.code, str(err))
        if fn is decoders[1]:
            assembly, diagnostic = result
            result = (assembly.bricks, assembly.occupancy.tobytes(), diagnostic)
        elif isinstance(result, BrickAssembly):
            result = (result.bricks, result.occupancy.tobytes())
        out.append((result, [str(w.message) for w in caught]))
    return tuple(out)


@pytest.fixture(scope="module")
def seeded() -> tuple[list[TokenSequence], list[tuple]]:
    """The seeded sequences and their ``decode_outcomes``, built and decoded
    once for both oracle tests below."""
    sequences = seeded_sequences()
    return sequences, [decode_outcomes(seq) for seq in sequences]


def test_decoders_match_full_rebuild_on_random_ids(seeded, monkeypatch):
    sequences, ours = seeded
    monkeypatch.setattr(tokenizer, "place", place_reference)
    ref = [decode_outcomes(seq) for seq in sequences]
    assert ours == ref
    # the corpus reaches deep into the decoder, not only the header checks
    codes = {strict[0] for (strict, _), _, _ in ours if isinstance(strict[0], str)}
    assert {"collision", "out_of_bounds", "token_out_of_range", "tuples_after_queue_empty",
            "malformed_header", "malformed_sequence"} <= codes
    assert sum(1 for _, ((prefix, _, _), _), _ in ours if len(prefix) >= 10) > 1000


def seeded_sequences() -> list[TokenSequence]:
    """The 20k seeded sequences of ``test_decoders_match_full_rebuild_on_random_ids``."""
    rng = np.random.default_rng(20000)
    pool = [tokenize(grow_random_assembly(rng, int(n))).ids()
            for n in rng.integers(2, 20, size=200)]
    return [TokenSequence.from_ids(random_id_sequence(rng, pool)) for _ in range(20_000)]


def replay_outcome(replay, body) -> tuple | str:
    """The replayed state's fingerprint, or the error code it raises."""
    try:
        return replay(body)
    except InconsistentSequenceError as err:
        return err.code


def test_decode_state_matches_the_walkers_it_replaced(seeded):
    suffixed = 0
    replays = {"inconsistent_sequence": 0, "accepted": 0}
    for seq, (strict, lenient, (stats, stats_warned)) in zip(*seeded):
        (ref_strict, ref_lenient, (ref_stats, ref_stats_warned)) = decode_outcomes(
            seq, REFERENCE_DECODERS)
        assert (strict, lenient) == (ref_strict, ref_lenient)
        assert stats_warned == ref_stats_warned == []
        if stats != ref_stats:  # the malformed-tuple message gains the tokens found
            assert stats[0] == ref_stats[0] == "malformed_sequence"
            assert ref_stats[1].startswith("expected (f,h,w,m) tuple at body position")
            assert stats[1].startswith(ref_stats[1] + ", got ")
            suffixed += 1
        body = list(seq.tokens[1:-1])
        ours = replay_outcome(lambda b: DecodeState.replay(b).fingerprint(), body)
        assert ours == replay_outcome(replay_checked_reference, body)
        if isinstance(ours, tuple):
            assert ours == replay_reference(body)
        replays["accepted" if isinstance(ours, tuple) else ours] += 1
    assert suffixed > 100
    assert min(replays.values()) > 1000


def item_boundaries(body) -> list[int]:
    cuts, idx = [0, 5], 5
    while idx < len(body):
        idx += 1 if body[idx].kind == KIND_EOP else 4
        cuts.append(idx)
    return cuts


@pytest.mark.parametrize("n", SIZES)
def test_truncate_matches_replay_of_the_prefix(n):
    for target in corpus(n, count=3):
        body = list(tokenize(target).tokens[1:-1])
        cuts = item_boundaries(body)
        for cut in cuts[:20] + cuts[20::max(1, len(cuts) // 40)] + cuts[-3:]:
            state = DecodeState.replay(body)
            state.truncate(cut)
            fresh = DecodeState.replay(body[:cut])
            assert state.fingerprint() == fresh.fingerprint() == replay_reference(body[:cut])
            assert state.tuple_start == fresh.tuple_start
            assert state.assembly() == fresh.assembly()
            assert np.array_equal(state.assembly().occupancy, fresh.assembly().occupancy)
        state = DecodeState.replay(body)
        before = state.fingerprint()
        for cut in set(range(1, len(body) + 2)) - set(cuts):
            with pytest.raises(ValueError):
                state.truncate(cut)
        assert state.fingerprint() == before
