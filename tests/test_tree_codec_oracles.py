"""The tree codec (spanning tree, tokenizer, decode state, LDraw and text
renderers) against the implementations it replaced, kept in ``conftest``:
the same sequences, wire forms, LDraw, decoded bricks, lenient prefixes,
diagnostics, warnings and errors, over seeded assemblies of 1 to 150 bricks."""

import warnings

import numpy as np
import pytest

from brickforge.attach import decode_attachment, encode_attachment
from brickforge.bricks import Brick, BrickAssembly
from brickforge.errors import BrickforgeError
from brickforge.ldraw import export_ldraw
from brickforge.tokenizer import DecodeState, detokenize, detokenize_lenient, tokenize
from brickforge.tokens import KIND_EOP, KIND_F, PAD, TokenSequence
from brickforge.tree import build_spanning_tree

from conftest import (
    build_spanning_tree_reference,
    detokenize_lenient_reference,
    detokenize_reference,
    export_ldraw_reference,
    grow_random_assembly,
    to_text_reference,
    tokenize_reference,
)

SIZES = (1, 2, 5, 20, 80, 150)


@pytest.fixture(scope="module")
def assemblies() -> list[BrickAssembly]:
    """Seeded connected assemblies of every size, each also in a shuffled
    brick order, so the root and the child order do not follow the growth."""
    rng = np.random.default_rng(17)
    out = []
    for n in SIZES:
        for _ in range(8):
            grown = grow_random_assembly(rng, n)
            out += [grown, BrickAssembly(tuple(grown.bricks[i] for i in rng.permutation(len(grown))))]
    return out


def outcome(fn, *args):
    """What ``fn`` returns, or the class and message of what it raises, with
    the warnings it issues; assemblies compare by bricks and occupancy."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except BrickforgeError as err:
            result = (type(err), str(err))
    if isinstance(result, tuple) and result and isinstance(result[0], BrickAssembly):
        result = (result[0].bricks, result[0].occupancy.tobytes()) + result[1:]
    elif isinstance(result, BrickAssembly):
        result = (result.bricks, result.occupancy.tobytes())
    return result, [(type(w.message), str(w.message)) for w in caught]


def test_spanning_tree_matches_reference(assemblies):
    for assembly in assemblies:
        tree = build_spanning_tree(assembly)
        root, children, bfs_order = build_spanning_tree_reference(assembly)
        assert (tree.root, tree.children, tree.bfs_order) == (root, children, bfs_order)
        bricks = assembly.bricks
        assert tree.codes == {c: encode_attachment(bricks[p], bricks[c])
                              for p, kids in children.items() for c in kids}


def test_tokenize_text_binary_and_ldraw_match_reference(assemblies):
    for assembly in assemblies:
        seq, ref = tokenize(assembly), tokenize_reference(assembly)
        assert seq == ref
        assert seq.to_text() == to_text_reference(ref)
        assert seq.to_binary() == ref.to_binary()
        assert export_ldraw(assembly) == export_ldraw_reference(assembly)


def test_to_text_matches_reference_on_any_tokens():
    rng = np.random.default_rng(18)
    for _ in range(3000):
        seq = TokenSequence.from_ids(rng.integers(0, 65, size=rng.integers(0, 30)))
        assert seq.to_text() == to_text_reference(seq)


def corrupted(seq: TokenSequence) -> list[TokenSequence]:
    """A PAD in place of the middle f, a sequence cut to half its length, and
    one whose group gets a second f no greater than the first."""
    tokens = seq.tokens
    out = [TokenSequence(tokens[:len(tokens) // 2] + tokens[-1:])]
    fs = [i for i, t in enumerate(tokens) if t.kind == KIND_F]
    if fs:
        p = fs[len(fs) // 2]
        out.append(TokenSequence(tokens[:p] + (PAD,) + tokens[p + 1:]))
    pairs = [(a, b) for a, b in zip(fs, fs[1:]) if b == a + 4]  # one group's first two tuples
    if pairs:
        a, b = pairs[len(pairs) // 2]
        out.append(TokenSequence(tokens[:b] + (tokens[a],) + tokens[b + 1:]))
    return out


def test_detokenize_matches_reference_on_whole_and_corrupted_sequences(assemblies):
    kinds = set()
    for assembly in assemblies:
        seq = tokenize(assembly)
        assert outcome(detokenize, seq) == outcome(detokenize_reference, seq)
        for bad in corrupted(seq):
            strict = outcome(detokenize, bad)
            assert strict == outcome(detokenize_reference, bad)
            lenient = outcome(detokenize_lenient, bad)
            assert lenient == outcome(detokenize_lenient_reference, bad)
            kinds.add(lenient[0][2].split(":")[0] if lenient[0][2] else None)
            kinds.update(w.__name__ for w, _ in lenient[1])
    # the corruptions reach errors, clean prefixes and warnings alike
    assert {"malformed_sequence", None, "NonMonotoneFWarning"} <= kinds


def test_decoded_bricks_match_the_assembly(assemblies):
    for assembly in assemblies:
        back = detokenize(tokenize(assembly))
        assert sorted(back.bricks) == sorted(assembly.bricks)
        assert back.occupancy.tobytes() == assembly.occupancy.tobytes()


MALFORMED = (
    "BOS X5 Y5 EOS",
    "BOS X19 Y5 Z0 H2 W4 EOS",
    "BOS X5 Y5 Z0 H2 W4 F20 H2 W2 M0 EOS",
    "BOS X5 Y5 Z0 H2 W4 F0 H2 W8 M0 EOS",
    "BOS X5 Y5 Z0 H2 W4 F0 H2 W2 M7 EOS",
    "BOS X5 Y5 Z0 H2 W4 F0 H2 W2 M0 F0 H2 W2 M0 EOS",
    "BOS X5 Y5 Z0 H2 W4 EOP F0 H2 W2 M0 EOS",
    "BOS X5 Y5 Z0 H2 W4 F0 H2 W2 EOS",
)


def test_malformed_input_raises_as_reference():
    disconnected = BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(1, 1, 19, 19, 0)))
    for assembly in (BrickAssembly(), disconnected):
        raised = outcome(tokenize, assembly)
        assert raised == outcome(tokenize_reference, assembly)
        assert issubclass(raised[0][0], BrickforgeError)
    for text in MALFORMED:
        bad = TokenSequence.from_text(text)
        raised = outcome(detokenize, bad)
        assert raised == outcome(detokenize_reference, bad)
        assert issubclass(raised[0][0], BrickforgeError)
        assert outcome(detokenize_lenient, bad) == outcome(detokenize_lenient_reference, bad)


def test_a_handed_out_assembly_never_changes(assemblies):
    """Every snapshot taken while a state grows, is cut back and grows again
    keeps its bricks and occupancy."""
    for assembly in assemblies[-4:]:  # two of 150 bricks, each in two orders
        body = list(tokenize(assembly).tokens[1:-1])
        state, snapshots = DecodeState(), []

        def grow():
            while len(state.body) < len(body):
                i = len(state.body)
                if i == 0:
                    x, y, z, h, w = (t.value for t in body[:5])
                    state.apply_root(Brick(h, w, x, y, z))
                elif body[i].kind == KIND_EOP:
                    state.apply_eop()
                else:
                    f, h, w, m = (t.value for t in body[i:i + 4])
                    state.apply_tuple(f, h, w, m,
                                      decode_attachment(f, m, state.current_parent(), (h, w)))
                snapshot = state.assembly()
                snapshots.append((snapshot, snapshot.bricks, snapshot.occupancy.tobytes()))

        grow()
        for cut in state.tuple_start[::30]:
            state.truncate(cut)
            grow()
        assert sorted(state.assembly().bricks) == sorted(assembly.bricks)
        for snapshot, bricks, cells in snapshots:
            assert snapshot.bricks == bricks
            assert snapshot.occupancy.tobytes() == cells == BrickAssembly(bricks).occupancy.tobytes()
