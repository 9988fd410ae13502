import re

import pytest

from brickforge.attach import decode_attachment, encode_attachment
from brickforge.bricks import Brick, BrickAssembly
from brickforge.errors import (
    CollisionError,
    MalformedHeaderError,
    MalformedSequenceError,
    NotAttachedError,
    TokenOutOfRangeError,
    TuplesAfterQueueEmptyError,
)
from brickforge.tokenizer import (
    NonMonotoneFWarning,
    detokenize,
    detokenize_lenient,
    sequence_stats,
    tokenize,
)
from brickforge.tokens import (
    BOS,
    CODEBOOK_SIZE,
    EOP,
    EOS,
    PAD,
    Token,
    TokenSequence,
    baseline_codebook,
    codebook,
    coord,
    f_token,
    m_token,
    size,
    token_from_id,
    token_to_id,
)

from conftest import CATALOG, grow_random_assembly


class TestAttachmentCodes:
    def test_worked_example(self):
        parent = Brick(4, 2, 0, 0, 0)
        child = Brick(2, 2, 1, 0, 1)
        code = encode_attachment(parent, child)
        assert (code.f, code.m) == (1, 0)
        assert decode_attachment(1, 0, parent, (2, 2)) == child

    def test_unit_stack(self):
        parent = Brick(1, 1, 5, 5, 0)
        child = Brick(1, 1, 5, 5, 1)
        code = encode_attachment(parent, child)
        assert (code.f, code.m) == (0, 0)
        assert decode_attachment(0, 0, parent, (1, 1)) == child

    def test_child_below(self):
        # child hangs below a 2x2 parent at parent-local stud (1,1)
        parent = Brick(2, 2, 5, 5, 5)
        child = Brick(2, 2, 6, 6, 4)
        code = encode_attachment(parent, child)
        assert (code.f, code.m) == (1 * 4 + 1 * 2 + 1, 0)
        assert decode_attachment(code.f, code.m, parent, (2, 2)) == child

    def test_decode_simple(self):
        assert decode_attachment(0, 0, Brick(1, 1, 5, 5, 0), (1, 1)) == Brick(1, 1, 5, 5, 1)

    def test_token_out_of_range(self):
        parent = Brick(1, 1, 5, 5, 5)
        with pytest.raises(TokenOutOfRangeError):
            decode_attachment(2, 0, parent, (1, 1))
        with pytest.raises(TokenOutOfRangeError):
            decode_attachment(0, 1, parent, (1, 1))

    def test_not_attached(self):
        with pytest.raises(NotAttachedError):
            encode_attachment(Brick(1, 1, 0, 0, 0), Brick(1, 1, 0, 0, 2))
        with pytest.raises(NotAttachedError):
            encode_attachment(Brick(1, 1, 0, 0, 0), Brick(1, 1, 5, 5, 1))

    def test_canonical_stud_is_lexicographic_min(self):
        parent = Brick(2, 2, 5, 5, 0)
        full = encode_attachment(parent, Brick(2, 2, 5, 5, 1))
        assert (full.f, full.m) == (0, 0)  # four shared studs, smallest wins
        offset = encode_attachment(parent, Brick(2, 2, 4, 4, 1))
        assert (offset.f, offset.m) == (0, 3)  # shared stud (5,5): child-local (1,1)

    def test_bijection_random(self, rng):
        # randomized spot check; the exhaustive sweep lives in the acceptance suite
        for _ in range(500):
            hp, wp = CATALOG[rng.integers(0, len(CATALOG))]
            hc, wc = CATALOG[rng.integers(0, len(CATALOG))]
            s = int(rng.integers(0, 2))
            up, vp = int(rng.integers(0, hp)), int(rng.integers(0, wp))
            uc, vc = int(rng.integers(0, hc)), int(rng.integers(0, wc))
            xp = max(0, uc - up) + 1
            yp = max(0, vc - vp) + 1
            parent = Brick(hp, wp, xp, yp, 10)
            child = Brick(hc, wc, xp + up - uc, yp + vp - vc, 10 + (1 - 2 * s))
            code = encode_attachment(parent, child)
            assert decode_attachment(code.f, code.m, parent, (hc, wc)) == child


class TestCodebook:
    def test_sizes(self):
        assert len(codebook()) == 65 == CODEBOOK_SIZE
        assert len(baseline_codebook()) == 28

    def test_dense_ids(self):
        assert [e.id for e in codebook()] == list(range(65))
        assert [e.id for e in baseline_codebook()] == list(range(28))

    def test_id_roundtrip(self):
        for entry in codebook():
            tok = Token(entry.kind, entry.value)
            assert token_to_id(tok) == entry.id
            assert token_from_id(entry.id) == tok

    def test_special_layout(self):
        names = [e.name for e in codebook()[:4]]
        assert names == ["BOS", "EOS", "PAD", "EOP"]

    def test_every_id_roundtrips_through_both_wire_forms(self):
        for tid in range(CODEBOOK_SIZE):
            tok = token_from_id(tid)
            assert token_to_id(tok) == tid
            seq = TokenSequence([tok])
            assert TokenSequence.from_text(seq.to_text()) == seq
            assert TokenSequence.from_binary(seq.to_binary()) == seq
        every = TokenSequence.from_ids(range(CODEBOOK_SIZE))
        assert every.ids() == list(range(CODEBOOK_SIZE))
        assert TokenSequence.from_text(every.to_text()) == every
        assert TokenSequence.from_binary(every.to_binary()) == every

    def test_constructors_return_the_codebook_instances(self):
        made = ([BOS, EOS, PAD, EOP] + [coord(v) for v in range(20)]
                + [size(v) for v in (1, 2, 4, 6, 8)] + [f_token(v) for v in range(24)]
                + [m_token(v) for v in range(12)])
        assert len(made) == CODEBOOK_SIZE
        for tid, tok in enumerate(made):
            assert tok is token_from_id(tid)

    def test_parsed_tokens_are_the_codebook_instances(self, rng):
        seq = tokenize(grow_random_assembly(rng, 40))
        for parsed in (TokenSequence.from_text(seq.to_text()),
                       TokenSequence.from_binary(seq.to_binary())):
            assert parsed == seq
            assert all(t is token_from_id(tid) for t, tid in zip(parsed, seq.ids()))

    def test_sequence_is_a_tuple_of_its_tokens(self, rng):
        seq = tokenize(grow_random_assembly(rng, 10))
        assert isinstance(seq, tuple) and seq.tokens is seq
        assert seq == tuple(seq) and hash(seq) == hash(tuple(seq))
        assert repr(seq) == f"TokenSequence({seq.to_text()!r})"
        for parsed in (TokenSequence.from_text(seq.to_text()), TokenSequence.from_ids(seq.ids())):
            assert type(parsed) is TokenSequence and parsed == seq
        with pytest.raises(AttributeError):
            seq.extra = 1  # no per-instance dict

    @pytest.mark.parametrize("make, value, message", [
        (coord, -1, "coordinate -1 outside [0,20)"),
        (coord, 20, "coordinate 20 outside [0,20)"),
        (size, 0, "size 0 not in (1, 2, 4, 6, 8)"),
        (f_token, -1, "f -1 outside [0,24)"),
        (f_token, 24, "f 24 outside [0,24)"),
        (m_token, -1, "m -1 outside [0,12)"),
        (m_token, 12, "m 12 outside [0,12)"),
    ])
    def test_constructor_range_checks(self, make, value, message):
        # negative values must not wrap around the codebook table
        with pytest.raises(MalformedSequenceError) as err:
            make(value)
        assert str(err.value) == message

    @pytest.mark.parametrize("tid", [-1, CODEBOOK_SIZE, 255])
    def test_id_out_of_range(self, tid):
        with pytest.raises(MalformedSequenceError, match=rf"^token id {tid} outside \[0,65\)$"):
            token_from_id(tid)

    @pytest.mark.parametrize("token", [Token("COORD", 25), Token("F", 30), Token("M", -1),
                                       Token("EOP", 5), Token("SIZE", 3)])
    def test_token_outside_the_codebook_has_no_id(self, token):
        with pytest.raises(MalformedSequenceError, match=rf"^token {re.escape(repr(token))} "
                                                         r"is not in the codebook$"):
            token_to_id(token)
        with pytest.raises(MalformedSequenceError):
            TokenSequence([BOS, token, EOS]).to_binary()


class TestTokenize:
    def test_single_brick(self):
        seq = tokenize(BrickAssembly((Brick(2, 4, 0, 0, 0),)))
        assert seq.to_text() == "BOS X0 Y0 Z0 H2 W4 EOS"
        assert len(seq) == 7

    def test_two_stacked(self):
        a = BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(1, 1, 0, 0, 1)))
        seq = tokenize(a)
        assert seq.to_text() == "BOS X0 Y0 Z0 H1 W1 F0 H1 W1 M0 EOS"
        assert len(seq) == 11

    def test_interior_branching_length(self):
        # root with two children; the first child has one grandchild
        a = BrickAssembly((
            Brick(4, 1, 0, 0, 0),
            Brick(1, 1, 0, 0, 1),
            Brick(1, 1, 3, 0, 1),
            Brick(1, 1, 0, 0, 2),
        ))
        seq = tokenize(a)
        stats = sequence_stats(seq)
        assert stats.n_bricks == 4
        assert stats.n_eop == 1  # only the root's group separator survives
        assert stats.length == 4 * 4 + 1 + 3 == len(seq)

    def test_group_f_strictly_increasing(self, rng):
        for _ in range(20):
            a = grow_random_assembly(rng, 30)
            seq = tokenize(a)
            floor = -1
            for tok in seq.tokens[6:-1]:
                if tok.kind == "EOP":
                    floor = -1
                elif tok.kind == "F":
                    assert tok.value > floor
                    floor = tok.value

    def test_roundtrip_random(self, rng):
        for _ in range(50):
            a = grow_random_assembly(rng, int(rng.integers(5, 60)))
            back = detokenize(tokenize(a))
            assert sorted(back.bricks) == sorted(a.bricks)

    def test_injective_on_corpus(self, rng):
        seen = {}
        for _ in range(200):
            a = grow_random_assembly(rng, int(rng.integers(5, 25)))
            key = tuple(tokenize(a).ids())
            canon = tuple(sorted(a.bricks))
            if key in seen:
                assert seen[key] == canon
            seen[key] = canon


class TestDetokenize:
    def test_single_brick(self):
        seq = TokenSequence.from_text("BOS X0 Y0 Z0 H2 W4 EOS")
        assert detokenize(seq).bricks == (Brick(2, 4, 0, 0, 0),)

    def test_implicit_trailing_eop(self):
        # explicit interior EOP, implicit for pending parents at sequence end
        seq = TokenSequence.from_text(
            "BOS X0 Y0 Z0 H4 W1 F0 H1 W1 M0 F3 H1 W1 M0 EOP F0 H4 W1 M0 EOS")
        bricks = detokenize(seq).bricks
        assert len(bricks) == 4
        assert bricks[3] == Brick(4, 1, 0, 0, 2)

    def test_collision_strict_vs_lenient(self):
        a = BrickAssembly((
            Brick(4, 1, 0, 0, 0),
            Brick(1, 1, 0, 0, 1),
            Brick(1, 1, 3, 0, 1),
        ))
        seq = tokenize(a)
        # corrupt the second child's f so it decodes onto the first child's cell
        tokens = list(seq.tokens)
        assert tokens[10].kind == "F"
        tokens[10] = Token("F", 0)
        with pytest.warns(NonMonotoneFWarning):
            with pytest.raises(CollisionError):
                detokenize(TokenSequence(tokens))
        with pytest.warns(NonMonotoneFWarning):
            prefix, diagnostic = detokenize_lenient(TokenSequence(tokens))
        assert len(prefix.bricks) == 2
        assert "collision" in diagnostic

    def test_only_strict_mode(self):
        # the longest valid prefix comes from detokenize_lenient alone
        seq = TokenSequence.from_text("BOS X0 Y0 Z0 H2 W4 EOS")
        assert detokenize(seq, "strict").bricks == (Brick(2, 4, 0, 0, 0),)
        with pytest.raises(ValueError, match="unknown mode 'lenient'"):
            detokenize(seq, "lenient")

    def test_malformed_header(self):
        with pytest.raises(MalformedHeaderError):
            detokenize(TokenSequence.from_text("BOS X0 Y0 Z0 H2 EOS"))
        with pytest.raises(MalformedHeaderError):
            detokenize(TokenSequence.from_text("X0 Y0 Z0 H2 W4 EOS"))

    def test_tuples_after_queue_empty(self):
        # the root's group is closed while the queue is empty, then more tuples follow
        seq = TokenSequence.from_text("BOS X0 Y0 Z0 H1 W1 EOP F0 H1 W1 M0 EOS")
        with pytest.raises(TuplesAfterQueueEmptyError):
            detokenize(seq)
        prefix, diagnostic = detokenize_lenient(seq)
        assert len(prefix.bricks) == 1
        assert "queue" in diagnostic

    def test_out_of_range_f(self):
        seq = TokenSequence.from_text("BOS X0 Y0 Z0 H1 W1 F5 H1 W1 M0 EOS")
        with pytest.raises(TokenOutOfRangeError):
            detokenize(seq)

    def test_size_not_in_catalog(self):
        seq = TokenSequence.from_text("BOS X0 Y0 Z0 H2 W4 F0 H8 W8 M0 EOS")
        with pytest.raises(MalformedSequenceError):
            detokenize(seq)


class TestSequenceStats:
    def test_single(self):
        stats = sequence_stats(TokenSequence.from_text("BOS X0 Y0 Z0 H2 W4 EOS"))
        assert (stats.n_bricks, stats.n_eop, stats.length) == (1, 0, 7)

    def test_two_brick_stack(self):
        seq = tokenize(BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(1, 1, 0, 0, 1))))
        stats = sequence_stats(seq)
        assert (stats.n_bricks, stats.n_eop, stats.length) == (2, 0, 11)
        assert stats.length <= 5 * 2 + 2

    def test_length_law_random(self, rng):
        for _ in range(30):
            a = grow_random_assembly(rng, int(rng.integers(5, 50)))
            seq = tokenize(a)
            stats = sequence_stats(seq)
            assert stats.length == 4 * stats.n_bricks + stats.n_eop + 3
            assert stats.length <= 5 * stats.n_bricks + 2

    def test_malformed(self):
        with pytest.raises(MalformedSequenceError):
            sequence_stats(TokenSequence.from_text("BOS X0 Y0 Z0 H2 W4 F0 EOS"))


class TestWireFormats:
    def test_text_roundtrip(self, rng):
        for _ in range(20):
            a = grow_random_assembly(rng, 20)
            seq = tokenize(a)
            assert TokenSequence.from_text(seq.to_text()) == seq

    def test_binary_roundtrip(self, rng):
        a = grow_random_assembly(rng, 20)
        seq = tokenize(a)
        assert TokenSequence.from_binary(seq.to_binary()) == seq

    def test_wire_forms_of_a_fixed_assembly(self):
        seq = tokenize(BrickAssembly((Brick(2, 4, 3, 5, 0), Brick(1, 2, 3, 5, 1),
                                      Brick(2, 2, 4, 7, 1))))
        assert seq.to_text() == "BOS X3 Y5 Z0 H2 W4 F0 H1 W2 M0 F5 H2 W2 M0 EOS"
        assert seq.to_binary().hex() == "0f00000000070904191a1d1819352219193501"

    def test_binary_is_length_prefixed_u8(self):
        seq = tokenize(BrickAssembly((Brick(1, 1, 0, 0, 0),)))
        blob = seq.to_binary()
        assert blob[:4] == (7).to_bytes(4, "little")
        assert len(blob) == 4 + 7

    def test_bad_text(self):
        with pytest.raises(MalformedSequenceError):
            TokenSequence.from_text("BOS Q9 EOS")

    @pytest.mark.parametrize("field, message", [
        ("X25", "coordinate 25 outside [0,20)"),
        ("C20", "coordinate 20 outside [0,20)"),
        ("Q1", "unparseable token field 'Q1'"),
        ("F", "unparseable token field 'F'"),
        ("X-1", "unparseable token field 'X-1'"),
        ("bos", "unparseable token field 'bos'"),
        ("M12", "m 12 outside [0,12)"),
        ("F24", "f 24 outside [0,24)"),
        ("H3", "size 3 not in (1, 2, 4, 6, 8)"),
        ("W0", "size 0 not in (1, 2, 4, 6, 8)"),
        # digits must be ASCII, and within what int() converts
        ("X\u00b2", "unparseable token field 'X\u00b2'"),
        ("X\u0661", "unparseable token field 'X\u0661'"),
        ("X" + "1" * 5000, f"unparseable token field {'X' + '1' * 5000!r}"),
    ])
    def test_malformed_text_field_messages(self, field, message):
        with pytest.raises(MalformedSequenceError) as err:
            TokenSequence.from_text(f"BOS {field} EOS")
        assert str(err.value) == message

    @pytest.mark.parametrize("field, token", [
        ("X05", Token("COORD", 5)),
        ("C7", Token("COORD", 7)),
        ("S08", Token("SIZE", 8)),
        ("F007", Token("F", 7)),
        ("M0", Token("M", 0)),
    ])
    def test_noncanonical_text_fields_parse(self, field, token):
        assert TokenSequence.from_text(f"BOS {field} EOS").tokens[1] == token

    def test_binary_names_the_first_out_of_range_id(self):
        blob = (4).to_bytes(4, "little") + bytes([0, 70, 200, 1])
        with pytest.raises(MalformedSequenceError) as err:
            TokenSequence.from_binary(blob)
        assert str(err.value) == "token id 70 outside [0,65)"
