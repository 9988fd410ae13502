"""Token alphabet, codebook, and wire formats for serialized brick sequences.

The 65-token codebook: 4 specials (BOS, EOS, PAD, EOP), 20 coordinate
values, 5 size values, 24 parent-side attachment values, and 12 child-side
anchor values.  Ids are fixed so serialized sequences are portable:
specials first, then coordinates, sizes, F, M.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .bricks import GRID, SIZE_VALUES
from .attach import F_RANGE, M_RANGE
from .errors import MalformedSequenceError

KIND_BOS = "BOS"
KIND_EOS = "EOS"
KIND_PAD = "PAD"
KIND_EOP = "EOP"
KIND_COORD = "COORD"
KIND_SIZE = "SIZE"
KIND_F = "F"
KIND_M = "M"

_SIZE_INDEX = {v: i for i, v in enumerate(SIZE_VALUES)}


@dataclass(frozen=True)
class Token:
    kind: str
    value: int | None = None

    def __repr__(self):
        return self.kind if self.value is None else f"{self.kind}({self.value})"


def coord(v: int) -> Token:
    if not 0 <= v < GRID:
        raise MalformedSequenceError(f"coordinate {v} outside [0,{GRID})")
    return _TOKEN_BY_ID[_COORD_BASE + v]


def size(v: int) -> Token:
    if v not in _SIZE_INDEX:
        raise MalformedSequenceError(f"size {v} not in {SIZE_VALUES}")
    return _TOKEN_BY_ID[_SIZE_BASE + _SIZE_INDEX[v]]


def f_token(v: int) -> Token:
    if not 0 <= v < F_RANGE:
        raise MalformedSequenceError(f"f {v} outside [0,{F_RANGE})")
    return _TOKEN_BY_ID[_F_BASE + v]


def m_token(v: int) -> Token:
    if not 0 <= v < M_RANGE:
        raise MalformedSequenceError(f"m {v} outside [0,{M_RANGE})")
    return _TOKEN_BY_ID[_M_BASE + v]


_SPECIALS = {KIND_BOS: 0, KIND_EOS: 1, KIND_PAD: 2, KIND_EOP: 3}
_COORD_BASE = 4
_SIZE_BASE = _COORD_BASE + GRID          # 24
_F_BASE = _SIZE_BASE + len(SIZE_VALUES)  # 29
_M_BASE = _F_BASE + F_RANGE              # 53
CODEBOOK_SIZE = _M_BASE + M_RANGE        # 65


def token_to_id(token: Token) -> int:
    tid = _ID_BY_TOKEN.get((token.kind, token.value))
    if tid is None:
        raise MalformedSequenceError(f"token {token!r} is not in the codebook")
    return tid


def token_from_id(tid: int) -> Token:
    if not 0 <= tid < CODEBOOK_SIZE:
        raise MalformedSequenceError(f"token id {tid} outside [0,{CODEBOOK_SIZE})")
    return _TOKEN_BY_ID[tid]


@dataclass(frozen=True)
class CodebookEntry:
    id: int
    kind: str
    value: int | None
    name: str


def codebook() -> list[CodebookEntry]:
    """The full 65-entry token table with dense ids 0..64."""
    entries = [CodebookEntry(sid, kind, None, kind) for kind, sid in _SPECIALS.items()]
    entries += [CodebookEntry(_COORD_BASE + v, KIND_COORD, v, f"C{v}") for v in range(GRID)]
    entries += [CodebookEntry(_SIZE_BASE + i, KIND_SIZE, v, f"S{v}") for i, v in enumerate(SIZE_VALUES)]
    entries += [CodebookEntry(_F_BASE + v, KIND_F, v, f"F{v}") for v in range(F_RANGE)]
    entries += [CodebookEntry(_M_BASE + v, KIND_M, v, f"M{v}") for v in range(M_RANGE)]
    entries.sort(key=lambda e: e.id)
    return entries


def baseline_codebook() -> list[CodebookEntry]:
    """Codebook of the flat per-brick (h,w,x,y,z) serialization: 28 entries.

    Provided for comparison tooling only; there is no decoding harness for
    this layout.
    """
    entries = [CodebookEntry(0, KIND_BOS, None, "BOS"),
               CodebookEntry(1, KIND_EOS, None, "EOS"),
               CodebookEntry(2, KIND_PAD, None, "PAD")]
    entries += [CodebookEntry(3 + v, KIND_COORD, v, f"C{v}") for v in range(GRID)]
    entries += [CodebookEntry(23 + i, KIND_SIZE, v, f"S{v}") for i, v in enumerate(SIZE_VALUES)]
    return entries


_TOKEN_BY_ID = tuple(Token(e.kind, e.value) for e in codebook())
_ID_BY_TOKEN = {(t.kind, t.value): tid for tid, t in enumerate(_TOKEN_BY_ID)}
BOS, EOS, PAD, EOP = _TOKEN_BY_ID[:4]

# Every canonical text field (``X5``, ``H2``, ``F17``, ``EOP``, ...) and its
# token; ``TokenSequence.from_text`` parses only the fields missing here.
_TOKEN_BY_TEXT = {kind: _TOKEN_BY_ID[sid] for kind, sid in _SPECIALS.items()}
_TOKEN_BY_TEXT.update({f"{label}{v}": coord(v) for label in "XYZC" for v in range(GRID)})
_TOKEN_BY_TEXT.update({f"{label}{v}": size(v) for label in "HWS" for v in SIZE_VALUES})
_TOKEN_BY_TEXT.update({f"F{v}": f_token(v) for v in range(F_RANGE)})
_TOKEN_BY_TEXT.update({f"M{v}": m_token(v) for v in range(M_RANGE)})
# The token constructor of each field label, for noncanonical fields (``X05``).
_TOKEN_BY_LABEL = {**dict.fromkeys("XYZC", coord), **dict.fromkeys("HWS", size),
                   "F": f_token, "M": m_token}


class TokenSequence(tuple):
    """A tuple of tokens with text and binary wire forms."""

    __slots__ = ()

    @property
    def tokens(self) -> tuple[Token, ...]:
        return self

    def __repr__(self):
        return f"TokenSequence({self.to_text()!r})"

    def ids(self) -> list[int]:
        return [token_to_id(t) for t in self]

    @staticmethod
    def from_ids(ids) -> "TokenSequence":
        return TokenSequence(token_from_id(i) for i in ids)

    def to_text(self) -> str:
        """Render one symbolic name per token, e.g. ``BOS X5 Y0 Z0 H2 W4 EOS``.

        Structural positions pick the label (X/Y/Z for the header
        coordinates, H/W for sizes); tokens outside the expected structure
        fall back to canonical C#/S# names so the renderer is total.
        """
        expect = ["X", "Y", "Z", "H", "W"]  # consumed after BOS
        group = []  # label cycle inside child tuples
        out = []
        for tok in self:
            if tok.kind in (KIND_BOS, KIND_EOS, KIND_PAD, KIND_EOP):
                out.append(tok.kind)
                if tok.kind == KIND_EOP:
                    group = []
                continue
            if tok.kind == KIND_COORD:
                label = expect.pop(0) if expect and expect[0] in "XYZ" else "C"
                out.append(f"{label}{tok.value}")
            elif tok.kind == KIND_SIZE:
                if expect and expect[0] in "HW":
                    out.append(f"{expect.pop(0)}{tok.value}")
                elif group and group[0] in "HW":
                    out.append(f"{group.pop(0)}{tok.value}")
                else:
                    out.append(f"S{tok.value}")
            elif tok.kind == KIND_F:
                out.append(f"F{tok.value}")
                group = ["H", "W", "M"]
            else:  # M
                out.append(f"M{tok.value}")
                group = []
        return " ".join(out)

    @staticmethod
    def from_text(text: str) -> "TokenSequence":
        tokens = []
        for field in text.split():
            token = _TOKEN_BY_TEXT.get(field)
            if token is None:
                make, digits = _TOKEN_BY_LABEL.get(field[0]), field[1:]
                try:
                    if make is None or not (digits.isascii() and digits.isdigit()):
                        raise ValueError
                    value = int(digits)  # raises ValueError past int()'s digit limit
                except ValueError:
                    raise MalformedSequenceError(f"unparseable token field {field!r}") from None
                token = make(value)
            tokens.append(token)
        return TokenSequence(tokens)

    def to_binary(self) -> bytes:
        """Length-prefixed (u32 little-endian count) list of u8 token ids."""
        return struct.pack("<I", len(self)) + bytes(self.ids())

    @staticmethod
    def from_binary(blob: bytes) -> "TokenSequence":
        if len(blob) < 4:
            raise MalformedSequenceError("binary form shorter than its length prefix")
        (n,) = struct.unpack_from("<I", blob)
        if len(blob) != 4 + n:
            raise MalformedSequenceError(f"binary form length {len(blob) - 4} != prefix {n}")
        return TokenSequence.from_ids(blob[4:])
