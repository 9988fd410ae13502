"""Reversible tree serialization of brick assemblies.

A sequence is ``BOS, x0, y0, z0, h0, w0, (f, h, w, m)..., EOP, ..., EOS``:
an absolute root header followed, in BFS order, by each dequeued parent's
child tuples (sorted by f) and an EOP closing the group.  The maximal
trailing run of EOP tokens is stripped before EOS; the detokenizer treats
the end of the sequence as an implicit EOP for every pending parent, so the
two directions stay inverse to each other.

:class:`DecodeState` is the one parser of that grammar: the detokenizer
feeds it whole sequences, constrained generation one item at a time.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from .attach import decode_attachment, encode_attachment
from .bricks import Brick, BrickAssembly, CATALOG_SIZES, place
from .errors import (
    BrickforgeError,
    InconsistentSequenceError,
    MalformedHeaderError,
    MalformedSequenceError,
    TuplesAfterQueueEmptyError,
)
from .tokens import (
    BOS,
    EOP,
    EOS,
    KIND_COORD,
    KIND_EOP,
    KIND_EOS,
    KIND_F,
    KIND_M,
    KIND_SIZE,
    Token,
    TokenSequence,
    coord,
    f_token,
    m_token,
    size,
)
from .tree import build_spanning_tree


class NonMonotoneFWarning(UserWarning):
    """Child tuples within one group arrived with non-increasing f."""


def tokenize(assembly: BrickAssembly) -> TokenSequence:
    """Serialize a connected, collision-free assembly.

    Deterministic; raises DisconnectedGraphError when the attachment graph
    has more than one component.
    """
    tree = build_spanning_tree(assembly)
    bricks = assembly.bricks
    root = bricks[tree.root]
    body: list[Token] = [coord(root.x), coord(root.y), coord(root.z), size(root.h), size(root.w)]
    for p in tree.bfs_order:
        for c in tree.children[p]:
            code = encode_attachment(bricks[p], bricks[c])
            child = bricks[c]
            body += [f_token(code.f), size(child.h), size(child.w), m_token(code.m)]
        body.append(EOP)
    return _close(body)


def _close(body: list[Token]) -> TokenSequence:
    """BOS, ``body`` without its maximal trailing run of EOP, EOS."""
    end = len(body)
    while end and body[end - 1].kind == KIND_EOP:
        end -= 1
    return TokenSequence([BOS] + body[:end] + [EOS])


def _body(sequence: TokenSequence) -> tuple[Token, ...]:
    """The tokens between BOS and EOS, at least a root header's worth."""
    if len(sequence) < 7 or sequence[0].kind != "BOS" or sequence[-1].kind != KIND_EOS:
        raise MalformedHeaderError("sequence must be BOS <header> ... EOS with 5 header tokens")
    return sequence[1:-1]


def _root(header) -> Brick:
    kinds = [t.kind for t in header]
    if kinds != [KIND_COORD, KIND_COORD, KIND_COORD, KIND_SIZE, KIND_SIZE]:
        raise MalformedHeaderError(f"root header kinds {kinds}")
    x, y, z, h, w = (t.value for t in header)
    return Brick(h, w, x, y, z)


def _items(groups):
    """Split the tokens after the root header into EOP (``None``) and
    (f, h, w, m) items, each yielded with the index just past it."""
    idx = 0
    while idx < len(groups):
        if groups[idx].kind == KIND_EOP:
            idx += 1
            yield idx, None
            continue
        group = groups[idx:idx + 4]
        if [t.kind for t in group] != [KIND_F, KIND_SIZE, KIND_SIZE, KIND_M]:
            raise MalformedSequenceError(
                f"expected (f,h,w,m) tuple at body position {idx}, got {group}")
        f, h, w, m = group
        idx += 4
        yield idx, (f.value, h.value, w.value, m.value)


class DecodeState:
    """The BFS state machine over the sequence grammar: token prefix, the
    partial assembly (grown through :func:`place`) and the parent queue."""

    def __init__(self):
        self.bricks: list[Brick] = []
        self.parent_of: list[int | None] = []
        self.tuple_start: list[int] = []  # body index where each brick's tokens begin
        self.body: list[Token] = []       # tokens after BOS (header + groups, no EOS)
        self.queue: deque[int] = deque()
        self.current: int | None = None
        self.f_floor: int = -1
        self._assembly = BrickAssembly()

    @property
    def started(self) -> bool:
        return bool(self.bricks)

    @property
    def done(self) -> bool:
        return self.started and self.current is None

    def current_parent(self) -> Brick:
        return self.bricks[self.current]

    def apply_root(self, brick: Brick):
        assert not self.started
        self._assembly = place(self._assembly, brick)
        self.bricks.append(brick)
        self.parent_of.append(None)
        self.tuple_start.append(0)
        self.body += [coord(brick.x), coord(brick.y), coord(brick.z),
                      size(brick.h), size(brick.w)]
        self.current = 0
        self.f_floor = -1

    def apply_tuple(self, f: int, h: int, w: int, m: int, brick: Brick):
        self._assembly = place(self._assembly, brick)
        self.tuple_start.append(len(self.body))
        self.body += [f_token(f), size(h), size(w), m_token(m)]
        self.parent_of.append(self.current)
        self.bricks.append(brick)
        self.queue.append(len(self.bricks) - 1)
        self.f_floor = f

    def apply_eop(self):
        self.body.append(EOP)
        self.current = self.queue.popleft() if self.queue else None
        self.f_floor = -1

    def _feed(self, body, monotone: bool):
        """Consume ``body``, a root header then EOP and (f, h, w, m) items,
        into this fresh state.  The first error leaves the state at the
        longest valid prefix.  An f that does not increase within a group is
        an error when ``monotone``, else a NonMonotoneFWarning."""
        self.apply_root(_root(body[:5]))
        groups = body[5:]
        for end, item in _items(groups):
            if item is None:
                if not self.queue and end < len(groups):
                    raise TuplesAfterQueueEmptyError("tokens remain after the BFS queue drained")
                self.apply_eop()
                continue
            f, h, w, m = item
            if (h, w) not in CATALOG_SIZES:
                raise MalformedSequenceError(f"({h},{w}) not a catalog footprint")
            if f <= self.f_floor:
                message = f"f={f} after f={self.f_floor} in one group"
                if monotone:
                    raise MalformedSequenceError(message)
                warnings.warn(NonMonotoneFWarning(message))
            self.apply_tuple(f, h, w, m, decode_attachment(f, m, self.current_parent(), (h, w)))

    def truncate(self, n: int):
        """Cut the state back to what consuming its first ``n`` body tokens
        gives; ``n`` must be 0 or fall between items."""
        body = self.body
        if n and not (5 <= n <= len(body) and (n == 5 or body[n - 1].kind in (KIND_EOP, KIND_M))):
            raise ValueError(f"body position {n} is not between items")
        keep = bisect_left(self.tuple_start, n)
        del body[n:], self.bricks[keep:], self.parent_of[keep:], self.tuple_start[keep:]
        self._assembly = BrickAssembly(tuple(self.bricks))
        # parents are dequeued in brick order, one per EOP
        eops = sum(t.kind == KIND_EOP for t in body)
        self.current = eops if eops < keep else None
        self.queue = deque(range(eops + 1, keep))
        self.f_floor = body[-4].value if body and body[-1].kind == KIND_M else -1

    def assembly(self) -> BrickAssembly:
        return self._assembly

    def finalize(self) -> TokenSequence:
        """Complete sequence for the current prefix: trailing EOP tokens are
        stripped and BOS/EOS added; the state itself is left untouched."""
        return _close(self.body)

    def fingerprint(self) -> tuple:
        return (tuple(self.bricks), tuple(self.parent_of), tuple(self.queue),
                self.current, self.f_floor, tuple(self.body))

    @staticmethod
    def replay(body: list[Token]) -> "DecodeState":
        """Rebuild the decoding state reached after consuming ``body``.

        The prefix must be one the decoder could have produced; raises
        InconsistentSequenceError otherwise.
        """
        state = DecodeState()
        if body:
            try:
                state._feed(body, monotone=True)
            except BrickforgeError as err:
                raise InconsistentSequenceError(f"{err.code}: {err}") from err
        return state


def detokenize(sequence: TokenSequence, mode: str = "strict") -> BrickAssembly:
    """Reconstruct the assembly encoded by a sequence, raising on any
    structural violation.

    ``mode`` accepts only ``"strict"``; :func:`detokenize_lenient` returns
    the longest valid prefix assembly and a diagnostic instead.
    """
    if mode != "strict":
        raise ValueError(f"unknown mode {mode!r}")
    state = DecodeState()
    state._feed(_body(sequence), monotone=False)
    return state.assembly()


def detokenize_lenient(sequence: TokenSequence) -> tuple[BrickAssembly, str | None]:
    """Decode as far as possible; on the first structural violation return
    the prefix assembly together with a diagnostic string."""
    state = DecodeState()
    try:
        state._feed(_body(sequence), monotone=False)
    except BrickforgeError as err:
        return state.assembly(), f"{err.code}: {err}"
    return state.assembly(), None


@dataclass(frozen=True)
class SequenceStats:
    n_bricks: int
    n_eop: int
    length: int


def sequence_stats(sequence: TokenSequence) -> SequenceStats:
    """Report (N, I, T) for a well-formed sequence, whose grammar gives
    T = 4N + I + 3; more EOPs than parents (T > 5N + 2) is an error."""
    body = _body(sequence)
    _root(body[:5])
    items = [item for _, item in _items(body[5:])]
    i = items.count(None)
    n = 1 + len(items) - i
    t = len(sequence)
    if t > 5 * n + 2:
        raise MalformedSequenceError(f"length {t} exceeds 5N+2 for N={n}")
    return SequenceStats(n_bricks=n, n_eop=i, length=t)
