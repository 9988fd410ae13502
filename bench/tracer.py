"""Opt-in spans and counters around brickforge's layer boundaries.

The tracer patches names where they are *called*: the package's modules
bind each other with ``from .x import y``, so ``brickforge.reward`` holds
its own reference to ``extract_surface`` and that is the one wrapped.
Nothing under ``src/`` is edited.  Spans are ``(name, start, end, parent,
op)`` tuples kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

# Per-layer metrics, in BENCHMARK.json order.  Counts are per timed pass,
# so they repeat exactly between runs of one seed; times are ms per pass.
PER_LAYER = (
    ("tokenizer.tokenize.calls", "count"),
    ("tokenizer.tokenize.busy_ms", "ms"),
    ("tokenizer.tokenize.self_ms", "ms"),
    ("tokenizer.detokenize.calls", "count"),
    ("tokenizer.detokenize.busy_ms", "ms"),
    ("tokenizer.detokenize.self_ms", "ms"),
    ("tokenizer.detokenize_lenient.calls", "count"),
    ("tokenizer.detokenize_lenient.busy_ms", "ms"),
    ("tokenizer.detokenize_lenient.self_ms", "ms"),
    ("tokenizer.sequence_stats.calls", "count"),
    ("tokenizer.sequence_stats.busy_ms", "ms"),
    ("tokenizer.sequence_stats.self_ms", "ms"),
    ("bricks.place.calls", "count"),
    ("bricks.place.busy_ms", "ms"),
    ("tree.build_spanning_tree.busy_ms", "ms"),
    ("tokens.wire.busy_ms", "ms"),
    ("attach.encode_attachment.calls", "count"),
    ("attach.decode_attachment.calls", "count"),
    ("stability.stability_scores.calls", "count"),
    ("stability.stability_scores.busy_ms", "ms"),
    ("stability.stability_scores.self_ms", "ms"),
    ("stability.assemble_equilibrium_program.busy_ms", "ms"),
    ("stability.linprog.calls", "count"),
    ("stability.linprog.busy_ms", "ms"),
    ("stability.linprog.nit", "count"),
    ("stability.lp.vars", "count"),
    ("stability.lp.nnz", "count"),
    ("bricks.connected_components.busy_ms", "ms"),
    ("geometry.voxelize_points.busy_ms", "ms"),
    ("geometry.extract_surface.busy_ms", "ms"),
    ("geometry.extract_surface.triangles", "count"),
    ("geometry.sample_surface.busy_ms", "ms"),
    ("geometry.normalize_cloud.busy_ms", "ms"),
    ("geometry.chamfer.busy_ms", "ms"),
    ("reward.total_reward.calls", "count"),
    ("reward.total_reward.self_ms", "ms"),
    ("reward.build_preference_pairs.busy_ms", "ms"),
    ("reward.build_preference_pairs.pairs", "count"),
    ("decode.generate.self_ms", "ms"),
    ("decode.propose.calls", "count"),
    ("decode.propose.busy_ms", "ms"),
    ("decode.validate_tuple.calls", "count"),
    ("decode.validate_tuple.accept_frac", "frac"),
    ("decode.rollback.calls", "count"),
    ("decode.rollback.busy_ms", "ms"),
    ("decode.replay.busy_ms", "ms"),
    ("decode.resamples", "count"),
    ("decode.discarded_tokens", "count"),
    ("ldraw.export_ldraw.busy_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.tokenize.wall_ms", "ms"),
    ("cli.detokenize.wall_ms", "ms"),
    ("cli.validate.wall_ms", "ms"),
    ("cli.stability.wall_ms", "ms"),
    ("cli.score.wall_ms", "ms"),
    ("cli.generate.wall_ms", "ms"),
    ("cli.export-ldraw.wall_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)

# Metrics that must repeat exactly between runs of one seed.
EXACT = tuple(name for name, unit in PER_LAYER
              if name.endswith(".calls") or name in (
                  "stability.linprog.nit", "stability.lp.vars", "stability.lp.nnz",
                  "geometry.extract_surface.triangles",
                  "reward.build_preference_pairs.pairs", "decode.resamples",
                  "decode.discarded_tokens", "decode.validate_tuple.accept_frac"))

_NULL = contextlib.nullcontext()


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.op = -1
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def _spanned(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name, fn, accepted=None):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if accepted is not None and accepted(result):
                counts[name + ".accepted"] += 1
            return result
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper, static=False):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def install(self):
        """Wrap every layer boundary the per-layer metrics name.

        A boundary the package no longer has raises ``KeyError``, so the
        traced run fails rather than reading 0 for that layer.
        """
        import numpy as np
        from brickforge import decode, ldraw, reward, stability, tokenizer, tree

        counts = self.counts

        def add(key, value):
            counts[key] += value

        def nnz(matrix) -> int:  # dense arrays and scipy sparse matrices alike
            if hasattr(matrix, "count_nonzero"):
                return int(matrix.count_nonzero())
            return int(np.count_nonzero(matrix))

        def on_program(program):
            add("stability.lp.vars", program.c.size)
            add("stability.lp.nnz", nnz(program.A_eq) + nnz(program.A_ub))

        spanned = [
            (tokenizer, "tokenize", "tokenizer.tokenize", None),
            (tokenizer, "detokenize", "tokenizer.detokenize", None),
            (tokenizer, "detokenize_lenient", "tokenizer.detokenize_lenient", None),
            (tokenizer, "sequence_stats", "tokenizer.sequence_stats", None),
            (tokenizer, "place", "bricks.place", None),
            (tokenizer, "build_spanning_tree", "tree.build_spanning_tree", None),
            (stability, "connected_components", "bricks.connected_components", None),
            (stability, "assemble_equilibrium_program",
             "stability.assemble_equilibrium_program", on_program),
            (stability, "linprog", "stability.linprog",
             lambda res: add("stability.linprog.nit", int(res.nit))),
            (reward, "stability_scores", "stability.stability_scores", None),
            (decode, "stability_scores", "stability.stability_scores", None),
            (reward, "voxelize_points", "geometry.voxelize_points", None),
            (reward, "extract_surface", "geometry.extract_surface",
             lambda mesh: add("geometry.extract_surface.triangles", mesh.n_triangles())),
            (reward, "sample_surface", "geometry.sample_surface", None),
            (reward, "normalize_cloud", "geometry.normalize_cloud", None),
            (reward, "chamfer", "geometry.chamfer", None),
            (reward, "total_reward", "reward.total_reward", None),
            (reward, "build_preference_pairs", "reward.build_preference_pairs",
             lambda pairs: add("reward.build_preference_pairs.pairs", len(pairs))),
            (decode, "generate", "decode.generate", None),
            (decode.GreedyGeometryPolicy, "propose", "decode.propose", None),
            (decode, "rollback", "decode.rollback", None),
            (ldraw, "export_ldraw", "ldraw.export_ldraw", None),
        ]
        for owner, attr, name, after in spanned:
            self._patch(owner, attr, self._spanned(name, vars(owner)[attr], after))
        self._patch(decode.DecodeState, "replay",
                    self._spanned("decode.replay", decode.DecodeState.replay), static=True)

        counted = [
            (tokenizer, "encode_attachment", "attach.encode_attachment", None),
            (tree, "encode_attachment", "attach.encode_attachment", None),
            (tokenizer, "decode_attachment", "attach.decode_attachment", None),
            (decode, "decode_attachment", "attach.decode_attachment", None),
            (decode, "validate_tuple", "decode.validate_tuple",
             lambda res: res[0] is not None),
        ]
        for owner, attr, name, accepted in counted:
            self._patch(owner, attr, self._counted(name, vars(owner)[attr], accepted))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- reporting -------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls, busy and self time for every span name, plus the
        counters; names not seen are absent (the caller fills zeros)."""
        child_s: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_s[sid]
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.busy_ms"] = 1e3 * busy[name] / passes
            out[f"{name}.self_ms"] = 1e3 * own[name] / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        vt = self.counts.get("decode.validate_tuple.calls", 0)
        if vt:
            out["decode.validate_tuple.accept_frac"] = (
                self.counts.get("decode.validate_tuple.accepted", 0) / vt)
        return out

    def dump(self, path, header: dict):
        with open(path, "w") as fh:
            json.dump(dict(header, fields=["name", "start", "end", "parent", "op"],
                           spans=self.spans), fh, separators=(",", ":"))


def null_span(name: str):
    """Stand-in for :meth:`Tracer.span` in untraced runs."""
    return _NULL
