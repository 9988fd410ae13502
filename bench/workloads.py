"""The four workloads: inputs as library objects, one op, its check, the
canonical form of its output, and the quality metrics.

Importing this module imports brickforge, so the run imports it inside
the timed set-up.  Every call into a layer goes through the module that
the tracer patches (``tokenizer.tokenize``, ``reward.total_reward`` ...).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from brickforge import decode, geometry, ldraw, reward, stability, tokenizer
from brickforge.bricks import GRID, Brick, BrickAssembly, is_connected
from brickforge.errors import SolverFailureError
from brickforge.geometry import PointCloud, VoxelGrid
from brickforge.tokens import KIND_F, PAD, TokenSequence

import inputs
from tracer import null_span


class OpFailed:
    """Stands in for the output of an op that raised; fails every check."""

    def __init__(self, err: BaseException):
        self.text = f"{type(err).__name__}: {err}"

    def __repr__(self):
        return f"OpFailed({self.text})"


def assembly_of(bricks) -> BrickAssembly:
    return BrickAssembly(tuple(Brick(*b) for b in bricks))


def cloud_of(cells) -> PointCloud:
    return PointCloud(np.asarray(cells, dtype=float) + 0.5)


def grid_of(cells) -> VoxelGrid:
    occ = np.zeros((GRID, GRID, GRID), dtype=bool)
    for x, y, z in cells:
        occ[x, y, z] = True
    return VoxelGrid(occ)


class Workload:
    """One op per prepared input; ``run_pass`` times each op."""

    name = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.tracer = None
        self.span = null_span
        self.unscored: list[int] = []

    def trace_with(self, tracer):
        self.tracer = tracer
        self.span = tracer.span if tracer else null_span

    def warmup(self, items: list[dict]) -> list[dict]:
        """The first item of each stratum: every code path, once."""
        seen, out = set(), []
        for item in items:
            if item["stratum"] not in seen:
                seen.add(item["stratum"])
                out.append(item)
        return out

    def warm_up(self, items: list[dict]):
        """The untimed warm-up pass that set-up time includes."""
        self.run_pass(self.prepare(self.warmup(items)))

    def prepare(self, items: list[dict]) -> list:
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def run_pass(self, prepared: list) -> tuple[list, list[float], list]:
        """(outputs, latencies in s, extra outputs not tied to one op)."""
        outs, lats = [], []
        for x in prepared:
            outs.append(self._timed(x, lats))
        return outs, lats, []

    def _timed(self, x, lats):
        if self.tracer is not None:
            self.tracer.op += 1
        start = perf_counter()
        try:
            out = self.op(x)
        except Exception as err:  # a failed op is counted, never raised
            out = OpFailed(err)
        lats.append(perf_counter() - start)
        return out

    def canonical(self, x, out) -> str:
        raise NotImplementedError

    def check(self, x, out) -> bool:
        raise NotImplementedError

    def check_extra(self, prepared, extra) -> bool:
        return True

    def quality(self, prepared, outs) -> tuple[float, float]:
        """(mean_iou, stable_frac) over one pass of outputs."""
        raise NotImplementedError

    def stable_bricks(self, indexed) -> tuple[int, int]:
        """(bricks scoring > 0, bricks) over ``(op index, assembly)`` pairs.

        An assembly on which the stability LP fails has no scores: its
        bricks count as not stable, and its op index goes into
        ``self.unscored``, which the run record reports.
        """
        good = total = 0
        for i, assembly in indexed:
            try:
                scores = stability.stability_scores(assembly).scores
            except SolverFailureError:
                self.unscored.append(i)
                total += len(assembly)
                continue
            good += sum(s > 0.0 for s in scores)
            total += len(scores)
        return good, total

    def peak_rss_kb(self) -> int | None:
        """Peak RSS to report when it is not this process's own."""
        return None


# -- corpus -------------------------------------------------------------


@dataclass
class CorpusInput:
    assembly: BrickAssembly
    corrupted: TokenSequence | None


def corrupt(seq: TokenSequence) -> TokenSequence:
    """Replace the middle child tuple's f token with PAD, the way a model
    might emit a token of the wrong kind mid-body."""
    tokens = seq.tokens
    f_positions = [i for i, t in enumerate(tokens) if t.kind == KIND_F]
    p = f_positions[len(f_positions) // 2]
    return TokenSequence(tokens[:p] + (PAD,) + tokens[p + 1:])


class Corpus(Workload):
    name = "corpus"

    def prepare(self, items):
        out = []
        for item in items:
            assembly = assembly_of(item["bricks"])
            bad = corrupt(tokenizer.tokenize(assembly)) if item["lenient"] else None
            out.append(CorpusInput(assembly, bad))
        return out

    def op(self, x):
        seq = tokenizer.tokenize(x.assembly)
        with self.span("tokens.wire"):
            text = seq.to_text()
            blob = seq.to_binary()
            from_text = TokenSequence.from_text(text)
            from_blob = TokenSequence.from_binary(blob)
        back = tokenizer.detokenize(from_text)
        stats = tokenizer.sequence_stats(from_blob)
        ldr = ldraw.export_ldraw(back)
        lenient = tokenizer.detokenize_lenient(x.corrupted) if x.corrupted else None
        return seq, text, blob, from_text, from_blob, back, stats, ldr, lenient

    def canonical(self, x, out):
        if isinstance(out, OpFailed):
            return repr(out)
        seq, text, blob, _, _, back, stats, ldr, lenient = out
        partial = (lenient[0].bricks, lenient[1]) if lenient else None
        return repr((text, blob.hex(), back.bricks, stats, ldr, partial))

    def check(self, x, out):
        if isinstance(out, OpFailed):
            return False
        seq, text, blob, from_text, from_blob, back, stats, ldr, lenient = out
        n = len(x.assembly)
        ok = (from_text == seq and from_blob == seq
              # BrickAssembly equality depends on order; the roundtrip
              # command compares sorted bricks the same way
              and sorted(back.bricks) == sorted(x.assembly.bricks)
              and tokenizer.tokenize(back) == seq
              and stats.n_bricks == n and stats.length == len(seq)
              and sum(line.startswith("1 ") for line in ldr.splitlines()) == n)
        if x.corrupted is not None:
            partial, diagnostic = lenient
            ok = ok and (diagnostic is not None and len(partial) < n
                         and partial.bricks == back.bricks[:len(partial)])
        return ok

    def quality(self, prepared, outs):
        ious, backs = [], []
        for i, (x, out) in enumerate(zip(prepared, outs)):
            if isinstance(out, OpFailed):
                ious.append(0.0)
                continue
            back = out[5]
            backs.append((i, back))
            ious.append(geometry.iou(geometry.voxelize_assembly(x.assembly),
                                     geometry.voxelize_assembly(back)))
        good, total = self.stable_bricks(backs)
        return sum(ious) / len(ious), good / max(total, 1)


# -- score --------------------------------------------------------------


@dataclass
class ScoreInput:
    cloud: PointCloud
    candidate: BrickAssembly
    sequence: TokenSequence
    sample_seed: int
    target: int
    last: bool


class Score(Workload):
    name = "score"

    def prepare(self, items):
        out = []
        for t, item in enumerate(items):
            cloud = cloud_of(item["cloud"])
            cands = item["candidates"]
            for k, bricks in enumerate(cands):
                assembly = assembly_of(bricks)
                out.append(ScoreInput(cloud, assembly, tokenizer.tokenize(assembly),
                                      item["sample_seed"], t, k == len(cands) - 1))
        return out

    def op(self, x):
        return reward.total_reward(x.cloud, x.candidate, seed=x.sample_seed)

    def run_pass(self, prepared):
        outs, lats, pairs = [], [], []
        group = []
        for x in prepared:
            out = self._timed(x, lats)
            outs.append(out)
            if not isinstance(out, OpFailed):
                group.append((x.sequence, out))
            if x.last:
                pairs.append(reward.build_preference_pairs(group, condition=f"t{x.target}"))
                group = []
        return outs, lats, pairs

    def canonical(self, x, out):
        return repr(out) if isinstance(out, OpFailed) else json.dumps(out.to_dict())

    def check(self, x, out):
        if isinstance(out, OpFailed):
            return False
        values = out.to_dict().values()
        return (all(math.isfinite(v) for v in values)
                and reward.compose_reward(out.r_iou, out.d_cd, out.r_stable) == out
                and all(0.0 <= v <= 1.0 for v in (out.r_iou, out.r_cd, out.r_stable)))

    def check_extra(self, prepared, extra):
        return all(p.reward_gap >= reward.PAIR_GAP_MIN and p.reward_winner >= reward.PAIR_FLOOR
                   for pairs in extra for p in pairs)

    def quality(self, prepared, outs):
        ious = [0.0 if isinstance(o, OpFailed) else o.r_iou for o in outs]
        good, total = self.stable_bricks(enumerate(x.candidate for x in prepared))
        return sum(ious) / len(ious), good / max(total, 1)


# -- generate -----------------------------------------------------------


@dataclass
class GenerateInput:
    target: VoxelGrid
    policy: decode.Policy
    budgets: decode.DecodeBudgets | None
    seed: int


class Generate(Workload):
    name = "generate"

    def warmup(self, items):
        """The column and one short uniform run.  Together they run the
        greedy and the uniform paths, rejection, rollback and replay; the
        block and the other targets cost far more and run nothing new."""
        return [x for x in super().warmup(items) if x["stratum"] in ("column", "uniform-short")]

    def prepare(self, items):
        out = []
        for item in items:
            if item["policy"] == "uniform":
                policy = decode.UniformLegalPolicy()
            else:
                policy = decode.GreedyGeometryPolicy(temperature=item["temperature"])
            budgets = (decode.DecodeBudgets(max_bricks=item["max_bricks"])
                       if item["max_bricks"] else None)
            out.append(GenerateInput(grid_of(item["cells"]), policy, budgets, item["gen_seed"]))
        return out

    def op(self, x):
        result = decode.generate(x.policy, x.target, x.budgets, seed=x.seed)
        if self.tracer is not None:
            counts = self.tracer.counts
            counts["decode.resamples"] += result.trace.resamples
            counts["decode.discarded_tokens"] += sum(
                e.body_len_before - e.body_len_after for e in result.trace.rollback_events)
        return result

    def canonical(self, x, out):
        if isinstance(out, OpFailed):
            return repr(out)
        return repr((out.sequence.to_text(), out.trace.to_dict(), out.report.scores))

    def check(self, x, out):
        if isinstance(out, OpFailed):
            return False
        occupied = set()
        for b in out.assembly.bricks:
            if not (0 <= b.x and b.x + b.h <= GRID and 0 <= b.y and b.y + b.w <= GRID
                    and 0 <= b.z < GRID):
                return False
            for cell in b.cells():
                if (cell, b.z) in occupied:
                    return False
                occupied.add((cell, b.z))
        back = tokenizer.detokenize(out.sequence, mode="strict")
        return sorted(back.bricks) == sorted(out.assembly.bricks)

    def quality(self, prepared, outs):
        ious, good, total = [], 0, 0
        for x, out in zip(prepared, outs):
            if isinstance(out, OpFailed):
                ious.append(0.0)
                continue
            ious.append(geometry.iou(geometry.voxelize_assembly(out.assembly), x.target))
            good += sum(s > 0.0 for s in out.report.scores)
            total += len(out.report.scores)
        return sum(ious) / len(ious), good / max(total, 1)


# -- cli ----------------------------------------------------------------


@dataclass
class CliInput:
    command: str
    argv: list[str]
    expected: object


@dataclass
class CliOutput:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def spawn(argv: list[str], workdir: Path) -> CliOutput:
    """Run one child to completion; its own peak RSS comes from wait4."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutput(proc.returncode, out_path.read_text(), err_path.read_text(),
                     usage.ru_maxrss)


class Cli(Workload):
    """One op is one ``python -m brickforge.cli`` process."""

    name = "cli"

    def __init__(self, workdir):
        super().__init__(workdir)
        self.max_child_rss_kb = 0

    def warm_up(self, items):
        """Children start cold whatever this process did, so the warm-up is
        the in-process reference result of each command, which runs the
        same library code once."""
        self.prepare(self.warmup(items))

    def prepare(self, items):
        self.workdir.mkdir(parents=True, exist_ok=True)
        column = self.workdir / "column.json"
        column.write_text(json.dumps(grid_of(inputs.column_cells()).to_dict()))
        out = []
        for item in items:
            r, cmd = item["round"], item["command"]
            assembly = assembly_of(item["bricks"])
            asm_path = self.workdir / f"asm{r}.json"
            asm_path.write_text(assembly.to_json())
            base = [sys.executable, "-m", "brickforge.cli", cmd]
            if cmd == "tokenize":
                expected = tokenizer.tokenize(assembly)
                argv = base + [str(asm_path)]
            elif cmd == "detokenize":
                seq_path = self.workdir / f"seq{r}.txt"
                seq_path.write_text(tokenizer.tokenize(assembly).to_text() + "\n")
                expected = tokenizer.detokenize(TokenSequence.from_text(seq_path.read_text()))
                argv = base + [str(seq_path)]
            elif cmd == "validate":
                expected = {"valid": True, "bricks": len(assembly),
                            "connected": is_connected(assembly)}
                argv = base + [str(asm_path)]
            elif cmd == "stability":
                expected = json.loads(stability.stability_scores(assembly).to_json())
                argv = base + [str(asm_path)]
            elif cmd == "score":
                target_path = self.workdir / f"target{r}.xyz"
                target_path.write_text(cloud_of(inputs.cells(item["bricks"])).to_text())
                cloud = PointCloud.from_text(target_path.read_text())
                paths, expected = [], []
                for k, bricks in enumerate(item["candidates"]):
                    path = self.workdir / f"cand{r}_{k}.json"
                    cand = assembly_of(bricks)
                    path.write_text(cand.to_json())
                    paths.append(str(path))
                    record = {"candidate": str(path)}
                    record.update(reward.total_reward(cloud, cand, seed=item["sample_seed"])
                                  .to_dict())
                    expected.append(record)
                argv = base + ["--target", str(target_path), "--seed",
                               str(item["sample_seed"])] + paths
            elif cmd == "generate":
                target = VoxelGrid.from_dict(json.loads(column.read_text()))
                expected = decode.generate(decode.GreedyGeometryPolicy(0.0), target,
                                           seed=r).assembly
                argv = base + ["--target", str(column), "--seed", str(r)]
            else:  # export-ldraw
                expected = ldraw.export_ldraw(assembly)
                argv = base + [str(asm_path)]
            out.append(CliInput(cmd, argv, expected))
        return out

    def op(self, x):
        with self.span(f"cli.{x.command}"):
            out = spawn(x.argv, self.workdir)
        self.max_child_rss_kb = max(self.max_child_rss_kb, out.maxrss_kb)
        return out

    def parsed(self, x, out):
        text = out.stdout
        if x.command == "tokenize":
            return TokenSequence.from_text(text)
        if x.command in ("detokenize", "generate"):
            return BrickAssembly.from_json(text)
        if x.command in ("validate", "stability"):
            return json.loads(text)
        if x.command == "score":
            return [json.loads(line) for line in text.splitlines()]
        return text

    def canonical(self, x, out):
        if isinstance(out, OpFailed):
            return repr(out)
        # the score command echoes candidate paths, which name this run's workdir
        return repr((out.returncode, out.stdout.replace(str(self.workdir), "<workdir>")))

    def check(self, x, out):
        if isinstance(out, OpFailed) or out.returncode != 0:
            return False
        try:
            return self.parsed(x, out) == x.expected
        except (ValueError, KeyError):
            return False

    def quality(self, prepared, outs):
        ious, good, total = [], 0, 0
        for x, out in zip(prepared, outs):
            if not self.check(x, out):
                continue
            if x.command == "score":
                ious += [record["r_iou"] for record in self.parsed(x, out)]
            elif x.command == "stability":
                scores = self.parsed(x, out)["scores"]
                good += sum(s > 0.0 for s in scores)
                total += len(scores)
        return sum(ious) / max(len(ious), 1), good / max(total, 1)

    def peak_rss_kb(self):
        return self.max_child_rss_kb


WORKLOADS = {w.name: w for w in (Corpus, Score, Generate, Cli)}


def make(name: str, workdir: Path) -> Workload:
    return WORKLOADS[name](workdir)
