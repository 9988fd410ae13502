"""Command-line surface tying the modules into pipelines.

Every run with the same configuration and inputs is bit-identical in its
outputs; all randomness flows from the --seed flag.  Domain errors exit 1
with a JSON diagnostic envelope {"error": code, "detail": text} on stderr
and nothing on stdout (see _emit); usage errors exit 2.  A flag that sets
a library argument is passed on only when given, so an omitted flag means
the library's default.

Handlers reach the library through the package's names (``bf.tokenize``),
each of which loads its module on first use, so a command loads only the
modules it uses: validate loads ``bricks`` and ``errors`` alone, and only
stability, score, prefpairs, generate and voxelize load numpy or scipy.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path

import brickforge as bf

from .errors import BrickforgeError, MalformedInputError


_temps: dict[str, str] = {}  # output path -> its temporary file, from main until _emit


def _reserve(out: str):
    """Before a command's work, an empty temporary file beside ``out`` (after symlinks),
    with its mode, for _emit to fill and move over it; a device or a pipe gets none."""
    try:  # the checks follow symlinks, so /dev/stdout on a pipe is a pipe
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if os.path.isfile(out) or not os.path.exists(out):
            mode = os.stat(out).st_mode & 0o7777 if os.path.exists(out) else 0o666
            temp = f"{os.path.realpath(out)}.{os.urandom(4).hex()}.tmp"
            os.close(os.open(temp, os.O_CREAT | os.O_EXCL, mode))
            _temps[out] = temp
    except OSError as err:  # a missing directory, a directory, no permission
        raise MalformedInputError(f"cannot write {out}: {err.strerror}") from None


def _emit(text: str, out: str | None = None, *files: tuple[str, str]):
    """Write a command's results after all of its work: each (text, path) of ``files``,
    then ``text`` to the file ``out`` or to stdout.  Every file is written to its
    reserved temporary file before any moves over its path, so each lands whole."""
    files += ((text, out),) if out else ()
    try:
        for data, path in files:
            Path(_temps.get(path, path)).write_text(data)
        for _, path in files:
            if path in _temps:
                os.replace(_temps.pop(path), os.path.realpath(path))
    except OSError as err:
        raise MalformedInputError(f"cannot write {path}: {err.strerror}") from None
    if not out:
        sys.stdout.write(text)


def _read(path: str, as_json: bool = False):
    """The text of an input file, or its JSON value.  An unreadable path,
    undecodable bytes and invalid or too deeply nested JSON raise
    MalformedInputError, so no loader leaks a traceback."""
    try:
        text = Path(path).read_text()
        return json.loads(text) if as_json else text
    except OSError as err:  # missing file, a directory, no permission
        raise MalformedInputError(f"cannot read {path}: {err.strerror}") from None
    except (ValueError, RecursionError) as err:  # undecodable, not JSON, nested too deep
        raise MalformedInputError(f"{path} is not {'JSON' if as_json else 'text'}: {err}") from None


def _given(args, *names) -> dict:
    """The keyword arguments among ``names`` whose flags were given.  Such
    flags default to argparse.SUPPRESS, so an omitted one is absent from
    ``args`` and the library's own default applies."""
    return {name: getattr(args, name) for name in names if name in args}


def _load_assembly(path: str) -> bf.BrickAssembly:
    return bf.BrickAssembly.from_json(_read(path))


def _load_sequence(path: str) -> bf.TokenSequence:
    return bf.TokenSequence.from_text(_read(path))


def _load_target_grid(args) -> bf.VoxelGrid:
    if args.target.endswith(".json"):
        return bf.VoxelGrid.from_dict(_read(args.target, as_json=True))
    return bf.voxelize_points(bf.PointCloud.from_text(_read(args.target)),
                              **_given(args, "solid_fill"))


def _scored(args):
    """(path, assembly, reward breakdown) per candidate, scored against --target."""
    target = bf.PointCloud.from_text(_read(args.target))
    params = _physics(args)
    options = _given(args, "samples", "seed", "solid_fill")
    for path in args.candidates:
        assembly = _load_assembly(path)
        yield path, assembly, bf.total_reward(target, assembly, params, **options)


def _checked(convert, accept, want: str):
    """An argparse ``type=``: text that ``convert`` rejects, or a value that
    ``accept`` refuses, is a usage error (exit 2)."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{want}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_finite = _checked(float, math.isfinite, "must be finite")
_gap = _checked(float, lambda v: 0 <= v < math.inf, "must be finite and >= 0")
_seed = _checked(int, lambda v: v >= 0, "must be an integer >= 0")
_samples = _checked(int, lambda v: 2 <= v <= 1 << 20, "must be an integer in [2, 1048576]")


def _record_field(record: str, name: str, convert=float):
    """An argparse ``type=`` for the field ``name`` of the package's record ``record``, looked
    up at parse time: a value the record refuses is a usage error (exit 2) giving its reason."""
    def parse(text: str):
        value = convert(text)
        try:
            getattr(bf, record)(**{name: value})
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"{err} (from {text!r})") from None
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


def _physics(args) -> bf.PhysicsParams:
    return bf.PhysicsParams(**_given(args, "brick_weight_per_cell", "clutch_tension_capacity",
                                     "slack_tolerance"))


def _cmd_tokenize(args) -> int:
    _emit(bf.tokenize(_load_assembly(args.input)).to_text() + "\n", args.output)
    return 0


def _cmd_detokenize(args) -> int:
    seq = _load_sequence(args.input)
    if args.lenient:
        assembly, diagnostic = bf.detokenize_lenient(seq)
        if diagnostic:
            sys.stderr.write(json.dumps({"warning": diagnostic}) + "\n")
    else:
        assembly = bf.detokenize(seq)
    _emit(assembly.to_json(), args.output)
    return 0


def _cmd_roundtrip(args) -> int:
    assembly = _load_assembly(args.input)
    seq = bf.tokenize(assembly)
    back = bf.detokenize(seq)
    identical = sorted(back.bricks) == sorted(assembly.bricks)
    _emit(json.dumps({"identical": identical, "bricks": len(assembly), "tokens": len(seq)}) + "\n")
    return 0 if identical else 1


def _cmd_validate(args) -> int:
    assembly = _load_assembly(args.input)
    _emit(json.dumps({"valid": True, "bricks": len(assembly),
                      "connected": bf.is_connected(assembly)}) + "\n")
    return 0


def _cmd_stability(args) -> int:
    _emit(bf.stability_scores(_load_assembly(args.input), _physics(args)).to_json(), args.output)
    return 0


def _cmd_score(args) -> int:
    _emit("".join(json.dumps({"candidate": path, **breakdown.to_dict()}) + "\n"
                  for path, _, breakdown in _scored(args)))
    return 0


def _cmd_prefpairs(args) -> int:
    scored = [(bf.tokenize(assembly), breakdown) for _, assembly, breakdown in _scored(args)]
    pairs = bf.build_preference_pairs(scored, condition=args.condition or args.target,
                                      **_given(args, "gap_min", "floor"))
    _emit("".join(json.dumps(pair.to_dict()) + "\n" for pair in pairs))
    return 0


def _cmd_generate(args) -> int:
    target = _load_target_grid(args)
    policy = (bf.UniformLegalPolicy() if args.policy == "uniform"
              else bf.GreedyGeometryPolicy(**_given(args, "temperature")))
    budgets = bf.DecodeBudgets(**_given(args, "max_resamples_per_tuple", "max_rollbacks",
                                        "max_bricks"))
    result = bf.generate(policy, target, budgets, _physics(args), **_given(args, "seed"))
    tokens = ((result.sequence.to_text() + "\n", args.emit_tokens),) if args.emit_tokens else ()
    _emit(result.assembly.to_json(), args.output, *tokens)
    sys.stderr.write(json.dumps({**result.trace.to_dict(), "stable": result.stable}) + "\n")
    return 0


def _cmd_export_ldraw(args) -> int:
    _emit(bf.export_ldraw(_load_assembly(args.input)), args.output)
    return 0


def _cmd_voxelize(args) -> int:
    cloud = bf.PointCloud.from_text(_read(args.input))
    grid = bf.voxelize_points(cloud, **_given(args, "solid_fill"))
    _emit(json.dumps(grid.to_dict(), indent=2) + "\n", args.output)
    return 0


def _cmd_stats(args) -> int:
    per_file = [{"file": path, **dict(zip("NIT", bf.sequence_stats(_load_sequence(path))))}
                for path in args.inputs]  # (N, I, T): bricks, EOPs, length
    mean_t = sum(s["T"] for s in per_file) / len(per_file)
    _emit(json.dumps({"sequences": per_file, "mean_T": mean_t}, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brickforge",
                                     description="Brick structure tokenization, "
                                                 "stability, rewards, and generation")
    sub = parser.add_subparsers(dest="command", required=True)
    omit = {"argument_default": argparse.SUPPRESS}  # see _given

    physics = argparse.ArgumentParser(add_help=False, **omit)
    for flag, name, text in (("--clutch", "clutch_tension_capacity",
                              "clutch tension capacity per stud contact"),
                             ("--weight", "brick_weight_per_cell", "brick weight per footprint cell"),
                             ("--slack-eps", "slack_tolerance", "equilibrium slack tolerance")):
        physics.add_argument(flag, dest=name, metavar=flag[2:].upper().replace("-", "_"),
                             type=_record_field("PhysicsParams", name), help=text)
    fill = argparse.ArgumentParser(add_help=False, **omit)
    fill.add_argument("--no-solid-fill", dest="solid_fill", action="store_false")
    scoring = argparse.ArgumentParser(add_help=False, **omit)
    scoring.add_argument("--target", required=True, help="target point cloud (.xyz)")
    scoring.add_argument("candidates", nargs="+")
    scoring.add_argument("--samples", type=_samples)
    scoring.add_argument("--seed", type=_seed)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("input")
    sink = argparse.ArgumentParser(add_help=False)
    sink.add_argument("-o", "--output")

    p = sub.add_parser("tokenize", help="assembly JSON -> token text", parents=[source, sink])
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("detokenize", help="token text -> assembly JSON", parents=[source, sink])
    p.add_argument("--lenient", action="store_true",
                   help="stop at the first structural violation instead of failing")
    p.set_defaults(func=_cmd_detokenize)

    p = sub.add_parser("roundtrip", help="check detokenize(tokenize(A)) == A", parents=[source])
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("validate", help="check bounds, collisions, connectivity",
                       parents=[source])
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stability", help="per-brick stability report",
                       parents=[source, sink, physics])
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("score", help="reward breakdown per candidate (JSON lines)",
                       parents=[scoring, fill, physics])
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("prefpairs", help="preference pairs from scored candidates",
                       parents=[scoring, fill, physics], **omit)
    p.add_argument("--gap-min", type=_gap)
    p.add_argument("--floor", type=_finite)
    p.add_argument("--condition", default=None)
    p.set_defaults(func=_cmd_prefpairs)

    p = sub.add_parser("generate", help="constrained generation toward a target",
                       parents=[fill, physics, sink], **omit)
    p.add_argument("--target", required=True,
                   help="point cloud (.xyz) or voxel grid (.json)")
    p.add_argument("--policy", choices=("uniform", "greedy"), default="greedy")
    p.add_argument("--temperature", type=_finite)
    p.add_argument("--seed", type=_seed)
    for flag, name in (("--max-resamples", "max_resamples_per_tuple"),
                       ("--max-rollbacks", "max_rollbacks"), ("--max-bricks", "max_bricks")):
        p.add_argument(flag, dest=name, metavar=flag[2:].upper().replace("-", "_"),
                       type=_record_field("DecodeBudgets", name, int))
    p.add_argument("--emit-tokens", default=None, help="also write the token sequence here")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("export-ldraw", help="assembly JSON -> LDraw document",
                       parents=[source, sink])
    p.set_defaults(func=_cmd_export_ldraw)

    p = sub.add_parser("voxelize", help="point cloud -> occupancy grid JSON",
                       parents=[source, sink, fill])
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("stats", help="sequence length statistics")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for out in filter(None, dict.fromkeys(map(vars(args).get, ("output", "emit_tokens")))):
            _reserve(out)
        return args.func(args)
    except BrickforgeError as err:
        sys.stderr.write(json.dumps({"error": err.code, "detail": str(err)}) + "\n")
        return 1
    finally:  # a failed command leaves no temporary file
        while _temps:
            os.remove(_temps.popitem()[1])


if __name__ == "__main__":
    sys.exit(main())
