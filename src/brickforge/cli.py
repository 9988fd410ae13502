"""Command-line surface tying the modules into pipelines.

Every run with the same configuration and inputs is bit-identical in its
outputs; all randomness flows from the --seed flag.  Domain errors exit 1
with a JSON diagnostic envelope {"error": code, "detail": text} on stderr;
usage errors exit 2.  A flag that sets a library argument is passed on
only when given, so an omitted flag means the library's default.

The commands that need numpy or scipy (stability, score, prefpairs,
generate, voxelize) import them inside their handlers, so tokenize,
detokenize, roundtrip, validate, export-ldraw and stats start without them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bricks import BrickAssembly, is_connected
from .errors import BrickforgeError, MalformedInputError
from .ldraw import export_ldraw
from .tokenizer import detokenize, detokenize_lenient, sequence_stats, tokenize
from .tokens import TokenSequence


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
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


def _load_assembly(path: str) -> BrickAssembly:
    return BrickAssembly.from_json(_read(path))


def _load_sequence(path: str) -> TokenSequence:
    return TokenSequence.from_text(_read(path))


def _load_target_grid(args) -> VoxelGrid:
    from .geometry import PointCloud, VoxelGrid, voxelize_points
    if args.target.endswith(".json"):
        return VoxelGrid.from_dict(_read(args.target, as_json=True))
    return voxelize_points(PointCloud.from_text(_read(args.target)), **_given(args, "solid_fill"))


def _scored(args):
    """(path, assembly, reward breakdown) per candidate, scored against --target."""
    from .geometry import PointCloud
    from .reward import total_reward
    target = PointCloud.from_text(_read(args.target))
    params = _physics(args)
    options = _given(args, "samples", "seed", "solid_fill")
    for path in args.candidates:
        assembly = _load_assembly(path)
        yield path, assembly, total_reward(target, assembly, params, **options)


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


_positive = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")
_finite = _checked(float, math.isfinite, "must be finite")
_count = _checked(int, lambda v: v >= 1, "must be an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "must be an integer >= 0")
_samples = _checked(int, lambda v: 1 <= v <= 1 << 20, "must be an integer in [1, 1048576]")


def _physics(args) -> PhysicsParams:
    from .stability import PhysicsParams
    return PhysicsParams(**_given(args, "brick_weight_per_cell", "clutch_tension_capacity",
                                  "slack_tolerance"))


def _cmd_tokenize(args) -> int:
    seq = tokenize(_load_assembly(args.input))
    _emit(seq.to_text() + "\n", args.output)
    return 0


def _cmd_detokenize(args) -> int:
    seq = _load_sequence(args.input)
    if args.lenient:
        assembly, diagnostic = detokenize_lenient(seq)
        if diagnostic:
            sys.stderr.write(json.dumps({"warning": diagnostic}) + "\n")
    else:
        assembly = detokenize(seq)
    _emit(assembly.to_json(), args.output)
    return 0


def _cmd_roundtrip(args) -> int:
    assembly = _load_assembly(args.input)
    seq = tokenize(assembly)
    back = detokenize(seq)
    identical = sorted(back.bricks) == sorted(assembly.bricks)
    print(json.dumps({"identical": identical, "bricks": len(assembly),
                      "tokens": len(seq)}))
    return 0 if identical else 1


def _cmd_validate(args) -> int:
    assembly = _load_assembly(args.input)
    print(json.dumps({"valid": True, "bricks": len(assembly),
                      "connected": is_connected(assembly)}))
    return 0


def _cmd_stability(args) -> int:
    from .stability import stability_scores
    assembly = _load_assembly(args.input)
    report = stability_scores(assembly, _physics(args))
    _emit(report.to_json(), args.output)
    return 0


def _cmd_score(args) -> int:
    for path, _, breakdown in _scored(args):
        sys.stdout.write(json.dumps({"candidate": path, **breakdown.to_dict()}) + "\n")
    return 0


def _cmd_prefpairs(args) -> int:
    from .reward import build_preference_pairs
    scored = [(tokenize(assembly), breakdown) for _, assembly, breakdown in _scored(args)]
    for pair in build_preference_pairs(scored, condition=args.condition or args.target,
                                       **_given(args, "gap_min", "floor")):
        sys.stdout.write(json.dumps(pair.to_dict()) + "\n")
    return 0


def _cmd_generate(args) -> int:
    from .decode import DecodeBudgets, GreedyGeometryPolicy, UniformLegalPolicy, generate
    target = _load_target_grid(args)
    if args.policy == "uniform":
        policy = UniformLegalPolicy()
    else:
        policy = GreedyGeometryPolicy(**_given(args, "temperature"))
    budgets = DecodeBudgets(**_given(args, "max_resamples_per_tuple", "max_rollbacks",
                                     "max_bricks"))
    result = generate(policy, target, budgets, _physics(args), **_given(args, "seed"))
    _emit(result.assembly.to_json(), args.output)
    if args.emit_tokens:
        Path(args.emit_tokens).write_text(result.sequence.to_text() + "\n")
    trace = result.trace.to_dict()
    trace["stable"] = result.stable
    sys.stderr.write(json.dumps(trace) + "\n")
    return 0


def _cmd_export_ldraw(args) -> int:
    _emit(export_ldraw(_load_assembly(args.input)), args.output)
    return 0


def _cmd_voxelize(args) -> int:
    from .geometry import PointCloud, voxelize_points
    cloud = PointCloud.from_text(_read(args.input))
    grid = voxelize_points(cloud, **_given(args, "solid_fill"))
    _emit(json.dumps(grid.to_dict(), indent=2) + "\n", args.output)
    return 0


def _cmd_stats(args) -> int:
    per_file = []
    for path in args.inputs:
        stats = sequence_stats(_load_sequence(path))
        per_file.append({"file": path, "N": stats.n_bricks, "I": stats.n_eop,
                         "T": stats.length})
    mean_t = sum(s["T"] for s in per_file) / len(per_file)
    print(json.dumps({"sequences": per_file, "mean_T": mean_t}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="brickforge",
                                     description="Brick structure tokenization, "
                                                 "stability, rewards, and generation")
    sub = parser.add_subparsers(dest="command", required=True)
    omit = {"argument_default": argparse.SUPPRESS}  # see _given

    physics = argparse.ArgumentParser(add_help=False, **omit)
    physics.add_argument("--clutch", dest="clutch_tension_capacity", metavar="CLUTCH",
                         type=_positive, help="clutch tension capacity per stud contact")
    physics.add_argument("--weight", dest="brick_weight_per_cell", metavar="WEIGHT",
                         type=_positive, help="brick weight per footprint cell")
    physics.add_argument("--slack-eps", dest="slack_tolerance", metavar="SLACK_EPS",
                         type=_positive, help="equilibrium slack tolerance")
    fill = argparse.ArgumentParser(add_help=False, **omit)
    fill.add_argument("--no-solid-fill", dest="solid_fill", action="store_false")
    scoring = argparse.ArgumentParser(add_help=False, **omit)
    scoring.add_argument("--target", required=True, help="target point cloud (.xyz)")
    scoring.add_argument("candidates", nargs="+")
    scoring.add_argument("--samples", type=_samples)
    scoring.add_argument("--seed", type=_seed)

    p = sub.add_parser("tokenize", help="assembly JSON -> token text")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("detokenize", help="token text -> assembly JSON")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--lenient", action="store_true",
                   help="stop at the first structural violation instead of failing")
    p.set_defaults(func=_cmd_detokenize)

    p = sub.add_parser("roundtrip", help="check detokenize(tokenize(A)) == A")
    p.add_argument("input")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("validate", help="check bounds, collisions, connectivity")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stability", help="per-brick stability report", parents=[physics])
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("score", help="reward breakdown per candidate (JSON lines)",
                       parents=[scoring, fill, physics])
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("prefpairs", help="preference pairs from scored candidates",
                       parents=[scoring, fill, physics], **omit)
    p.add_argument("--gap-min", type=_finite)
    p.add_argument("--floor", type=_finite)
    p.add_argument("--condition", default=None)
    p.set_defaults(func=_cmd_prefpairs)

    p = sub.add_parser("generate", help="constrained generation toward a target",
                       parents=[fill, physics], **omit)
    p.add_argument("--target", required=True,
                   help="point cloud (.xyz) or voxel grid (.json)")
    p.add_argument("--policy", choices=("uniform", "greedy"), default="greedy")
    p.add_argument("--temperature", type=_finite)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--max-resamples", dest="max_resamples_per_tuple", metavar="MAX_RESAMPLES",
                   type=_count)
    p.add_argument("--max-rollbacks", type=_count)
    p.add_argument("--max-bricks", type=_count)
    p.add_argument("--emit-tokens", default=None, help="also write the token sequence here")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("export-ldraw", help="assembly JSON -> LDraw document")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export_ldraw)

    p = sub.add_parser("voxelize", help="point cloud -> occupancy grid JSON", parents=[fill])
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_voxelize)

    p = sub.add_parser("stats", help="sequence length statistics")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrickforgeError as err:
        sys.stderr.write(json.dumps({"error": err.code, "detail": str(err)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
