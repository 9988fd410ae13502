"""brickforge: tree tokenization, stability scoring, geometric rewards, and
validity-constrained generation for voxel-grid brick structures.

Every exported name loads its module on first use, so a program pays only for
the modules it uses: validating starts without the tokenizer, and tokenizing
without numpy, which ``decode``, ``geometry``, ``reward`` and ``stability`` load.
"""

import importlib

__version__ = "0.1.0"

_LAZY = {name: module for module, names in {
    "attach": "AttachmentCode decode_attachment encode_attachment",
    "bricks": "BASE_SIZES CATALOG_SIZES GRID Brick BrickAssembly attachment_edges is_connected place",
    "decode": "DecodeBudgets GenerateResult GreedyGeometryPolicy Policy ScriptedPolicy "
              "SubprocessPolicy UniformLegalPolicy generate rollback validate_tuple",
    "geometry": "PointCloud SurfaceMesh VoxelGrid chamfer extract_surface iou "
                "normalize_cloud sample_surface voxelize_assembly voxelize_points",
    "ldraw": "export_ldraw",
    "reward": "PreferencePair RewardBreakdown build_preference_pairs compose_reward "
              "dpo_loss post_loss sft_loss total_reward",
    "stability": "PhysicsParams StabilityReport assemble_equilibrium_program stability_scores",
    "tokenizer": "DecodeState detokenize detokenize_lenient sequence_stats tokenize",
    "tokens": "CODEBOOK_SIZE Token TokenSequence baseline_codebook codebook",
    "tree": "AttachmentTree build_spanning_tree",
}.items() for name in names.split()}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
