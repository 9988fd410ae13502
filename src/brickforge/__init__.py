"""brickforge: tree tokenization, stability scoring, geometric rewards, and
validity-constrained generation for voxel-grid brick structures.

The numpy-free modules load with the package.  Names from ``decode``,
``geometry``, ``reward`` and ``stability`` load their module (and numpy) on
first use, so tokenizing and validating start without numpy.
"""

import importlib
import types

from .attach import AttachmentCode, decode_attachment, encode_attachment
from .bricks import (
    BASE_SIZES,
    CATALOG_SIZES,
    GRID,
    Brick,
    BrickAssembly,
    attachment_edges,
    is_connected,
    place,
)
from .ldraw import export_ldraw
from .tokenizer import DecodeState, detokenize, detokenize_lenient, sequence_stats, tokenize
from .tokens import CODEBOOK_SIZE, Token, TokenSequence, baseline_codebook, codebook
from .tree import AttachmentTree, build_spanning_tree

__version__ = "0.1.0"

_LAZY = {name: module for module, names in {
    "decode": "DecodeBudgets GenerateResult GreedyGeometryPolicy Policy ScriptedPolicy "
              "SubprocessPolicy UniformLegalPolicy generate rollback validate_tuple",
    "geometry": "PointCloud SurfaceMesh VoxelGrid chamfer extract_surface iou "
                "normalize_cloud sample_surface voxelize_assembly voxelize_points",
    "reward": "PreferencePair RewardBreakdown build_preference_pairs compose_reward "
              "dpo_loss post_loss sft_loss total_reward",
    "stability": "PhysicsParams StabilityReport assemble_equilibrium_program stability_scores",
}.items() for name in names.split()}

__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, types.ModuleType)] + list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
