"""brickforge: tree tokenization, stability scoring, geometric rewards, and
validity-constrained generation for voxel-grid brick structures."""

from .attach import AttachmentCode, decode_attachment, encode_attachment
from .bricks import (
    BASE_SIZES,
    CATALOG_SIZES,
    GRID,
    Brick,
    BrickAssembly,
    attachment_edges,
    footprint,
    is_connected,
    place,
)
from .decode import (
    DecodeBudgets,
    GenerateResult,
    GreedyGeometryPolicy,
    Policy,
    ScriptedPolicy,
    SubprocessPolicy,
    UniformLegalPolicy,
    generate,
    rollback,
    validate_tuple,
)
from .geometry import (
    PointCloud,
    SurfaceMesh,
    VoxelGrid,
    chamfer,
    extract_surface,
    iou,
    normalize_cloud,
    sample_surface,
    voxelize_assembly,
    voxelize_points,
)
from .ldraw import export_ldraw
from .reward import (
    PreferencePair,
    RewardBreakdown,
    build_preference_pairs,
    compose_reward,
    dpo_loss,
    post_loss,
    sft_loss,
    total_reward,
)
from .stability import (
    PhysicsParams,
    StabilityReport,
    assemble_equilibrium_program,
    r_stable,
    stability_scores,
)
from .tokenizer import DecodeState, detokenize, detokenize_lenient, sequence_stats, tokenize
from .tokens import CODEBOOK_SIZE, Token, TokenSequence, baseline_codebook, codebook
from .tree import AttachmentTree, build_spanning_tree

__version__ = "0.1.0"
