"""Importing the package loads neither scipy nor numpy, so the commands that
never solve an LP, build a kd-tree or touch a voxel grid start without paying
for either import; nor does the CLI load ``dataclasses``, and each command
loads only the package modules it uses."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brickforge

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_MODULES = "[m for m in sys.modules if m.startswith('scipy')]"
NUMPY_MODULES = "[m for m in sys.modules if m.startswith('numpy')]"
PACKAGE_MODULES = "sorted(m for m in sys.modules if m.startswith('brickforge.'))"

# Every name the package exports, pinned.
EXPORTS = """
    AttachmentCode decode_attachment encode_attachment
    BASE_SIZES CATALOG_SIZES GRID Brick BrickAssembly attachment_edges
    is_connected place
    DecodeBudgets GenerateResult GreedyGeometryPolicy Policy ScriptedPolicy
    SubprocessPolicy UniformLegalPolicy generate rollback validate_tuple
    PointCloud SurfaceMesh VoxelGrid chamfer extract_surface iou normalize_cloud
    sample_surface voxelize_assembly voxelize_points
    export_ldraw
    PreferencePair RewardBreakdown build_preference_pairs compose_reward dpo_loss
    post_loss sft_loss total_reward
    PhysicsParams StabilityReport assemble_equilibrium_program
    stability_scores
    DecodeState detokenize detokenize_lenient sequence_stats tokenize
    CODEBOOK_SIZE Token TokenSequence baseline_codebook codebook
    AttachmentTree build_spanning_tree
""".split()

LIGHT_COMMANDS = [
    ["tokenize", "a.json", "-o", "a.tok"],
    ["detokenize", "a.tok"],
    ["roundtrip", "a.json"],
    ["validate", "a.json"],
    ["export-ldraw", "a.json"],
    ["stats", "a.tok"],
]


def run_python(code: str, cwd: Path) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def run_command(argv: list[str], modules: str, cwd: Path) -> str:
    """Exit code of ``main(argv)`` in a fresh process, then ``modules``."""
    (cwd / "a.json").write_text(
        '{"bricks": [{"h": 2, "w": 4, "x": 9, "y": 8, "z": 0},'
        ' {"h": 2, "w": 2, "x": 9, "y": 9, "z": 1}]}')
    (cwd / "a.tok").write_text("BOS X9 Y8 Z0 H2 W4 EOS\n")
    (cwd / "c.xyz").write_text("0 0 0\n1 2 3\n4 1 0\n")
    code = (f"import contextlib, io, sys\nfrom brickforge.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\nprint(code, {modules})")
    return run_python(code, cwd)


@pytest.mark.parametrize("module", ["brickforge", "brickforge.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert run_python(f"import sys, {module}; print({SCIPY_MODULES})", tmp_path) == "[]"


@pytest.mark.parametrize("module", ["brickforge", "brickforge.cli"])
def test_import_loads_no_numpy(module, tmp_path):
    assert run_python(f"import sys, {module}; print({NUMPY_MODULES})", tmp_path) == "[]"


@pytest.mark.parametrize("argv", LIGHT_COMMANDS + [["voxelize", "c.xyz"]])
def test_commands_without_lp_or_chamfer_load_no_scipy(argv, tmp_path):
    assert run_command(argv, SCIPY_MODULES, tmp_path) == "0 []"


@pytest.mark.parametrize("argv", LIGHT_COMMANDS)
def test_light_commands_load_no_numpy(argv, tmp_path):
    assert run_command(argv, NUMPY_MODULES, tmp_path) == "0 []"


def test_cli_import_loads_no_dataclasses_or_inspect(tmp_path):
    code = "import sys, brickforge.cli; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    assert run_python(code, tmp_path) == "False False"


@pytest.mark.parametrize("argv, modules", [
    (["validate", "a.json"], ["bricks", "cli", "errors"]),
    (["export-ldraw", "a.json"], ["bricks", "cli", "errors", "ldraw"]),
    (["tokenize", "a.json"], ["attach", "bricks", "cli", "errors", "tokenizer", "tokens", "tree"]),
])
def test_light_commands_load_only_the_modules_they_use(argv, modules, tmp_path):
    loaded = [f"brickforge.{m}" for m in modules]
    assert run_command(argv, PACKAGE_MODULES, tmp_path) == f"0 {loaded}"


def test_every_export_resolves_and_is_listed():
    assert sorted(brickforge.__all__) == sorted(EXPORTS)
    listed = dir(brickforge)
    for name in EXPORTS:
        assert getattr(brickforge, name) is not None, name
        assert name in listed, name
    star: dict = {}
    exec("from brickforge import *", star)
    assert set(EXPORTS) <= set(star)
    assert brickforge.generate is brickforge.decode.generate
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        brickforge.no_such_name


def test_no_source_file_imports_ndimage():
    pattern = re.compile(r"^\s*(from|import)\s+scipy\b.*\bndimage", re.MULTILINE)
    for path in sorted((SRC / "brickforge").glob("*.py")):
        assert not pattern.search(path.read_text()), path.name


def test_stability_solves_through_the_lazy_import(tmp_path):
    code = ("import sys\nfrom brickforge import Brick, BrickAssembly, stability_scores\n"
            "print(stability_scores(BrickAssembly((Brick(1, 2, 0, 0, 0),))).feasible,"
            " 'scipy.optimize' in sys.modules)")
    assert run_python(code, tmp_path) == "True True"


# Brick 1 rests on one row of studs off its centroid: the certificate
# settles the reward's stability term, and the LP would score it 0.
OVERHANG = ('{"bricks": [{"h": 2, "w": 4, "x": 9, "y": 8, "z": 0},'
            ' {"h": 1, "w": 4, "x": 10, "y": 11, "z": 1}]}')


@pytest.mark.parametrize("argv, solves", [
    (["score", "--target", "c.xyz", "o.json"], False),
    (["prefpairs", "--target", "c.xyz", "o.json", "o.json"], False),
    (["score", "--target", "c.xyz", "a.json"], True),  # 2x2 studs: no certificate
    (["stability", "o.json"], True),
])
def test_lp_solver_loads_only_for_a_candidate_the_certificate_cannot_decide(argv, solves,
                                                                          tmp_path):
    (tmp_path / "o.json").write_text(OVERHANG)
    assert run_command(argv, "'scipy.optimize' in sys.modules", tmp_path) == f"0 {solves}"
