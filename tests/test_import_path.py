"""Importing the package loads no scipy module, so the commands that never
solve an LP or build a kd-tree start without paying for scipy's import."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_MODULES = "[m for m in sys.modules if m.startswith('scipy')]"


def run_python(code: str, cwd: Path) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["brickforge", "brickforge.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert run_python(f"import sys, {module}; print({SCIPY_MODULES})", tmp_path) == "[]"


@pytest.mark.parametrize("argv", [
    ["tokenize", "a.json", "-o", "a.tok"],
    ["detokenize", "a.tok"],
    ["roundtrip", "a.json"],
    ["validate", "a.json"],
    ["export-ldraw", "a.json"],
    ["stats", "a.tok"],
    ["voxelize", "c.xyz"],
])
def test_commands_without_lp_or_chamfer_load_no_scipy(argv, tmp_path):
    (tmp_path / "a.json").write_text(
        '{"bricks": [{"h": 2, "w": 4, "x": 9, "y": 8, "z": 0},'
        ' {"h": 2, "w": 2, "x": 9, "y": 9, "z": 1}]}')
    (tmp_path / "a.tok").write_text("BOS X9 Y8 Z0 H2 W4 EOS\n")
    (tmp_path / "c.xyz").write_text("0 0 0\n1 2 3\n4 1 0\n")
    code = (f"import contextlib, io, sys\nfrom brickforge.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\nprint(code, {SCIPY_MODULES})")
    assert run_python(code, tmp_path) == "0 []"


def test_no_source_file_imports_ndimage():
    pattern = re.compile(r"^\s*(from|import)\s+scipy\b.*\bndimage", re.MULTILINE)
    for path in sorted((SRC / "brickforge").glob("*.py")):
        assert not pattern.search(path.read_text()), path.name


def test_stability_solves_through_the_lazy_import(tmp_path):
    code = ("import sys\nfrom brickforge import Brick, BrickAssembly, stability_scores\n"
            "print(stability_scores(BrickAssembly((Brick(1, 2, 0, 0, 0),))).feasible,"
            " 'scipy.optimize' in sys.modules)")
    assert run_python(code, tmp_path) == "True True"
