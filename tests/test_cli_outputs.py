"""Every output file of a command is reserved before the command's work and
lands whole: main creates a temporary file beside it, and _emit fills that
file after the work and moves it over the path with os.replace."""

import errno
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import brickforge
from brickforge.bricks import Brick, BrickAssembly
from brickforge.cli import main

ASSEMBLY = BrickAssembly((Brick(2, 4, 9, 8, 0), Brick(2, 2, 9, 9, 1)))

# Each command that writes a file, ending in the flag that names it, and the
# library entry point that does its work.
WRITERS = [
    (["tokenize", "{assembly}", "-o"], "tokenize"),
    (["detokenize", "{tokens}", "-o"], "detokenize"),
    (["stability", "{assembly}", "-o"], "stability_scores"),
    (["export-ldraw", "{assembly}", "-o"], "export_ldraw"),
    (["voxelize", "{cloud}", "-o"], "voxelize_points"),
    (["generate", "--max-bricks", "3", "--target", "{grid}", "-o"], "generate"),
    (["generate", "--max-bricks", "3", "--target", "{grid}", "-o", "{written}", "--emit-tokens"],
     "generate"),
    (["generate", "--max-bricks", "3", "--target", "{grid}", "--emit-tokens"], "generate"),
]
IDS = [" ".join(argv) for argv, _ in WRITERS]


@pytest.fixture
def inputs(tmp_path):
    """Valid input files in their own directory, and the output directory."""
    src = tmp_path / "in"
    src.mkdir()
    (src / "a.json").write_text(ASSEMBLY.to_json())
    (src / "a.tok").write_text("BOS X0 Y0 Z0 H2 W2 EOS\n")
    (src / "c.xyz").write_text("0 0 0\n1 2 3\n4 1 0\n2 2 2\n")
    (src / "grid.json").write_text(
        json.dumps({"shape": [20, 20, 20], "occupied": [[4, 7, 0], [4, 7, 1]]}))
    out = tmp_path / "out"
    out.mkdir()
    return {"assembly": src / "a.json", "tokens": src / "a.tok", "cloud": src / "c.xyz",
            "grid": src / "grid.json", "written": out / "written.json", "out": out}


def argv_for(argv, inputs, *outputs):
    return [a.format(**inputs) for a in argv] + [str(p) for p in outputs]


def listing(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, entry", WRITERS, ids=IDS)
@pytest.mark.parametrize("name, reason", [("missing/out", "No such file or directory"),
                                          ("", "Is a directory")])
def test_an_unwritable_output_fails_before_the_work(argv, entry, name, reason, inputs,
                                                    monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(brickforge, entry, lambda *args, **kwargs: calls.append(args))
    path = inputs["out"] / name
    code, out, err = run(argv_for(argv, inputs, path), capsys)
    assert (code, out, calls) == (1, "", [])
    assert json.loads(err) == {"error": "malformed_input",
                               "detail": f"cannot write {path}: {reason}"}
    assert listing(inputs["out"]) == {}


@pytest.mark.parametrize("argv, entry", WRITERS, ids=IDS)
def test_outputs_land_whole_and_leave_no_temporary_file(argv, entry, inputs, capsys):
    path = inputs["out"] / "result"
    assert run(argv_for(argv, inputs, path), capsys)[0] == 0
    names = {"result", "written.json"} if "{written}" in argv else {"result"}
    assert set(listing(inputs["out"])) == names
    if argv[-1] == "-o":  # the file holds what stdout would have
        code, out, _ = run(argv_for(argv[:-1], inputs), capsys)
        assert (code, path.read_text()) == (0, out)


def test_a_failed_second_output_leaves_the_first_and_its_directory_as_they_were(inputs, capsys):
    existing = inputs["out"] / "out.json"
    existing.write_text("old bytes\n")
    argv = argv_for(["generate", "--max-bricks", "3", "--target", "{grid}", "-o", str(existing),
                     "--emit-tokens"], inputs, inputs["out"] / "missing" / "x.tok")
    code, out, err = run(argv, capsys)
    assert (code, out, json.loads(err)["error"]) == (1, "", "malformed_input")
    assert listing(inputs["out"]) == {"out.json": b"old bytes\n"}


def test_a_failure_in_the_work_removes_the_reserved_files(inputs, monkeypatch, capsys):
    (inputs["out"] / "bad.json").write_text("{")
    argv = ["tokenize", str(inputs["out"] / "bad.json"), "-o", str(inputs["out"] / "x.tok")]
    assert run(argv, capsys)[:2] == (1, "")
    assert set(listing(inputs["out"])) == {"bad.json"}

    def interrupted(*args, **kwargs):
        assert len(listing(inputs["out"])) == 3  # bad.json and the two reserved files
        raise KeyboardInterrupt
    monkeypatch.setattr(brickforge, "generate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv_for(["generate", "--target", "{grid}", "-o", "{written}", "--emit-tokens"],
                      inputs, inputs["out"] / "x.tok"))
    assert set(listing(inputs["out"])) == {"bad.json"}


def test_both_outputs_are_written_before_either_is_moved(inputs, monkeypatch, capsys):
    existing, tokens = inputs["out"] / "out.json", inputs["out"] / "x.tok"
    existing.write_text("old bytes\n")
    written, write_text = [], Path.write_text

    def full_on_the_second_write(self, data, *args, **kwargs):
        written.append(self.name)
        if len(written) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return write_text(self, data, *args, **kwargs)
    monkeypatch.setattr(Path, "write_text", full_on_the_second_write)
    argv = argv_for(["generate", "--max-bricks", "3", "--target", "{grid}", "-o", str(existing),
                     "--emit-tokens"], inputs, tokens)
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "malformed_input",
                               "detail": f"cannot write {existing}: No space left on device"}
    assert written[0].startswith("x.tok.") and written[1].startswith("out.json.")
    assert listing(inputs["out"]) == {"out.json": b"old bytes\n"}  # x.tok was not moved in


def test_the_same_path_twice_holds_the_assembly_as_before(inputs, capsys):
    path = inputs["out"] / "both"
    argv = argv_for(["generate", "--max-bricks", "3", "--target", "{grid}", "-o", str(path),
                     "--emit-tokens"], inputs, path)
    assert run(argv, capsys)[:2] == (0, "")
    assert set(listing(inputs["out"])) == {"both"}
    assert len(BrickAssembly.from_json(path.read_text())) >= 1


def test_a_replaced_file_keeps_its_mode_and_a_new_file_gets_the_umask(inputs, capsys):
    existing, new = inputs["out"] / "old.tok", inputs["out"] / "new.tok"
    existing.write_text("old\n")
    existing.chmod(0o604)
    for path in (existing, new):
        assert run(["tokenize", str(inputs["assembly"]), "-o", str(path)], capsys)[0] == 0
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(existing.stat().st_mode) == 0o604 & ~umask
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
    assert existing.read_text() == new.read_text() == "BOS X9 Y8 Z0 H2 W4 F2 H2 W2 M0 EOS\n"


def test_a_symlinked_output_replaces_its_target_and_keeps_the_link(inputs, capsys):
    target, link = inputs["out"] / "target.tok", inputs["out"] / "link.tok"
    target.write_text("old\n")
    link.symlink_to(target.name)
    assert run(["tokenize", str(inputs["assembly"]), "-o", str(link)], capsys)[0] == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text() == "BOS X9 Y8 Z0 H2 W4 F2 H2 W2 M0 EOS\n"
    assert set(listing(inputs["out"])) == {"target.tok", "link.tok"}


def test_a_pipe_is_written_in_place(inputs, capsys):
    pipe = inputs["out"] / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    assert run(["tokenize", str(inputs["assembly"]), "-o", str(pipe)], capsys)[0] == 0
    reader.join(timeout=10)
    assert received == ["BOS X9 Y8 Z0 H2 W4 F2 H2 W2 M0 EOS\n"]
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert set(os.listdir(inputs["out"])) == {"pipe"}


def test_dev_stdout_on_a_pipe_is_written_in_place(inputs):
    # /dev/stdout resolves to a name like /proc/<pid>/fd/pipe:[n], which no file can sit beside
    src = Path(brickforge.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-m", "brickforge.cli", "tokenize",
                           str(inputs["assembly"]), "-o", "/dev/stdout"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "BOS X9 Y8 Z0 H2 W4 F2 H2 W2 M0 EOS\n", "")
