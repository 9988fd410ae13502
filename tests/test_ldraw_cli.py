import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import brickforge
from brickforge.bricks import Brick, BrickAssembly
from brickforge.cli import main
from brickforge.geometry import PointCloud
from brickforge.ldraw import PART_IDS, export_ldraw

from conftest import DEEP_JSON, grow_random_assembly, recursion_message


def parse_ldraw(text: str):
    """Minimal LDraw grammar check: returns the parsed type-1 lines."""
    assert text.isascii()
    assert "\r" not in text
    parts = []
    for line in text.splitlines():
        if not line:
            continue
        fields = line.split()
        assert fields[0] in ("0", "1"), f"unsupported line type {fields[0]!r}"
        if fields[0] == "0":
            continue
        assert len(fields) == 15, f"type-1 line needs 15 fields: {line!r}"
        color = int(fields[1])
        coords = [float(v) for v in fields[2:14]]
        assert fields[14].endswith(".dat")
        parts.append((color, coords, fields[14]))
    return parts


class TestLdraw:
    def test_single_1x1(self):
        text = export_ldraw(BrickAssembly((Brick(1, 1, 0, 0, 0),)))
        lines = parse_ldraw(text)
        assert len(lines) == 1
        assert lines[0][2] == "3005.dat"

    def test_rotated_pair_same_part(self):
        a = export_ldraw(BrickAssembly((Brick(2, 4, 0, 0, 0),)))
        b = export_ldraw(BrickAssembly((Brick(4, 2, 0, 0, 0),)))
        (_, coords_a, part_a), = parse_ldraw(a)
        (_, coords_b, part_b), = parse_ldraw(b)
        assert part_a == part_b == "3001.dat"
        assert coords_a[3:] != coords_b[3:]  # rotation matrices differ
        assert coords_a[3:] == [0, 0, 1, 0, 1, 0, -1, 0, 0]  # long axis along y
        assert coords_b[3:] == [1, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_vertical_layer_mapping(self):
        text = export_ldraw(BrickAssembly((Brick(1, 1, 0, 0, 3),)))
        (_, coords, _), = parse_ldraw(text)
        assert coords[1] == -72.0  # layer 3 -> y = -24 * 3

    def test_reference_point_at_footprint_center(self):
        text = export_ldraw(BrickAssembly((Brick(2, 6, 4, 2, 0),)))
        (_, coords, _), = parse_ldraw(text)
        assert coords[0] == 20 * (4 + 1.0)   # x + h/2 cells
        assert coords[2] == 20 * (2 + 3.0)   # y + w/2 cells

    def test_random_assembly_parses(self, rng):
        a = grow_random_assembly(rng, 25)
        lines = parse_ldraw(export_ldraw(a))
        assert len(lines) == 25
        assert {p for _, _, p in lines} <= {f"{v}.dat" for v in PART_IDS.values()}


@pytest.fixture
def assembly_file(tmp_path):
    a = BrickAssembly((Brick(2, 4, 9, 8, 0), Brick(2, 2, 9, 9, 1)))
    path = tmp_path / "assembly.json"
    path.write_text(a.to_json())
    return path


@pytest.fixture
def cloud_file(tmp_path, rng):
    cloud = PointCloud(rng.normal(size=(300, 3)))
    path = tmp_path / "cloud.xyz"
    path.write_text(cloud.to_text())
    return path


class TestCli:
    def test_roundtrip(self, assembly_file, capsys):
        assert main(["roundtrip", str(assembly_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["identical"] is True

    def test_tokenize_detokenize_files(self, assembly_file, tmp_path, capsys):
        tok = tmp_path / "out.tok"
        back = tmp_path / "back.json"
        assert main(["tokenize", str(assembly_file), "-o", str(tok)]) == 0
        assert main(["detokenize", str(tok), "-o", str(back)]) == 0
        assert json.loads(back.read_text()) == json.loads(assembly_file.read_text())

    def test_validate(self, assembly_file, capsys):
        assert main(["validate", str(assembly_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"valid": True, "bricks": 2, "connected": True}

    # the last two sit just below PhysicsParams' ceilings and still solve
    @pytest.mark.parametrize("flags", [["--clutch", "10"], ["--clutch", "9.9e14"],
                                       ["--weight", "8.3e18"]])
    def test_stability_flags(self, flags, assembly_file, capsys):
        assert main(["stability", str(assembly_file), *flags]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"scores", "feasible", "min_score"}
        assert report["feasible"] is True

    def test_generate_deterministic(self, tmp_path, capsys):
        grid = {"shape": [20, 20, 20],
                "occupied": [[5, 5, 0], [5, 5, 1], [5, 5, 2]]}
        target = tmp_path / "target.json"
        target.write_text(json.dumps(grid))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["generate", "--policy", "greedy", "--target", str(target),
                     "--seed", "7", "-o", str(out1)]) == 0
        assert main(["generate", "--policy", "greedy", "--target", str(target),
                     "--seed", "7", "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        trace = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert trace["stable"] is True and trace["rollbacks"] == 0

    def test_generate_from_cloud(self, cloud_file, tmp_path, capsys):
        out = tmp_path / "gen.json"
        tok = tmp_path / "gen.tok"
        assert main(["generate", "--policy", "uniform", "--target", str(cloud_file),
                     "--seed", "3", "--max-bricks", "8", "--max-rollbacks", "1",
                     "-o", str(out), "--emit-tokens", str(tok)]) == 0
        assembly = BrickAssembly.from_json(out.read_text())
        assert len(assembly) >= 1
        assert tok.read_text().startswith("BOS ")

    def test_score_jsonl(self, assembly_file, cloud_file, capsys):
        assert main(["score", "--target", str(cloud_file), str(assembly_file),
                     "--samples", "256"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert {"candidate", "r_iou", "d_cd", "r_cd", "r_geo",
                "r_stable", "r_total"} <= set(record)
        assert 0.0 <= record["r_total"] <= 3.0

    def test_prefpairs(self, tmp_path, cloud_file, capsys):
        good = BrickAssembly(tuple(Brick(1, 1, 10, 10, z) for z in range(6)))
        bad = BrickAssembly((Brick(1, 1, 0, 0, 0), Brick(8, 1, 0, 0, 1)))
        a, b = tmp_path / "good.json", tmp_path / "bad.json"
        a.write_text(good.to_json())
        b.write_text(bad.to_json())
        assert main(["prefpairs", "--target", str(cloud_file), str(a), str(b),
                     "--samples", "256", "--floor", "0.0", "--gap-min", "0.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines:
            pair = json.loads(line)
            assert pair["reward_winner"] >= pair["reward_loser"]
            assert pair["winner"].startswith("BOS")

    def test_export_ldraw(self, assembly_file, capsys):
        assert main(["export-ldraw", str(assembly_file)]) == 0
        parse_ldraw(capsys.readouterr().out)

    def test_voxelize(self, cloud_file, capsys):
        assert main(["voxelize", str(cloud_file)]) == 0
        grid = json.loads(capsys.readouterr().out)
        assert grid["shape"] == [20, 20, 20]
        assert len(grid["occupied"]) > 0

    def test_stats(self, assembly_file, tmp_path, capsys):
        tok = tmp_path / "s.tok"
        main(["tokenize", str(assembly_file), "-o", str(tok)])
        capsys.readouterr()
        assert main(["stats", str(tok)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sequences"][0]["N"] == 2
        assert out["mean_T"] == out["sequences"][0]["T"]

    def test_detokenize_lenient_flag(self, tmp_path, capsys):
        # header plus a tuple decoding out of bounds: lenient keeps the prefix
        tok = tmp_path / "broken.tok"
        tok.write_text("BOS X0 Y0 Z0 H1 W1 F0 H8 W1 M7 EOS\n")
        assert main(["detokenize", str(tok), "--lenient"]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert len(out["bricks"]) == 1
        assert "out_of_bounds" in captured.err

    @pytest.mark.parametrize("command", ["detokenize", "stats"])
    @pytest.mark.parametrize("field", ["X\u00b2", "X\u0661", "X" + "1" * 5000])
    def test_non_ascii_or_huge_digit_field_envelope(self, command, field, tmp_path, capsys):
        tok = tmp_path / "bad.tok"
        tok.write_text(f"BOS {field} Y0 Z0 H2 W4 EOS\n", encoding="utf-8")
        assert main([command, str(tok)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "malformed_sequence",
                                            "detail": f"unparseable token field {field!r}"}

    def test_domain_error_envelope(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bricks": [
            {"h": 1, "w": 1, "x": 0, "y": 0, "z": 0},
            {"h": 1, "w": 1, "x": 0, "y": 0, "z": 0},
        ]}))
        assert main(["tokenize", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "collision"

    @pytest.mark.parametrize("command, code, out, err", [
        ("tokenize", 1, "", {"error": "empty_assembly", "detail": "assembly has no bricks"}),
        ("roundtrip", 1, "", {"error": "empty_assembly", "detail": "assembly has no bricks"}),
        ("validate", 0, {"valid": True, "bricks": 0, "connected": True}, None),
    ])
    def test_empty_assembly_answer(self, command, code, out, err, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"bricks": []}')
        assert main([command, str(empty)]) == code
        captured = capsys.readouterr()
        assert (json.loads(captured.out) if captured.out else "") == out
        assert (json.loads(captured.err) if captured.err else None) == err

    def test_score_rejects_non_finite_cloud(self, assembly_file, tmp_path, capsys):
        cloud = tmp_path / "nan.xyz"
        cloud.write_text("0 0 0\n1 2 3\nnan 1 1\n4 4 4\n")
        assert main(["score", "--target", str(cloud), str(assembly_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "non_finite_input",
            "detail": "point cloud has a NaN or infinite coordinate"}

    def test_score_scales_a_tiny_cloud(self, assembly_file, tmp_path, capsys):
        cloud = tmp_path / "tiny.xyz"
        cloud.write_text("0 0 0\n1e-300 0 0\n0 1e-300 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["score", "--samples", "64", "--target", str(cloud),
                         str(assembly_file)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for k, v in result.items() if k != "candidate")

    @pytest.mark.parametrize("command", ["score", "voxelize"])
    @pytest.mark.parametrize("text, error, detail", [
        ("0 0 0\n1 2\n", "malformed_input", "point line needs 3 or 6 fields, got 2"),
        ("0 0 0\n1 two 3\n", "malformed_input", "point line has a non-numeric field "
                                                  "(could not convert string to float: 'two')"),
        ("0 0 0 1 0 0\n1 2 3\n", "malformed_input", "normals present on some lines but not all"),
        ("0 0 0 1 0 0\n1 2 3 1 1 1\n", "malformed_input",
         "normals must have unit length within 1e-6"),
        ("0 0 0\n1e-310 0 0\n", "degenerate_extent",
         "extent 1e-310 has no finite scale to the grid"),
        ("-1e308 0 0\n1e308 0 0\n0 1 0\n", "degenerate_extent",
         "extent inf has no finite scale to the grid"),
        ("1e308 0 0\n1.7e308 0 0\n", "degenerate_extent",
         "coordinates up to 1.7e+308 have no finite centre on the grid"),
    ])
    def test_malformed_cloud_envelope(self, command, text, error, detail, assembly_file,
                                      tmp_path, capsys):
        cloud = tmp_path / "bad.xyz"
        cloud.write_text(text)
        argv = (["score", "--target", str(cloud), str(assembly_file)]
                if command == "score" else ["voxelize", str(cloud)])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert json.loads(captured.err) == {"error": error, "detail": detail}

    def test_malformed_cloud_exits_1_from_a_fresh_process(self, assembly_file, tmp_path):
        cloud = tmp_path / "bad.xyz"
        cloud.write_text("1 2\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "brickforge.cli", "score", "--target", str(cloud),
             str(assembly_file)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "malformed_input"

    @pytest.mark.parametrize("text, detail", [
        ('{"shape": [20, 20, 20], "occupied": [[-1, 0, 0]]}',
         "occupied cell [-1, 0, 0] is not in the 20^3 grid"),
        ('{"shape": [20, 20, 20], "occupied": [[25, 0, 0]]}',
         "occupied cell [25, 0, 0] is not in the 20^3 grid"),
        ('{"shape": [20, 20, 20]}',
         "grid needs a shape and an occupied cell list (KeyError('occupied'))"),
        ('{"shape": [10, 10, 10], "occupied": [[0, 0, 0]]}',
         "grid shape must be [20, 20, 20], got [10, 10, 10]"),
        ('{"occupied": [[0, 0]]}', "occupied cell [0, 0] is not in the 20^3 grid"),
        ('{"occupied": [[0, "1", 0]]}', "occupied cell [0, '1', 0] is not in the 20^3 grid"),
        ('{"occupied": [[1.5, 0, 0]]}', "occupied cell [1.5, 0, 0] is not in the 20^3 grid"),
        ('{"occupied": 7}', "grid needs a shape and an occupied cell list "
                            "(TypeError(\"'int' object is not iterable\"))"),
        ('[[0, 0, 0]]', "grid needs a shape and an occupied cell list "
                        "(AttributeError(\"'list' object has no attribute 'get'\"))"),
        pytest.param(DEEP_JSON, f"{{grid}} is not JSON: {recursion_message(DEEP_JSON)}",
                     id="nested-too-deep"),
    ])
    def test_malformed_grid_envelope(self, text, detail, tmp_path, capsys):
        grid = tmp_path / "bad.json"
        grid.write_text(text)
        assert main(["generate", "--target", str(grid)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert json.loads(captured.err) == {"error": "malformed_input",
                                            "detail": detail.format(grid=grid)}

    @pytest.mark.parametrize("text", ['{"shape": [20, 20, 20]}', '{"occupied": [[0, 0, 0]',
                                      pytest.param(DEEP_JSON, id="nested-too-deep")])
    def test_malformed_grid_exits_1_from_a_fresh_process(self, text, tmp_path):
        grid = tmp_path / "bad.json"
        grid.write_text(text)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "brickforge.cli", "generate", "--target", str(grid)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "malformed_input"

    def test_grid_json_target_round_trips(self, tmp_path, capsys):
        cells = [[4, 7, z] for z in range(3)]
        grid = tmp_path / "column.json"
        grid.write_text(json.dumps({"shape": [20, 20, 20], "occupied": cells}))
        assert main(["generate", "--target", str(grid)]) == 0
        bricks = json.loads(capsys.readouterr().out)["bricks"]
        assert sorted([b["x"], b["y"], b["z"]] for b in bricks) == cells

    def test_empty_grid_target_envelope(self, tmp_path, capsys):
        grid = tmp_path / "empty.json"
        grid.write_text(json.dumps({"shape": [20, 20, 20], "occupied": []}))
        assert main(["generate", "--target", str(grid)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "empty_target",
                                            "detail": "target grid has no occupied cells"}

    @pytest.mark.parametrize("command", ["validate", "tokenize", "score"])
    @pytest.mark.parametrize("text, detail", [
        ('{"bricks": [{"h": 1}]}', "brick {'h': 1} needs int fields h, w, x, y, z"),
        ('{"bricks": [{"h": 1, "w": 1, "x": 0, "y": 0, "z": "0"}]}',
         "brick {'h': 1, 'w': 1, 'x': 0, 'y': 0, 'z': '0'} needs int fields h, w, x, y, z"),
        ('{"bricks": [{"h": 1, "w": 1, "x": 0, "y": 0, "z": 1.5}]}',
         "brick {'h': 1, 'w': 1, 'x': 0, 'y': 0, 'z': 1.5} needs int fields h, w, x, y, z"),
        ('{"bricks": [{"h": 1, "w": true, "x": 0, "y": 0, "z": 0}]}',
         "brick {'h': 1, 'w': True, 'x': 0, 'y': 0, 'z': 0} needs int fields h, w, x, y, z"),
        ('{"bricks": [', "assembly is not JSON: Expecting value: line 1 column 13 (char 12)"),
        ("[]", 'assembly JSON needs a "bricks" list'),
        ('{"bricks": 3}', 'assembly JSON needs a "bricks" list'),
        pytest.param(DEEP_JSON, f"assembly is not JSON: {recursion_message(DEEP_JSON)}",
                     id="nested-too-deep"),
    ])
    def test_malformed_assembly_envelope(self, command, text, detail, cloud_file,
                                         tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = ([command, str(bad)] if command != "score"
                else ["score", "--target", str(cloud_file), str(bad)])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert json.loads(captured.err) == {"error": "malformed_input", "detail": detail}

    @pytest.mark.parametrize("loader, suffix, argv", [
        ("assembly", ".json", ["tokenize", "{bad}"]),
        ("sequence", ".tok", ["detokenize", "{bad}"]),
        ("sequence", ".tok", ["stats", "{bad}"]),
        ("cloud", ".xyz", ["score", "--target", "{bad}", "{assembly}"]),
        ("grid", ".json", ["generate", "--target", "{bad}"]),
        ("grid", ".xyz", ["generate", "--target", "{bad}"]),
    ])
    def test_undecodable_bytes_exit_1_from_a_fresh_process(self, loader, suffix, argv,
                                                           assembly_file, tmp_path):
        bad = tmp_path / f"bad{suffix}"
        bad.write_bytes(b"\xff\xfe" + "BOS X0 Y0 Z0 H1 W1 EOS".encode("utf-16-le"))
        argv = [a.format(bad=bad, assembly=assembly_file) for a in argv]
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "brickforge.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1, loader
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "malformed_input"
        assert err["detail"].startswith(f"{bad} is not ")
        assert "can't decode byte 0xff in position 0" in err["detail"]

    @pytest.mark.parametrize("command, name, reason", [
        ("stats", "missing.tok", "No such file or directory"),
        ("validate", "", "Is a directory"),
    ])
    def test_unreadable_input_envelope(self, command, name, reason, tmp_path, capsys):
        path = tmp_path / name
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "malformed_input",
                                            "detail": f"cannot read {path}: {reason}"}

    # Every command that writes a file, ending in the flag that names it.
    WRITERS = [
        ["tokenize", "{assembly}", "-o"],
        ["detokenize", "{tokens}", "-o"],
        ["stability", "{assembly}", "-o"],
        ["export-ldraw", "{assembly}", "-o"],
        ["voxelize", "{cloud}", "-o"],
        ["generate", "--max-bricks", "4", "--max-rollbacks", "1", "--target", "{cloud}", "-o"],
        ["generate", "--max-bricks", "4", "--max-rollbacks", "1", "--target", "{cloud}",
         "-o", "{written}", "--emit-tokens"],
        ["generate", "--max-bricks", "3", "--target", "{grid}", "--emit-tokens"],  # no -o: stdout
    ]

    @pytest.mark.parametrize("argv", WRITERS, ids=" ".join)
    @pytest.mark.parametrize("name, reason", [
        ("missing/out", "No such file or directory"),
        ("", "Is a directory"),
    ])
    def test_unwritable_output_envelope(self, argv, name, reason, assembly_file, cloud_file,
                                        tmp_path, capsys):
        tokens = tmp_path / "in.tok"
        tokens.write_text("BOS X0 Y0 Z0 H2 W2 EOS\n")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"shape": [20, 20, 20], "occupied": [[4, 7, 0], [4, 7, 1]]}))
        paths = {"assembly": assembly_file, "tokens": tokens, "cloud": cloud_file, "grid": grid,
                 "written": tmp_path / "written.json"}
        path = tmp_path / name
        assert main([a.format(**paths) for a in argv] + [str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "malformed_input",
                                            "detail": f"cannot write {path}: {reason}"}

    @pytest.mark.parametrize("argv, flag, value", [
        (["stability", "a.json"], "--clutch", "nan"),
        (["stability", "a.json"], "--clutch", "inf"),
        (["stability", "a.json"], "--clutch", "0"),
        (["stability", "a.json"], "--weight", "nan"),
        (["stability", "a.json"], "--slack-eps", "nan"),
        (["stability", "a.json"], "--clutch", "1e15"),  # HiGHS refuses the matrix entry
        (["stability", "a.json"], "--weight", "9e18"),  # a 2x6 brick's weight reads as inf
        (["score", "--target", "c.xyz", "a.json"], "--clutch", "1e15"),
        (["generate", "--target", "t.json"], "--weight", "1e20"),
        (["score", "--target", "c.xyz", "a.json"], "--samples", "0"),
        (["score", "--target", "c.xyz", "a.json"], "--samples", "1"),
        (["score", "--target", "c.xyz", "a.json"], "--samples", "1048577"),
        (["score", "--target", "c.xyz", "a.json"], "--samples", "100000000000000000000"),
        (["score", "--target", "c.xyz", "a.json"], "--weight", "-1"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--samples", "0"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--samples", "1"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--samples", "1048577"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--samples", "100000000000000000000"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--gap-min", "nan"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--gap-min", "-1"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--gap-min", "-5e-324"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--gap-min", "inf"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--floor", "nan"),
        (["generate", "--target", "t.json"], "--max-bricks", "0"),
        (["generate", "--target", "t.json"], "--max-rollbacks", "0"),
        (["generate", "--target", "t.json"], "--max-resamples", "0"),
        (["generate", "--target", "t.json"], "--max-bricks", "1.5"),
        (["generate", "--target", "t.json"], "--temperature", "nan"),
        (["generate", "--target", "t.json"], "--clutch", "-inf"),
        (["generate", "--target", "t.json"], "--seed", "-1"),
        (["score", "--target", "c.xyz", "a.json"], "--seed", "-1"),
        (["prefpairs", "--target", "c.xyz", "a.json"], "--seed", "-1"),
    ])
    def test_bad_numeric_flag_is_a_usage_error(self, argv, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and repr(value) in err
        assert "Traceback" not in err

    # Per command line, the keywords each library callee receives (at its
    # last call: a physics flag's parser also tries its value on PhysicsParams):
    # a flag passes its keyword on only when given, so an omitted one leaves
    # the library's default in place.
    PHYSICS = {"brick_weight_per_cell": 2.0, "clutch_tension_capacity": 30.0,
               "slack_tolerance": 1e-5}
    PHYSICS_FLAGS = ["--weight", "2", "--clutch", "30", "--slack-eps", "1e-5"]
    FLAG_ROWS = [
        (["stability", "{assembly}"], {"stability.PhysicsParams": {}}),
        (["stability", "{assembly}", *PHYSICS_FLAGS], {"stability.PhysicsParams": PHYSICS}),
        (["score", "--target", "{cloud}", "{assembly}"],
         {"stability.PhysicsParams": {}, "reward.total_reward": {}}),
        (["score", "--target", "{cloud}", "{assembly}", *PHYSICS_FLAGS, "--samples", "64",
          "--seed", "2", "--no-solid-fill"],
         {"stability.PhysicsParams": PHYSICS,
          "reward.total_reward": {"samples": 64, "seed": 2, "solid_fill": False}}),
        (["prefpairs", "--target", "{cloud}", "{assembly}"],
         {"stability.PhysicsParams": {}, "reward.total_reward": {},
          "reward.build_preference_pairs": {"condition": "{cloud}"}}),
        (["prefpairs", "--target", "{cloud}", "{assembly}", "--samples", "64", "--seed", "2",
          "--gap-min", "0.5", "--floor", "0", "--condition", "c"],
         {"reward.total_reward": {"samples": 64, "seed": 2},
          "reward.build_preference_pairs": {"condition": "c", "gap_min": 0.5, "floor": 0.0}}),
        (["generate", "--target", "{grid}"],
         {"stability.PhysicsParams": {}, "decode.GreedyGeometryPolicy": {},
          "decode.DecodeBudgets": {}, "decode.generate": {}}),
        (["generate", "--target", "{cloud}", *PHYSICS_FLAGS, "--temperature", "0.5",
          "--seed", "4", "--max-resamples", "3", "--max-rollbacks", "2", "--max-bricks", "5",
          "--no-solid-fill"],
         {"stability.PhysicsParams": PHYSICS, "decode.GreedyGeometryPolicy": {"temperature": 0.5},
          "decode.DecodeBudgets": {"max_resamples_per_tuple": 3, "max_rollbacks": 2,
                                   "max_bricks": 5},
          "decode.generate": {"seed": 4}, "geometry.voxelize_points": {"solid_fill": False}}),
        (["voxelize", "{cloud}"], {"geometry.voxelize_points": {}}),
        (["voxelize", "{cloud}", "--no-solid-fill"],
         {"geometry.voxelize_points": {"solid_fill": False}}),
    ]

    @pytest.mark.parametrize("argv, keywords", FLAG_ROWS,
                             ids=[" ".join(argv) for argv, _ in FLAG_ROWS])
    def test_flags_reach_the_library_only_when_given(self, argv, keywords, assembly_file,
                                                     cloud_file, tmp_path, monkeypatch):
        grid = tmp_path / "cell.json"
        grid.write_text(json.dumps({"shape": [20, 20, 20], "occupied": [[4, 7, 0]]}))
        paths = {"assembly": assembly_file, "cloud": cloud_file, "grid": grid}
        seen = {}
        for name in keywords:
            module, attr = name.split(".")
            callee = getattr(importlib.import_module(f"brickforge.{module}"), attr)
            assert getattr(brickforge, attr) is callee  # the CLI calls the package's name

            def record(*args, _name=name, _callee=callee, **kwargs):
                seen[_name] = kwargs
                return _callee(*args, **kwargs)
            monkeypatch.setattr(f"brickforge.{attr}", record)
        assert main([a.format(**paths) for a in argv]) == 0
        assert seen == {name: {k: v.format(**paths) if isinstance(v, str) else v
                               for k, v in given.items()}
                        for name, given in keywords.items()}

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
