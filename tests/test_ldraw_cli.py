import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from brickforge.bricks import Brick, BrickAssembly
from brickforge.cli import main
from brickforge.geometry import PointCloud
from brickforge.ldraw import PART_IDS, export_ldraw

from conftest import grow_random_assembly


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

    def test_stability_flags(self, assembly_file, capsys):
        assert main(["stability", str(assembly_file), "--clutch", "10"]) == 0
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

    def test_domain_error_envelope(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bricks": [
            {"h": 1, "w": 1, "x": 0, "y": 0, "z": 0},
            {"h": 1, "w": 1, "x": 0, "y": 0, "z": 0},
        ]}))
        assert main(["tokenize", str(bad)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "collision"

    def test_score_rejects_non_finite_cloud(self, assembly_file, tmp_path, capsys):
        cloud = tmp_path / "nan.xyz"
        cloud.write_text("0 0 0\n1 2 3\nnan 1 1\n4 4 4\n")
        assert main(["score", "--target", str(cloud), str(assembly_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "non_finite_input",
            "detail": "point cloud has a NaN or infinite coordinate"}

    @pytest.mark.parametrize("command", ["score", "voxelize"])
    @pytest.mark.parametrize("text, detail", [
        ("0 0 0\n1 2\n", "point line needs 3 or 6 fields, got 2"),
        ("0 0 0\n1 two 3\n", "point line has a non-numeric field "
                               "(could not convert string to float: 'two')"),
        ("0 0 0 1 0 0\n1 2 3\n", "normals present on some lines but not all"),
        ("0 0 0 1 0 0\n1 2 3 1 1 1\n", "normals must have unit length within 1e-6"),
    ])
    def test_malformed_cloud_envelope(self, command, text, detail, assembly_file,
                                      tmp_path, capsys):
        cloud = tmp_path / "bad.xyz"
        cloud.write_text(text)
        argv = (["score", "--target", str(cloud), str(assembly_file)]
                if command == "score" else ["voxelize", str(cloud)])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert json.loads(captured.err) == {"error": "malformed_input", "detail": detail}

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

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
