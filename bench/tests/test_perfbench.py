"""Tests for the benchmark's own logic: the tail rule, the input
generators, and that each workload's check rejects a corrupted output."""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- tail percentile --------------------------------------------------------


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (20, 50.0), (45, 77.77777777777777),
                                           (100, 90.0), (1000, 99.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, percentile):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    p, value = stats.tail(values)
    assert p == pytest.approx(percentile)
    assert sum(v > value for v in values) == 10
    # one rank higher would leave only nine
    assert sum(v > value + 1 for v in values) == 9


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_summary_spread_is_quartile_distance_over_median():
    s = stats.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.5, 3.0, 4.5)
    assert s["spread"] == pytest.approx(1.0)


# -- inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.MAKERS))
def test_inputs_repeat_per_seed_and_vary_between_seeds(workload):
    assert inputs.build(workload, 3) == inputs.build(workload, 3)
    assert inputs.build(workload, 3) != inputs.build(workload, 4)


def test_inputs_import_neither_brickforge_nor_numpy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
            "[inputs.build(w, 1) for w in inputs.MAKERS]; "
            "print('brickforge' in sys.modules or 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_grown_assemblies_are_connected_grounded_and_collision_free():
    rng = random.Random(5)
    for n in (1, 20, 150):
        bricks = inputs.grounded(inputs.grow(rng, n))
        assert min(b[4] for b in bricks) == 0
        cells = inputs.cells(bricks)
        assert len(cells) == len(set(cells)) == sum(h * w for h, w, *_ in bricks)
        assert len(inputs.bfs_prefix(bricks, len(bricks))) == len(bricks)


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(stats.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(inputs.MAKERS)


# -- checks reject corrupted outputs -----------------------------------------


def test_corpus_check_flags_corrupted_outputs(tmp_path):
    from brickforge.bricks import BrickAssembly
    from brickforge.tokens import TokenSequence

    wl = workloads.make("corpus", tmp_path)
    item = {"stratum": "n20", "lenient": True,
            "bricks": inputs.grounded(inputs.grow(random.Random(1), 20))}
    (x,) = wl.prepare([item])
    out = wl.op(x)
    assert wl.check(x, out)
    seq, text, blob, from_text, from_blob, back, st, ldr, lenient = out

    dropped = BrickAssembly(back.bricks[:-1])
    assert not wl.check(x, (seq, text, blob, from_text, from_blob, dropped, st, ldr, lenient))
    shorter = TokenSequence(from_text.tokens[:-2] + from_text.tokens[-1:])
    assert not wl.check(x, (seq, text, blob, shorter, from_blob, back, st, ldr, lenient))
    assert not wl.check(x, (seq, text, blob, from_text, from_blob, back, st,
                            ldr.rsplit("\n", 2)[0] + "\n", lenient))
    assert not wl.check(x, (seq, text, blob, from_text, from_blob, back, st, ldr,
                            (lenient[0], None)))
    not_prefix = BrickAssembly(back.bricks[1:len(lenient[0]) + 1])
    assert not wl.check(x, (seq, text, blob, from_text, from_blob, back, st, ldr,
                            (not_prefix, lenient[1])))
    assert not wl.check(x, workloads.OpFailed(ValueError("boom")))


def test_score_check_flags_corrupted_outputs(tmp_path):
    wl = workloads.make("score", tmp_path)
    rng = random.Random(2)
    target = inputs.grounded(inputs.grow(rng, 12))
    item = {"stratum": "n12", "cloud": inputs.cells(target), "sample_seed": 0,
            "candidates": [target, inputs.bfs_prefix(target, 4)]}
    x = wl.prepare([item])[0]
    out = wl.op(x)
    assert wl.check(x, out)
    assert not wl.check(x, dataclasses.replace(out, r_total=out.r_total + 0.1))
    assert not wl.check(x, dataclasses.replace(out, r_iou=float("nan")))
    from brickforge.reward import compose_reward
    too_big = compose_reward(1.5, out.d_cd, out.r_stable)
    assert not wl.check(x, too_big)


def test_score_pairs_check_flags_a_pair_below_the_gap(tmp_path):
    from brickforge.reward import PreferencePair
    wl = workloads.make("score", tmp_path)
    pair = PreferencePair("t0", None, None, 1.5, 1.45)
    assert not wl.check_extra([], [[pair]])
    assert wl.check_extra([], [[PreferencePair("t0", None, None, 1.5, 1.0)]])


def test_generate_check_flags_corrupted_outputs(tmp_path):
    from brickforge.bricks import Brick, BrickAssembly

    wl = workloads.make("generate", tmp_path)
    item = inputs.generate_items(0)[0]  # the column
    (x,) = wl.prepare([item])
    out = wl.op(x)
    assert wl.check(x, out)
    first = out.assembly.bricks[0]
    clash = BrickAssembly.__new__(BrickAssembly)
    clash._bricks = out.assembly.bricks + (Brick(1, 1, first.x, first.y, first.z),)
    assert not wl.check(x, dataclasses.replace(out, assembly=clash))
    moved = BrickAssembly(tuple(Brick(b.h, b.w, b.x + 1, b.y, b.z) for b in out.assembly.bricks))
    assert not wl.check(x, dataclasses.replace(out, assembly=moved))


def test_cli_check_flags_corrupted_outputs(tmp_path):
    wl = workloads.make("cli", tmp_path)
    expected = {"valid": True, "bricks": 3, "connected": True}
    x = workloads.CliInput("validate", [], expected)
    good = workloads.CliOutput(0, json.dumps(expected) + "\n", "", 1)
    assert wl.check(x, good)
    assert not wl.check(x, dataclasses.replace(good, returncode=1))
    assert not wl.check(x, dataclasses.replace(good, stdout=json.dumps(dict(expected, bricks=4))))
    assert not wl.check(x, dataclasses.replace(good, stdout="Traceback (most recent call last)"))


def test_a_failed_stability_lp_counts_as_unstable_and_is_recorded(tmp_path, monkeypatch):
    from brickforge.errors import SolverFailureError

    wl = workloads.make("corpus", tmp_path)
    prepared = wl.prepare(inputs.corpus_items(0)[:3])
    outs = [wl.op(x) for x in prepared]
    _, stable_frac = wl.quality(prepared, outs)
    original = workloads.stability.stability_scores
    failing = prepared[1].assembly.bricks

    def scores(assembly, *args, **kwargs):
        if sorted(assembly.bricks) == sorted(failing):
            raise SolverFailureError(0, detail="(injected)")
        return original(assembly, *args, **kwargs)

    monkeypatch.setattr(workloads.stability, "stability_scores", scores)
    wl = workloads.make("corpus", tmp_path)
    _, degraded = wl.quality(prepared, outs)
    assert wl.unscored == [1]
    assert degraded < stable_frac
