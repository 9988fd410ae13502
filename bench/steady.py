"""Run the benchmark over several seeds and check that it is steady.

    python3 bench/steady.py --seeds 1-10 --repeat-seed 1

For each workload (one fresh process per run, one run at a time) this
reports every end-to-end metric's median, quartiles and quartile spread
as a share of the median, against the bound in BENCHMARK.json.  With
``--repeat-seed S`` it also runs seed S again untraced and twice traced,
and requires identical output digests (traced and untraced), quality
metrics and exact per-layer counts.  Exit status 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import summary
from tracer import EXACT

ROOT = Path(__file__).resolve().parent.parent
SPREAD_SHARE = 1 / 3  # aim: every spread below a third of its bound


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat-seed", type=int, default=None)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        records = []
        for seed in seed_list(args.seeds):
            record, result = run_once(workload, seed, seconds, 0)
            if not result["correct"] or set(result["metrics"]) != set(bounds):
                failures.append(f"{workload} seed {seed}: incorrect or incomplete result")
            records.append(record)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in record["metrics"].items()), flush=True)
        print(f"{workload}: {len(records)} runs")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            s = summary([r["metrics"][name] for r in records])
            flag = ""
            if s["spread"] > bound:
                flag = "  OVER BOUND"
                failures.append(f"{workload} {name}: spread {s['spread']:.3f} > bound {bound}")
            elif s["spread"] > bound * SPREAD_SHARE:
                flag = "  over a third of the bound"
            print(f"  {name:18} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:8.4f} {bound:6.3f}{flag}")

        if args.repeat_seed is None:
            continue
        seed = args.repeat_seed
        first = next((r for r in records if r["seed"] == seed), None)
        again, _ = run_once(workload, seed, seconds, 0)
        traced = [run_once(workload, seed, seconds, 1) for _ in range(2)]
        untraced = [r for r in (first, again) if r is not None]
        digests = {r["digest"] for r in untraced} | {t[0]["digest"] for t in traced} | {
            t[0]["traced_digest"] for t in traced}
        if len(digests) != 1:
            failures.append(f"{workload} seed {seed}: output digests differ: {sorted(digests)}")
        for name in ("mean_iou", "stable_frac"):
            values = {r["metrics"][name] for r in untraced} | {
                t[0]["metrics"][name] for t in traced}
            if len(values) != 1:
                failures.append(f"{workload} seed {seed}: {name} differs: {sorted(values)}")
        a, b = (t[0]["per_layer"] for t in traced)
        for name in EXACT:
            if a[name] != b[name]:
                failures.append(f"{workload} seed {seed}: {name} {a[name]} != {b[name]}")
        for record, result in traced:
            if not result["correct"] or list(result["metrics"]) != per_layer:
                failures.append(f"{workload} seed {seed}: traced result incorrect or incomplete")
        print(f"  seed {seed} repeated: {len(digests)} distinct digest(s); "
              f"trace overhead {a['trace.overhead_frac']:+.3f}, {b['trace.overhead_frac']:+.3f}")

    for failure in failures:
        print("FAIL", failure)
    print("steady" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
