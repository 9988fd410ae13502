"""brickforge benchmark: one workload, one closed-loop client, one run.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src``.  The
last line of stdout is the result object (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it
is the full run record.  See bench/README.md.
"""

from __future__ import annotations

import os

# Before anything can import numpy: one BLAS thread per process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
from stats import END_TO_END, tail
from tracer import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
CLI_PROBES = 5

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(workload: str, items: list[dict], workdir: Path):
    """Import brickforge and run the warm-up pass; (seconds, workload)."""
    start = perf_counter()
    import brickforge  # noqa: F401
    import workloads
    wl = workloads.make(workload, workdir)
    wl.warm_up(items)
    return perf_counter() - start, wl


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Passes:
    """Timed passes over the whole input list, checked as they complete.

    Every pass must reproduce the first pass's outputs op for op; an op
    whose output fails its check or differs from the first pass counts as
    failed.
    """

    def __init__(self, wl, prepared, tracer=None):
        self.wl = wl
        self.prepared = prepared
        self.tracer = tracer
        self.first: list[str] | None = None
        self.first_outs = None
        self.digest = None
        self.latencies: list[list[float]] = [[] for _ in prepared]
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.ok: list[bool] = []
        self.extra_ok = True

    def run(self, count: int | None = None, seconds: float = 0.0):
        """Run ``count`` passes, or whole passes until ``seconds`` of pass
        time have elapsed (at least one)."""
        done = 0
        while True:
            gc.collect()
            if self.tracer is None:
                start = perf_counter()
                outs, lats, extra = self.wl.run_pass(self.prepared)
                self.walls.append(perf_counter() - start)
            else:
                self.wl.trace_with(self.tracer)
                with self.tracer.installed():
                    start = perf_counter()
                    outs, lats, extra = self.wl.run_pass(self.prepared)
                    self.walls.append(perf_counter() - start)
                self.wl.trace_with(None)
            self._record(outs, lats, extra)
            done += 1
            if count is not None and done >= count:
                return done
            if count is None and sum(self.walls) >= seconds:
                return done

    def _record(self, outs, lats, extra):
        wl = self.wl
        for slot, lat in zip(self.latencies, lats):
            slot.append(lat)
        canon = [wl.canonical(x, o) for x, o in zip(self.prepared, outs)]
        self.attempted += len(outs)
        if self.first is None:
            self.first, self.first_outs = canon, outs
            self.digest = hashlib.sha256("\n".join(canon).encode()).hexdigest()
            self.ok = [wl.check(x, o) for x, o in zip(self.prepared, outs)]
            self.failed += self.ok.count(False)
            self.extra_ok = wl.check_extra(self.prepared, extra)
        else:
            self.failed += sum(not ok or c != f for ok, c, f in zip(self.ok, canon, self.first))

    def throughput(self) -> float:
        """Ops per second of pass wall time, the median over passes."""
        return statistics.median(len(self.prepared) / wall for wall in self.walls)

    def per_input_ms(self) -> list[float]:
        return [1e3 * statistics.median(slot) for slot in self.latencies]


def cli_startup_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing brickforge
    on top of it."""
    def wall(code):
        times = []
        for _ in range(CLI_PROBES):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            times.append(perf_counter() - start)
        return 1e3 * statistics.median(times)
    bare = wall("pass")
    return bare, wall("import brickforge") - bare


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "brickforge" / "__init__.py").is_file():
        print(f"error: no package at {src / 'brickforge'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"

    items = inputs.build(args.workload, args.seed)
    if args.setup_probe:
        try:
            seconds, _ = timed_setup(args.workload, items, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0

    try:
        return run(args, items, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, items, workdir: Path, out_dir: Path) -> int:
    setups = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    seconds, wl = timed_setup(args.workload, items, workdir)
    setups.append(seconds)
    prepared = wl.prepare(items)

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = Passes(wl, prepared)
    n_passes = passes.run(seconds=budget)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": len(items), "ops_per_pass": len(prepared),
              "passes": n_passes, "setup_samples_s": setups, "digest": passes.digest}
    correct = passes.extra_ok
    attempted, failed = passes.attempted, passes.failed

    per_layer = None
    if args.trace:
        tracer = Tracer()
        traced = Passes(wl, prepared, tracer)
        traced.run(count=n_passes)
        per_layer = {name: 0.0 for name, _ in PER_LAYER}
        per_layer.update(tracer.layer_metrics(n_passes))
        if args.workload == "cli":
            per_layer["cli.interpreter_ms"], per_layer["cli.import_ms"] = cli_startup_ms()
            by_cmd: dict[str, list[float]] = {}
            for x, ms in zip(prepared, traced.per_input_ms()):
                by_cmd.setdefault(x.command, []).append(ms)
            for cmd, values in by_cmd.items():
                per_layer[f"cli.{cmd}.wall_ms"] = statistics.median(values)
        per_layer["trace.overhead_frac"] = passes.throughput() / traced.throughput() - 1.0
        per_layer = {name: per_layer[name] for name, _ in PER_LAYER}
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "passes": n_passes})
        record.update(traced_digest=traced.digest, per_layer=per_layer,
                      trace_file=os.path.relpath(trace_path))
        correct = correct and traced.digest == passes.digest
        attempted += traced.attempted
        failed += traced.failed

    per_input = passes.per_input_ms()
    tail_pct, tail_ms = tail(per_input)
    mean_iou, stable_frac = wl.quality(prepared, passes.first_outs)
    rss_kb = wl.peak_rss_kb() or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_per_s": passes.throughput(),
        "latency_p50_ms": statistics.median(per_input),
        "latency_tail_ms": tail_ms,
        "success_rate": (passes.attempted - passes.failed) / passes.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024.0,
        "mean_iou": mean_iou,
        "stable_frac": stable_frac,
    }
    record.update(metrics=metrics, tail_percentile=tail_pct, tail_n=len(per_input),
                  attempted=passes.attempted, failed=passes.failed,
                  pass_walls_s=passes.walls, unscored_ops=wl.unscored)
    correct = correct and failed == 0
    if args.trace:
        units, shown = dict(PER_LAYER), per_layer
    else:
        units, shown = dict(END_TO_END), metrics
    print(f"{args.workload} seed={args.seed}: {n_passes} passes x {len(prepared)} ops, "
          f"tail = p{tail_pct:.1f} of n={len(per_input)}, digest {passes.digest[:12]}",
          file=sys.stderr)
    if wl.unscored:
        print(f"{args.workload} seed={args.seed}: stability LP failed on the outputs of ops "
              f"{wl.unscored}; they count as not stable in stable_frac", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
