"""Benchmark of the seqdg package: training, paper-width training,
evaluation and ablation workloads.

    python3 bench/run.py --workload train_synth --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all        # every listed workload, one process each

A run makes its inputs from the seed, sets them up `SETUP_REPEATS` times
(the median is `setup_s`), then repeats whole rounds of the workload's
operations until `--seconds` have passed, checks the outputs, and prints
one JSON object as the last line of standard output. With `--trace 1`
it reports the per-layer metrics instead: rounds then alternate between
untraced and traced, and the ratio of their wall times is the tracing
overhead. See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy loads: at most nproc on any
# machine, and no run-to-run variation from thread scheduling
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def _import_program():
    """Import seqdg from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "seqdg" / "__init__.py").is_file():
        sys.exit(f"bench: no seqdg package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import seqdg

    if Path(seqdg.__file__).resolve().parent != (src / "seqdg").resolve():
        sys.exit(f"bench: seqdg was imported from {seqdg.__file__}, not from {src}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared_metrics() -> dict:
    spec = _spec()
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Recorder, layer_metrics
    from speed import SpeedProbe
    from workloads import WORKLOADS, Run

    declared = _declared_metrics()["per_layer" if trace else "end_to_end"]
    workload = WORKLOADS[name]()
    recorder = Recorder(SpeedProbe(enabled=workload.scaled and not trace))
    recorder.install(trace)
    work = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(work, seed, recorder)

    recorder.active = trace
    setup_s = [run.timed(workload.setup, run) for _ in range(SETUP_REPEATS)]
    run.check(all(h == run.hashes[0] for h in run.hashes),
              "the same seed generated different input files")
    workload.fixtures(run)

    recorder.phase = "round"
    rounds = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        recorder.active = traced
        began = time.perf_counter()
        result = workload.round(run)
        result["wall"] = time.perf_counter() - began
        result["traced"] = traced
        rounds.append(result)
        if time.perf_counter() - start >= seconds and traced == trace:
            break
    recorder.active = False
    recorder.phase = "check"
    top1 = workload.verify(run, rounds)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(recorder)
        walls = {flag: statistics.median(r["wall"] for r in rounds if r["traced"] == flag)
                 for flag in (False, True)}
        metrics["trace.overhead_pct"] = 100.0 * (walls[True] / walls[False] - 1.0)
        recorder.write(work / "spans.jsonl")
    else:
        metrics = workload.metrics(run, rounds)
        metrics["setup_s"] = statistics.median(setup_s)
        print(f"{name}: median machine speed {run.probe.speed():.3f} of the reference",
              file=sys.stderr)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["target_action_top1"] = top1 if top1 is not None else 0.0
    if set(metrics) != set(declared):
        sys.exit(f"bench: measured {sorted(set(metrics) ^ set(declared))} "
                 "differ from the metrics BENCHMARK.json declares")
    print(f"{name}: {len(rounds)} rounds, target action top-1 {top1}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": declared[k]}
                        for k in declared}}


def run_all(args) -> int:
    """Each workload BENCHMARK.json lists, in a process of its own, then
    one table."""
    results = {}
    for name in [w["name"] for w in _spec()["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_synth", "train_paper_width", "eval_synth",
                                 "ablate_synth", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
