"""Run one benchmark workload against the ljlayer source tree of this checkout.

    python3 perfbench/run.py --workload {bluenoise,mesh,embed} --seed N --seconds S --trace {0,1}

Set-up is timed several times: a fresh interpreter importing ljlayer.cli,
plus building the workload's inputs from the seed.  Then whole rounds of the
workload run until the next one would end past --seconds.  Outputs of the
first round are checked (checks.py); every later round must reproduce them
byte for byte.  With --trace 1 half the time runs untraced and half with the
layer spans of tracer.py installed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).  A fuller
record goes to perfbench/out/.  Exit code 0 when correct, 1 when a check
failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "spread": "ratio"}
# Per-layer metrics printed with --trace 1.  Times of a function that does no
# work on some workload (project, periodogram, ...) would read 0 on every run
# there; they go to the record in perfbench/out/ only, and the layer's
# self_s carries them on stdout.
PER_LAYER = {
    "neighbors.self_s": "s",
    "neighbors.build_index.calls": "count",
    "neighbors.build_index.s": "s",
    "neighbors.k_nearest_all.calls": "count",
    "neighbors.k_nearest_all.s": "s",
    "neighbors.k_nearest_all.rows": "count",
    "neighbors.nearest_all.calls": "count",
    "neighbors.nearest_all.rows": "count",
    "core.self_s": "s",
    "core.lj_step.calls": "count",
    "core.lj_step.s": "s",
    "core.lj_step.pairs": "count",
    "geometry.self_s": "s",
    "geometry.project.calls": "count",
    "geometry.project.points": "count",
    "geometry.io.s": "s",
    "analysis.self_s": "s",
    "analysis.periodogram.calls": "count",
    "analysis.periodogram.points": "count",
    "analysis.distance_score.calls": "count",
    "analysis.distance_score.loop_calls": "count",
    "pipelines.self_s": "s",
    "pipelines.iterations": "count",
    "pipelines.refiner_step.calls": "count",
    "cli.self_s": "s",
    "cli.main.calls": "count",
    "setup.import_s": "s",
    "trace.wall_s": "s",
    "trace.unspanned_s": "s",
    "trace.overhead_s": "s",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_import() -> float:
    """Wall time of a fresh interpreter that imports ljlayer.cli and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ljlayer.cli"], cwd=ROOT, env=child_env(),
                   check=True)
    return time.perf_counter() - t0


def run_rounds(workload, budget: float, tracer=None):
    """Whole rounds until the next one would end past the budget; (walls, outputs)."""
    walls, outputs = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.spans.clear()
        t0 = time.perf_counter()
        workload.round()
        walls.append(time.perf_counter() - t0)
        outputs.append(workload.collect())
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return walls, outputs


def machine_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "LJL_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bluenoise", "mesh", "embed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ljlayer" / "__init__.py").is_file():
        print(f"perfbench: no ljlayer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ljlayer
    if Path(ljlayer.__file__).resolve().parent != SRC / "ljlayer":
        print(f"perfbench: imported ljlayer from {ljlayer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS
    import checks

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        time_import()                      # byte-compiles the package once; not timed
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(time_import())
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            setups.append(imports[-1] + time.perf_counter() - t0)

        budget = args.seconds / 2 if args.trace else args.seconds
        walls, outputs = run_rounds(workload, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced_walls = []
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_walls, traced_outputs = run_rounds(workload, budget, tracer)
            finally:
                tracer.uninstall()
            outputs += traced_outputs

        correct, failed_per_round, error = True, 0, None
        try:
            if any(o != outputs[0] for o in outputs[1:]):
                raise checks.CheckError("a later round's outputs differ from the first round's")
            spread, failed_per_round = workload.check(outputs[0])
        except checks.CheckError as exc:
            correct, spread, error = False, None, f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(walls) + len(traced_walls)
    wall_s = statistics.median(walls)
    if args.trace:
        layers = tracer.layer_metrics(traced_walls)
        layers["setup.import_s"] = statistics.median(imports)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": wall_s,
                  "peak_rss_mb": peak_rss_mb, "spread": spread}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": correct, "attempted": workload.OPS * rounds,
              "failed": failed_per_round * rounds, "metrics": metrics}

    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "error": error, "setup_s": setups, "import_s": imports,
              "round_wall_s": walls, "traced_round_wall_s": traced_walls,
              "machine": machine_info()}
    if args.trace:
        record["layers"] = layers
        record["span_totals"] = {name: dict(st) for name, st in tracer.stats.items()}
        t0 = min((span[3] for span in tracer.spans), default=0.0)
        spans = [(i, p, name, start - t0, end - t0) for i, p, name, start, end in tracer.spans]
        (OUT / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps(spans))
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
