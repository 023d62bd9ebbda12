"""Command-line frontend.

Every command prints a single-line JSON summary to stdout: every parsed flag
under its argparse dest, overlaid by the values the command resolved or
measured, so a run is reproducible from its summary alone.
Exit codes: 0 success, 2 unknown command or invalid configuration, 1 I/O
failure.  Meshes are normalized to [-1, 1]^3 on load, which keeps clouds and
scores consistent across commands that reference the same OBJ file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import THREADS_ERROR, analysis, geometry, metrics, pipelines
from .core import LjParams, Schedule


def _load_normalized_mesh(path) -> geometry.TriangleMesh:
    return geometry.normalize_mesh(geometry.load_obj(path))


def _write_run_report(report: pipelines.RunReport, path):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True)
        fh.write("\n")


def _emit(args, **results) -> int:
    """Print the summary: every parsed flag under its dest, overlaid by the results."""
    summary = {k: v for k, v in vars(args).items() if k != "func"}
    print(json.dumps({**summary, **results}, sort_keys=True))
    return 0


def _relax_command(args, n, pipeline, *inputs):
    """Run bluenoise_2d or redistribute_on_mesh from the flags the two share.

    Writes --out and --report; returns the cloud and the results the two share.
    """
    metrics.as_number(args.sigma_mult, "--sigma-mult", 0, above=True)  # not as the sigma it scales
    sigma = pipelines.sigma_prime(n) * args.sigma_mult if n >= 2 else None
    params = LjParams(epsilon=args.epsilon, sigma=sigma, k=args.k) if n >= 2 else None
    schedule = Schedule(alpha=args.alpha, beta=args.beta)
    cloud, report = pipeline(*inputs, params, schedule,
                             tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    if args.out:
        geometry.write_xyz(cloud, args.out)
    if args.report:
        _write_run_report(report, args.report)
    return cloud, {"n": n, "sigma": sigma, "iterations": report.iterations,
                   "final_max_disp": report.final_max_disp}


def _cmd_bluenoise(args) -> int:
    if args.cloud is not None:
        cloud_or_n = geometry.read_xyz(args.cloud)
        n = cloud_or_n.shape[0]
    else:
        cloud_or_n = args.n
        n = args.n
    boundary = pipelines.Boundary(args.boundary)
    cloud, results = _relax_command(args, n, pipelines.bluenoise_2d, cloud_or_n, boundary)
    final_score = analysis.distance_score(cloud, boundary.metric) if n >= 2 else None
    return _emit(args, **results, distance_score=final_score)


def _cmd_redistribute(args) -> int:
    mesh = _load_normalized_mesh(args.mesh)
    if args.cloud is not None:
        cloud0 = geometry.read_xyz(args.cloud)
    else:
        cloud0 = np.random.default_rng(args.seed).uniform(-1.0, 1.0, (args.n, 3))
    cloud, results = _relax_command(args, cloud0.shape[0],
                                    pipelines.redistribute_on_mesh, cloud0, mesh)
    return _emit(args, **results, distance_score=analysis.distance_score(cloud),
                 noise_score=geometry.noise_score(cloud, mesh))


# flags named apart from their EmbedConfig field
_CONFIG_FIELD = {"t": "total", "ss": "start", "tprime": "stop", "sigma_mult": "sigma_multiplier"}


def _embed_config(args) -> pipelines.EmbedConfig:
    """The EmbedConfig of the flags that set its fields; --ss and --tprime
    default to RefineWindow.default_window(--t)."""
    window = pipelines.RefineWindow.default_window(args.t)
    flags = {**vars(args), "ss": window.start if args.ss is None else args.ss,
             "tprime": window.stop if args.tprime is None else args.tprime}
    names = {f.name for f in fields(pipelines.EmbedConfig)}
    return pipelines.EmbedConfig(**{_CONFIG_FIELD.get(k, k): v for k, v in flags.items()
                                    if _CONFIG_FIELD.get(k, k) in names})


def _cmd_embed(args) -> int:
    config = _embed_config(args)
    config.window()  # validate before any work
    if args.mesh:
        surface = geometry.MeshProjector(_load_normalized_mesh(args.mesh))
    else:
        surface = pipelines.UnitSphere()
    trace = bool(args.report)   # only the --report file reads the traces
    if args.compare:
        score_report, _, (cloud, run_report) = pipelines.embed_compare(
            config, surface=surface, trace=trace)
        scores = {k.removesuffix("_ljl"): v for k, v in asdict(score_report).items()}
    else:
        cloud, run_report = pipelines.run_embedded(config, embedded=True, surface=surface,
                                                   trace=trace)
        scores = {"distance_score": analysis.distance_score(cloud),
                  "noise_score": float(surface.distance(cloud).mean())}
    if args.out:
        geometry.write_xyz(cloud, args.out)
    if args.report:
        _write_run_report(run_report, args.report)
    return _emit(args, **scores, ss=config.start, tprime=config.stop,
                 iterations=run_report.iterations)


def _try_band(stats, lo, hi):
    try:
        return analysis.band_mean(stats, lo, hi)
    except ValueError:
        return None


def _cmd_analyze(args) -> int:
    grids = [analysis.periodogram(geometry.read_xyz(p), args.fmax) for p in args.clouds]
    stats = analysis.radial_stats(grids)
    if args.csv:
        analysis.write_profile_csv(stats, args.csv)
    if args.pgm:
        analysis.write_periodogram_pgm(stats, args.pgm)
    r_peak = analysis.peak_radius(stats)
    return _emit(args, runs=stats.runs, r_peak=r_peak,
                 peak_power=float(stats.radial_power[r_peak - 1]),
                 low_band_mean=_try_band(stats, 1, math.floor(0.5 * r_peak)),
                 plateau_mean=_try_band(stats, 1.5 * r_peak, 2.5 * r_peak), seed=None)


def _cmd_score(args) -> int:
    cloud = geometry.read_xyz(args.cloud)
    results = {"n": cloud.shape[0], "seed": None,
               "distance_score": analysis.distance_score(cloud, args.metric)}
    if args.mesh:
        results["noise_score"] = geometry.noise_score(cloud, _load_normalized_mesh(args.mesh))
    return _emit(args, **results)


def _cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"--values: {exc}") from None
    seeds = list(range(args.seeds))
    base = _embed_config(args)
    rows = pipelines.run_sweep(args.axis, values, seeds, base)
    pipelines.write_sweep_csv(rows, args.out)
    run = pipelines.EmbedConfig.denoising() if args.axis == "alpha_denoise" else base
    results = dict(values=values, seeds=seeds, seed=seeds[0], rows=len(rows), n=run.n, t=run.total,
                   ss=run.start, tprime=run.stop, beta=run.beta, noise_decay=run.noise_decay)
    # no row ran the swept flag's own value; each row's value is in values
    return _emit(args, **{**results, args.axis.removesuffix("_denoise"): None})


def _add_relax_flags(p, n_default: int, sigma_mult_default: float):
    p.add_argument("--n", type=int, default=n_default)
    p.add_argument("--cloud", default=None, help="initial cloud (.xyz) instead of --n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-mult", type=float, default=sigma_mult_default)
    p.add_argument("--epsilon", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--out", default=None, help="output cloud (.xyz)")
    p.add_argument("--report", default=None, help="run report (.json)")


def _add_embed_flags(p):
    p.add_argument("--n", type=int, default=100, help="point count")
    p.add_argument("--t", type=int, default=100, help="total refiner steps")
    p.add_argument("--ss", type=int, default=None, help="first active step (default 0.6*t)")
    p.add_argument("--tprime", type=int, default=None, help="last active step (default 0.95*t)")
    p.add_argument("--alpha", type=float, default=2.5)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--noise-decay", type=float, default=0.9, help="refiner noise decay per step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ljlayer",
        description="Point-cloud distribution normalization via damped pair dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bluenoise", help="rearrange 2D points into a blue-noise set")
    _add_relax_flags(p, n_default=1024, sigma_mult_default=1.0)
    p.add_argument("--boundary", choices=pipelines._BOUNDARY_KINDS, default="periodic")
    p.set_defaults(func=_cmd_bluenoise)

    p = sub.add_parser("redistribute", help="spread points evenly over a mesh surface")
    p.add_argument("--mesh", required=True, help="target mesh (.obj), normalized on load")
    _add_relax_flags(p, n_default=3000, sigma_mult_default=5.0)
    p.set_defaults(func=_cmd_redistribute)

    p = sub.add_parser("embed", help="run the toy refiner with embedded pair dynamics")
    p.add_argument("--mesh", default=None, help="target mesh (.obj); default unit sphere")
    _add_embed_flags(p)
    p.add_argument("--epsilon", type=float, default=2.0)
    p.add_argument("--sigma-mult", type=float, default=5.0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--pull", type=float, default=0.4)
    p.add_argument("--noise0", type=float, default=22.3)
    p.add_argument("--init", choices=pipelines._INITS, default="gauss")
    p.add_argument("--init-jitter", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare", action="store_true",
                   help="pair against a refiner-only run and report increments")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("analyze", help="spectral statistics of 2D unit-square clouds")
    p.add_argument("--cloud", action="append", required=True, dest="clouds", metavar="CLOUD",
                   help="input cloud (.xyz); repeat to average runs")
    p.add_argument("--fmax", type=int, default=128)
    p.add_argument("--csv", default=None, help="radial profile output (.csv)")
    p.add_argument("--pgm", default=None, help="periodogram image output (.pgm)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("score", help="distance score (and noise score given a mesh)")
    p.add_argument("--cloud", required=True)
    p.add_argument("--mesh", default=None)
    p.add_argument("--metric", choices=tuple(metrics._BY_NAME), default="euclidean")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("sweep", help="paired embed runs across one parameter axis")
    p.add_argument("--axis", choices=pipelines._SWEEP_AXES, required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", type=int, default=5, help="uses seeds 0..seeds-1")
    _add_embed_flags(p)
    p.add_argument("--out", required=True, help="result table (.csv)")
    p.set_defaults(func=_cmd_sweep)
    return parser


_parser = functools.cache(build_parser)     # built at the first main call, once per process


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if THREADS_ERROR:
            raise ValueError(THREADS_ERROR)
        # numpy's rejection of a negative seed names neither flag nor value
        metrics.as_number(getattr(args, "seed", 0), "--seed", 0, integer=True)
        return args.func(args)
    except OSError as exc:
        print(f"ljlayer: i/o error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ljlayer: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:      # a size flag too large for this machine
        print(f"ljlayer: out of memory: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
