"""The benchmark's workloads: inputs made from a seed, one round of work, checks.

Each workload builds its inputs once from the workload seed and then runs
rounds of the same operations through the program's entry points: the CLI
in-process where the command takes generated inputs (--cloud, --mesh), and
otherwise the pipeline function the command itself calls.  `round` does the
timed work, `collect` reads its outputs back, and `check` tests one round's
outputs against the brute-force computations in checks.py, returning the
workload's `spread` and how many of its operations hit a known fault.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import checks
from ljlayer import cli, geometry, pipelines


def run_cli(argv) -> str:
    """ljlayer.cli.main in-process; returns its stdout, raises on a nonzero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"ljlayer {argv[0]} exited with code {code}")
    return buf.getvalue()


def write_points(path, x):
    np.savetxt(path, x, fmt="%.17g")      # 17 digits: the program reads the exact cloud


def read_points(text: str):
    return np.loadtxt(io.StringIO(text), ndmin=2)


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class Bluenoise:
    """2D periodic blue noise from a uniform cloud, to the default tol, then analyze.

    kNN at large n does almost all the work; the periodogram sets peak memory.
    """

    N = 2048
    OPS = 2            # bluenoise, analyze

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.cloud0 = rng.random((self.N, 2))
        (self.run_seed,) = _seeds(rng, 1)
        self.files = {k: workdir / f"bn-{k}" for k in ("in.xyz", "out.xyz", "prof.csv", "spec.pgm")}
        write_points(self.files["in.xyz"], self.cloud0)

    def round(self):
        f = self.files
        self.stdout = {
            "bluenoise": run_cli(["bluenoise", "--cloud", f["in.xyz"], "--seed", self.run_seed,
                                  "--out", f["out.xyz"]]),
            "analyze": run_cli(["analyze", "--cloud", f["out.xyz"], "--csv", f["prof.csv"],
                                "--pgm", f["spec.pgm"]]),
        }

    def collect(self) -> dict:
        out = dict(self.stdout)
        for k in ("out.xyz", "prof.csv", "spec.pgm"):
            out[k] = self.files[k].read_text()
        return out

    def check(self, out):
        bn = json.loads(out["bluenoise"])
        an = json.loads(out["analyze"])
        cloud = read_points(out["out.xyz"])
        failed = 0
        try:
            checks.check_unit_square(cloud)
        except checks.KnownFault:
            failed = 1
        if not bn["final_max_disp"] < bn["tol"]:
            raise checks.CheckError(f"stopped at max_iter, not at tol: {bn['final_max_disp']}")
        checks.check_min_spacing(cloud)
        radii, power = checks.read_profile(out["prof.csv"])
        checks.check_low_band(radii, power, an)
        checks.check_profile_bins(cloud, power, (1, 2, an["r_peak"]))
        score = checks.check_score(bn["distance_score"], cloud, periodic=True)
        return score / checks.hex_spacing(self.N), failed


class Mesh:
    """A uniform 3D cloud redistributed over a normalized icosphere, then score --mesh.

    Exact closest-point projection does most of the work; the kNN runs in
    3D Euclidean space.  alpha=0.2, beta=0.05 let the run reach the default
    tol in under a hundred iterations.
    """

    N = 2000
    OPS = 2            # redistribute, score
    SCHEDULE = ("--alpha", "0.2", "--beta", "0.05")

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.cloud0 = rng.uniform(-1.0, 1.0, (self.N, 3))
        (self.run_seed,) = _seeds(rng, 1)
        self.files = {k: workdir / f"mesh-{k}" for k in ("mesh.obj", "in.xyz", "out.xyz")}
        mesh = geometry.normalize_mesh(geometry.icosphere(3))
        lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.faces.tolist()]
        self.files["mesh.obj"].write_text("\n".join(lines) + "\n")
        write_points(self.files["in.xyz"], self.cloud0)

    def round(self):
        f = self.files
        self.stdout = {
            "redistribute": run_cli(["redistribute", "--mesh", f["mesh.obj"], "--cloud", f["in.xyz"],
                                     "--seed", self.run_seed, *self.SCHEDULE,
                                     "--out", f["out.xyz"]]),
            "score": run_cli(["score", "--cloud", f["out.xyz"], "--mesh", f["mesh.obj"]]),
        }

    def collect(self) -> dict:
        return {**self.stdout, "out.xyz": self.files["out.xyz"].read_text()}

    def check(self, out):
        red = json.loads(out["redistribute"])
        score = json.loads(out["score"])
        cloud = read_points(out["out.xyz"])
        verts, faces = checks.read_obj(self.files["mesh.obj"].read_text())
        verts = checks.normalize(verts)
        if not red["final_max_disp"] < red["tol"]:
            raise checks.CheckError(f"stopped at max_iter, not at tol: {red['final_max_disp']}")
        dist = checks.check_on_surface(cloud, verts, faces)
        checks.check_noise_score(score["noise_score"], dist)
        d_out = checks.check_score(red["distance_score"], cloud)
        checks.check_score(score["distance_score"], cloud)
        direct, _ = checks.closest_on_mesh(self.cloud0, verts, faces)
        spread = d_out / float(checks.nn_distances(direct).mean())
        checks.check_mesh_spread(spread)
        return spread, 0


class Embed:
    """The embedding harness at the CLI defaults (n = 100).

    One `ss` sweep (criterion 8's start steps), `embed --compare --out` for
    several seeds, each one's refiner-only twin, and one alpha = 0 run.
    Thousands of small kNN calls where the other workloads make hundreds of
    large ones.
    """

    SS_VALUES = (60, 70, 80, 90, 100)
    SWEEP_SEEDS = 4
    COMPARE_SEEDS = 8
    OPS = 1 + 2 * COMPARE_SEEDS + 1   # sweep, embed and twin per seed, alpha = 0 run

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.sweep_seeds = _seeds(rng, self.SWEEP_SEEDS)
        self.compare_seeds = _seeds(rng, self.COMPARE_SEEDS)
        self.files = {"sweep.csv": workdir / "embed-sweep.csv"}
        self.files.update({f"out{i}.xyz": workdir / f"embed-out{i}.xyz"
                           for i in range(self.COMPARE_SEEDS)})

    def round(self):
        rows = pipelines.run_sweep("ss", self.SS_VALUES, self.sweep_seeds)
        pipelines.write_sweep_csv(rows, self.files["sweep.csv"])
        self.stdout = [run_cli(["embed", "--compare", "--seed", s, "--out", self.files[f"out{i}.xyz"]])
                       for i, s in enumerate(self.compare_seeds)]
        self.twins = [pipelines.run_embedded(pipelines.EmbedConfig(seed=s), embedded=False)[0]
                      for s in self.compare_seeds]
        config = pipelines.EmbedConfig(alpha=0.0, seed=self.compare_seeds[0])
        self.alpha0 = pipelines.run_embedded(config, embedded=True)[0]

    def collect(self) -> dict:
        out = {k: p.read_text() for k, p in self.files.items()}
        out.update({f"embed{i}": s for i, s in enumerate(self.stdout)})
        out.update({f"twin{i}": t.tobytes() for i, t in enumerate(self.twins)})
        out["alpha0"] = self.alpha0.tobytes()
        return out

    def check(self, out):
        rows = checks.read_sweep(out["sweep.csv"], self.SS_VALUES, self.sweep_seeds)
        checks.check_gain_falls(rows)
        ratios = []
        for i in range(self.COMPARE_SEEDS):
            summary = json.loads(out[f"embed{i}"])
            twin = np.frombuffer(out[f"twin{i}"]).reshape(-1, 3)
            d_ljl = checks.check_score(summary["distance_score"], read_points(out[f"out{i}.xyz"]))
            d_twin = checks.check_score(summary["distance_score_base"], twin, rtol=1e-9)
            ratios.append(d_ljl / d_twin)
        checks.check_bit_equal(np.frombuffer(out["alpha0"]), np.frombuffer(out["twin0"]),
                               "alpha = 0 run vs the refiner alone")
        return float(np.mean(ratios)), 0


WORKLOADS = {"bluenoise": Bluenoise, "mesh": Mesh, "embed": Embed}
