"""Hashes of the outputs of a fixed list of runs, one line per case, to diff two checkouts.

Each case runs in process, in a fresh temporary directory.  A CLI case runs
`ljlayer.cli.main` and records its exit code, stdout, stderr and every file it
wrote; a library case records the arrays and counters it returned.  Each case
prints one line: its name, then `output:sha1` for each output (the first 12
hex digits), so that `diff` between two checkouts names the case and the
output that changed.  A rejection case (a CLI command that must exit 2) prints
its stderr as text instead, so the diff shows how a message changed.  A
`--report` file prints its work counters (COUNTERS) as text and hashes the rest
of the report, so a change that only moves a counter shows as those fields:

    python tools/golden.py > change.txt
    python tools/golden.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

The inputs (clouds and the OBJ mesh) are written here with numpy alone, so both
checkouts read the same bytes.  Compare on one machine only: the BLAS product
inside `periodogram` may round differently with another thread count.

Usage: python tools/golden.py [--src SOURCE_DIR]   (default: the src/ beside tools/)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np


def digest(*parts) -> str:
    """sha1 prefix of arrays, numbers and strings, each with its type and shape."""
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, (str, bytes)):
            h.update(part.encode() if isinstance(part, str) else part)
        else:
            a = np.asarray(part)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:12]


# RunReport fields that count work done, not results
COUNTERS = ("face_requeries", "face_tests", "gated_out", "knn_rebuilds", "knn_rescans")


def file_fields(name: str, data: bytes) -> list[str]:
    """The sha1 of a written file; a run report's is taken without its COUNTERS,
    which follow as text.  A report that json.dumps does not write back byte for
    byte is hashed whole."""
    try:
        report = json.loads(data)
    except ValueError:
        report = None
    if not isinstance(report, dict) or (json.dumps(report, sort_keys=True) + "\n").encode() != data:
        return [f"{name}:{digest(data)}"]
    counters = [f"{name}.{key}:{report.pop(key)}" for key in COUNTERS if key in report]
    return [f"{name}:{digest(json.dumps(report, sort_keys=True))}", *counters]


def write_inputs(root: Path, icosphere) -> None:
    """The clouds and meshes the CLI cases read, written with numpy only."""
    for name, sub in (("sphere.obj", 1), ("sphere3.obj", 3)):
        mesh = icosphere(sub)
        with open(root / name, "w") as fh:
            np.savetxt(fh, mesh.vertices, fmt="v %.17g %.17g %.17g")
            np.savetxt(fh, mesh.faces + 1, fmt="f %d %d %d")
    for seed in (0, 1, 4):
        np.savetxt(root / f"c{seed}.xyz", np.random.default_rng(seed).random((64, 2)),
                   fmt="%.17g")
    np.savetxt(root / "one.xyz", [[0.25, 0.5]], fmt="%.17g")
    np.savetxt(root / "c3d.xyz", np.random.default_rng(2).random((64, 3)), fmt="%.17g")
    np.savetxt(root / "cube.xyz", np.random.default_rng(3).uniform(-1, 1, (300, 3)),
               fmt="%.17g")


# (name, argv); criterion 9's six commands come first
CLI_CASES = [
    ("c9-bluenoise", "bluenoise --n 64 --seed 3 --max-iter 40 --out pts.xyz --report pts.json"),
    ("c9-redistribute", "redistribute --mesh sphere.obj --n 100 --seed 1 --max-iter 50 "
                        "--out red.xyz"),
    ("c9-embed", "embed --n 60 --t 50 --ss 30 --tprime 47 --seed 2 --compare --out emb.xyz "
                 "--report emb.json"),
    ("c9-analyze", "analyze --cloud c0.xyz --cloud c1.xyz --fmax 8 --csv prof.csv "
                   "--pgm spec.pgm"),
    ("c9-score", "score --cloud c3d.xyz --mesh sphere.obj"),
    ("c9-sweep", "sweep --axis alpha --values 0.0,2.5 --seeds 2 --n 20 --t 20 --out sweep.csv"),
    ("bluenoise-fixed", "bluenoise --n 64 --seed 4 --max-iter 40 --boundary fixed --out f.xyz"),
    ("bluenoise-none", "bluenoise --n 64 --seed 5 --max-iter 40 --boundary none --out o.xyz"),
    ("redistribute-report", "redistribute --mesh sphere3.obj --cloud cube.xyz --seed 2 "
                            "--alpha 0.2 --beta 0.05 --out r3.xyz --report r3.json"),
    ("score-mesh", "score --cloud cube.xyz --mesh sphere3.obj"),
    ("score-periodic", "score --cloud c0.xyz --metric periodic"),
    ("embed-mesh-compare", "embed --mesh sphere.obj --n 40 --t 30 --seed 3 --compare "
                           "--out em.xyz --report em.json"),
    ("embed-noisy-surface", "embed --n 40 --t 30 --seed 4 --init noisy_surface --out ns.xyz"),
    ("sweep-ss", "sweep --axis ss --values 14,16 --seeds 1 --n 20 --t 20 --out ss.csv"),
    ("sweep-beta", "sweep --axis beta --values 0.01,0.1 --seeds 1 --n 20 --t 20 --out b.csv"),
    ("sweep-alpha-denoise", "sweep --axis alpha_denoise --values 0.3 --seeds 1 --n 20 "
                            "--out d.csv"),
    ("analyze-three", "analyze --cloud c0.xyz --cloud c1.xyz --cloud c4.xyz --fmax 12 "
                      "--csv p3.csv --pgm s3.pgm"),
]

# (name, argv) of invalid configurations; the fmax messages name this machine's limit
REJECT_CASES = [
    ("reject-max-iter", "bluenoise --max-iter -1"),
    ("reject-tol", "bluenoise --n 20 --tol nan"),
    ("reject-n", "bluenoise --n 0"),
    ("reject-sigma-mult", "bluenoise --sigma-mult 0"),
    ("reject-epsilon", "bluenoise --n 20 --epsilon 0"),
    ("reject-alpha", "bluenoise --n 20 --alpha -1"),
    ("reject-seed", "embed --seed -1"),
    ("reject-ss", "embed --t 10 --ss 20"),
    ("reject-tprime", "embed --n 20 --t 10 --ss 8 --tprime 5"),
    ("reject-pull", "embed --n 20 --t 10 --pull 0"),
    ("reject-init-jitter", "embed --n 20 --t 10 --init-jitter nan"),
    ("reject-embed-k", "embed --n 20 --t 10 --k 20"),
    ("reject-k", "redistribute --mesh sphere.obj --k 0"),
    ("reject-fmax", "analyze --cloud c0.xyz --fmax 0"),
    ("reject-fmax-huge", "analyze --cloud c0.xyz --fmax 99999999999999999999"),
    ("reject-sweep-ss", "sweep --axis ss --values nan --seeds 1 --n 20 --t 10 --out s.csv"),
    ("reject-score-one-point", "score --cloud one.xyz"),
    ("reject-sweep-beta", "sweep --axis beta --values 0.01,-1 --seeds 2 --n 20 --t 10 "
                          "--out b.csv"),
    ("reject-compare-alpha", "embed --compare --alpha -1"),
]


def run_cli(main, argv: str, root: Path, verbatim: bool = False) -> list[str]:
    """The case's fields; verbatim prints stderr as text rather than its sha1."""
    before = set(os.listdir(root))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    fields = [f"exit:{code}", f"stdout:{digest(out.getvalue())}",
              f"stderr:{err.getvalue().strip()!r}" if verbatim
              else f"stderr:{digest(err.getvalue())}"]
    for name in sorted(set(os.listdir(root)) - before):
        fields += file_fields(name, (root / name).read_bytes())
        os.remove(root / name)      # so the next case that writes the name counts it again
    return fields


def clouds(rng, projector, n: int) -> dict:
    """Projection queries: on the surface and 1e-6 off it, inside, far out and near the center."""
    surface = projector.project(rng.uniform(-1.5, 1.5, (n, 3)))[0]
    return {"near-surface": surface + 1e-6 * rng.standard_normal((n, 3)),
            "inside": rng.uniform(-0.6, 0.6, (n, 3)),
            "far": rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(1, 6, (n, 1)),
            "near-center": rng.uniform(-1e-3, 1e-3, (n // 4, 3)),
            "cube": rng.uniform(-1, 1, (n, 3))}


def library_cases(lj):
    """(name, fields) of the library calls, the projection paths above all."""
    geometry, neighbors, analysis = lj.geometry, lj.neighbors, lj.analysis
    for sub in (1, 3):
        proj = geometry.MeshProjector(geometry.icosphere(sub))
        rng = np.random.default_rng(10 + sub)
        for kind, q in clouds(rng, proj, 400).items():
            yield f"project-ico{sub}-{kind}", [f"out:{digest(*proj.project(q))}"]
        q = proj.project(rng.uniform(-1.2, 1.2, (400, 3)))[0]
        cache = geometry.FaceCache(proj, q)
        steps = [digest(*cache.entry)]
        for scale in (0.0, 1e-6, 1e-3, 0.02, 0.1, 0.5):
            rows = np.flatnonzero(rng.random(len(q)) < 0.7)
            q[rows] += scale * rng.standard_normal((rows.size, 3))
            steps.append(digest(*cache.project(rows, q[rows])))
        yield f"facecache-ico{sub}", [f"out:{digest(*steps)}", f"requeries:{cache.requeries}",
                                      f"face_tests:{cache.face_tests}"]
    # 60 steps as redistribute_on_mesh takes them on the mesh workload's schedule: moves of
    # about a tenth of dt = 0.2 exp(-0.05 t) from points on the surface, projected back
    proj = geometry.MeshProjector(geometry.icosphere(3))
    rng = np.random.default_rng(15)
    q = proj.project(rng.uniform(-1.2, 1.2, (400, 3)))[0]
    cache, schedule = geometry.FaceCache(proj, q), lj.core.Schedule(alpha=0.2, beta=0.05)
    steps = [digest(*cache.entry)]
    for t in range(60):
        rows = np.flatnonzero(rng.random(len(q)) < 0.7)
        move = 0.06 * lj.core.dt_exponential(t, schedule) * rng.standard_normal((rows.size, 3))
        out = cache.project(rows, q[rows] + move)
        q[rows] = out[0]
        steps.append(digest(*out))
    yield "facecache-long", [f"out:{digest(*steps)}", f"requeries:{cache.requeries}",
                             f"face_tests:{cache.face_tests}"]
    rng = np.random.default_rng(20)
    for metric, x in (("euclidean", np.round(rng.random((300, 2)) * 8) / 8),     # ties
                      ("periodic", np.mod(rng.random((300, 2)) * 0.1 - 0.05, 1.0))):  # the seam
        nl = neighbors.NeighborList(metric, 3)
        steps = []
        for scale in (0.0, 1e-4, 1e-2, 0.1):
            step = scale * rng.standard_normal(x.shape)
            x = x + step
            if metric == "periodic":
                x = np.mod(x, 1.0)
            steps.append(digest(*nl.update(x, float(np.sqrt((step ** 2).sum(axis=1)).max()))))
        yield f"neighborlist-{metric}", [f"out:{digest(*steps)}", f"rebuilds:{nl.rebuilds}",
                                         f"rescans:{nl.rescans}"]
    for n in (500, 2 * analysis._CHUNK + 7):        # one chunk; several
        yield f"periodogram-{n}", [f"out:{digest(analysis.periodogram(rng.random((n, 2)), 16))}"]


def io_cases(lj, root: Path):
    """write_xyz and save_obj bytes, extreme values included."""
    x = np.array([[-0.0, 5e-324, 1.8e308], [1 / 3, -2.5e-310, 123456789.123], [0.0, -1e-300, 7.0]])
    lj.geometry.write_xyz(x, root / "w.xyz")
    lj.geometry.write_xyz(np.random.default_rng(30).random((50, 2)), root / "w2.xyz")
    lj.geometry.save_obj(lj.geometry.icosphere(2), root / "w.obj")
    yield "write", [f"{name}:{digest((root / name).read_bytes())}"
                    for name in ("w.xyz", "w2.xyz", "w.obj")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the ljlayer package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import ljlayer.analysis
    import ljlayer.cli
    import ljlayer.core
    import ljlayer.geometry
    import ljlayer.neighbors
    lj = ljlayer
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cwd = os.getcwd()
        os.chdir(root)
        try:
            write_inputs(root, lj.geometry.icosphere)
            for name, argv_ in CLI_CASES:
                print(name, *run_cli(lj.cli.main, argv_, root), flush=True)
            for name, argv_ in REJECT_CASES:
                print(name, *run_cli(lj.cli.main, argv_, root, verbatim=True), flush=True)
            for name, fields in itertools.chain(library_cases(lj), io_cases(lj, root)):
                print(name, *fields, flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
