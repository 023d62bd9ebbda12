"""End-to-end procedures built on the pair-dynamics core.

Three pipelines:

* ``bluenoise_2d``       - rearrange random points in the unit square into a
                           blue-noise distribution (periodic, fixed, or no
                           boundary).
* ``redistribute_on_mesh`` - spread a 3D cloud evenly over a triangle mesh,
                           gating each point's update by the normal-angle test
                           and re-projecting after every step.
* ``embed_refine``       - interleave pair-dynamics steps into an iterative
                           refiner over a step window, with the adaptive step
                           size driven by the refiner's own displacement.

``SurfaceRefiner`` is a small stand-in for learned refiners: it contracts
points toward a target surface while injecting decaying Gaussian noise.  The
embed/sweep harness at the bottom pairs refiner-only runs against embedded
runs under shared random streams, so any difference is attributable to the
embedded dynamics alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import Scores, distance_score, increment_report
from .core import LjParams, Schedule, dt_adaptive, dt_exponential, lj_step
from .geometry import FaceCache, MeshProjector, TriangleMesh
from .metrics import EUCLIDEAN, PERIODIC_UNIT, squared_norm
from .neighbors import NeighborList, build_index, k_nearest_all

__all__ = [
    "Boundary",
    "RefineWindow",
    "RunReport",
    "EmbedConfig",
    "UnitSphere",
    "MeshSurface",
    "SurfaceRefiner",
    "sigma_prime",
    "bluenoise_2d",
    "redistribute_on_mesh",
    "embed_refine",
    "run_embedded",
    "embed_compare",
    "run_sweep",
    "write_sweep_csv",
]

_BOUNDARY_KINDS = ("none", "fixed", "periodic")


@dataclass(frozen=True)
class Boundary:
    """Unit-square boundary handling applied after every update step."""

    kind: str = "periodic"

    def __post_init__(self):
        if self.kind not in _BOUNDARY_KINDS:
            raise ValueError(f"boundary kind must be one of {_BOUNDARY_KINDS}, got {self.kind!r}")

    @classmethod
    def none(cls) -> "Boundary":
        return cls("none")

    @classmethod
    def fixed(cls) -> "Boundary":
        return cls("fixed")

    @classmethod
    def periodic(cls) -> "Boundary":
        return cls("periodic")

    @property
    def metric(self):
        return PERIODIC_UNIT if self.kind == "periodic" else EUCLIDEAN

    def apply(self, points):
        if self.kind == "fixed":
            return np.clip(points, 0.0, 1.0)
        return self.metric.wrap(points)


@dataclass(frozen=True)
class RefineWindow:
    """Step window [start, stop] (1-based, inclusive) within a run of `total` steps.

    start/stop may both be None, meaning the dynamics never activate; that is
    how "refiner only" is represented rather than by an out-of-range start.
    """

    total: int
    start: int | None
    stop: int | None

    def __post_init__(self):
        if not (isinstance(self.total, (int, np.integer)) and self.total >= 0):
            raise ValueError(f"total must be a nonnegative integer, got {self.total!r}")
        if (self.start is None) != (self.stop is None):
            raise ValueError("start and stop must be both set or both None")
        if self.start is not None:
            if not (isinstance(self.start, (int, np.integer)) and isinstance(self.stop, (int, np.integer))):
                raise ValueError("start and stop must be integers")
            if not (1 <= self.start <= self.stop <= self.total):
                raise ValueError(
                    f"window must satisfy 1 <= start <= stop <= total, "
                    f"got start={self.start}, stop={self.stop}, total={self.total}"
                )

    @classmethod
    def disabled(cls, total: int) -> "RefineWindow":
        return cls(total, None, None)

    @classmethod
    def default_window(cls, total: int) -> "RefineWindow":
        """start = 0.6*total, stop = 0.95*total (rounded, clamped to valid range)."""
        if total < 1:
            return cls.disabled(total)
        stop = min(total, max(1, round(0.95 * total)))
        start = min(stop, max(1, round(0.6 * total)))
        return cls(total, start, stop)

    @property
    def enabled(self) -> bool:
        return self.start is not None

    def active(self, t: int) -> bool:
        return self.start is not None and self.start <= t <= self.stop


_STOP_REASONS = ("tol", "max_iter")


@dataclass(frozen=True)
class RunReport:
    """What a pipeline did: iteration count, last displacement, score traces.

    Traces hold one value per iteration; both are None when none was
    recorded (embed_refine with trace=False).  Only embed_refine records a
    noise trace, since only its refiner moves points off the surface; the
    other pipelines leave it None.  knn_rebuilds counts the exact
    k-nearest-neighbor rebuilds of the relaxation loop's neighbor table, the
    one on entry included; embed_refine keeps that table (k = 1) only for its
    trace, so with trace=False it reports 0.  stop_reason is "tol" when the
    loop stopped on a displacement below tol and "max_iter" when it ran
    every step.  face_requeries counts the rows redistribute_on_mesh's face
    cache sent to a fresh projection after the entry projection, and
    face_tests the exact triangle tests that cache ran after it, re-queried
    rows included; both are 0 for the other pipelines.  knn_rescans counts
    the rows of the knn_rebuilds that their first tree query could not
    certify, which a wider query answered instead; clipped clouds, whose
    edges pile points up, have many.  A cloud
    of at most neighbors._ALL_PAIRS (128) points scores every pair, so its
    table is built once: knn_rebuilds reads 1 (0 untraced) and knn_rescans 0.
    """

    iterations: int
    final_max_disp: float
    seed: int | None
    distance_trace: np.ndarray | None
    noise_trace: np.ndarray | None = None
    knn_rebuilds: int = 0
    stop_reason: str = "max_iter"
    face_requeries: int = 0
    knn_rescans: int = 0
    face_tests: int = 0

    def __post_init__(self):
        if self.distance_trace is None:
            if self.noise_trace is not None:
                raise ValueError("a noise trace needs a distance trace")
        elif len(self.distance_trace) != self.iterations:
            raise ValueError("distance trace length must equal iterations executed")
        if self.noise_trace is not None and len(self.noise_trace) != self.iterations:
            raise ValueError("noise trace length must equal iterations executed")
        if self.stop_reason not in _STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {_STOP_REASONS}, "
                             f"got {self.stop_reason!r}")

    def to_dict(self) -> dict:
        trace = None
        if self.distance_trace is not None:
            trace = {"distance_score": [float(v) for v in self.distance_trace]}
            if self.noise_trace is not None:
                trace["noise_score"] = [float(v) for v in self.noise_trace]
        return {
            "iterations": self.iterations,
            "final_max_disp": self.final_max_disp,
            "seed": self.seed,
            "trace": trace,
            "knn_rebuilds": self.knn_rebuilds,
            "stop_reason": self.stop_reason,
            "face_requeries": self.face_requeries,
            "knn_rescans": self.knn_rescans,
            "face_tests": self.face_tests,
        }


def sigma_prime(n: int) -> float:
    """Hexagonal-packing spacing estimate sqrt(2 / (sqrt(3) n)) for n points."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"sigma_prime needs an integer point count >= 2, got {n!r}")
    return math.sqrt(2.0 / (math.sqrt(3.0) * n))


def _as_cloud(cloud, dim: int):
    x = np.array(cloud, dtype=float, copy=True)
    if x.ndim != 2 or x.shape[1] != dim or x.shape[0] < 1:
        raise ValueError(f"initial cloud must have shape (n, {dim}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("initial cloud contains non-finite coordinates")
    return x


def _check_stop(tol, max_iter):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")


def _lj_setup(name: str, n: int, params, schedule, sigma_multiplier: float):
    """Defaults and checks shared by the exponential-schedule pipelines."""
    if params is None:
        params = LjParams(epsilon=2.0, sigma=sigma_prime(n) * sigma_multiplier)
    if schedule is None:
        schedule = Schedule(alpha=0.5, beta=0.01)
    if schedule.kind != "exponential":
        raise ValueError(f"{name} uses the exponential decay schedule")
    if params.k > n - 1:
        raise ValueError(f"k={params.k} requires at least {params.k + 1} points")
    return params, schedule


def _relax(cloud, move, metric, k, steps, tol: float, seed, noise=None):
    """The relaxation loop of every pipeline; returns (cloud, RunReport).

    Each step t replaces the cloud by move(t, cloud, pairs), where pairs is
    the exact k-nearest-neighbor table of the current cloud.  A NeighborList
    keeps the table exact on every new cloud, given the step's largest
    per-point displacement under the metric; its first column gives the
    distance trace, and noise(cloud), when given (embed_refine's surface
    distance), the noise trace.  With k None the loop keeps no table, pairs
    is None and no trace is recorded (pass no noise then).  The loop stops
    after the first step whose displacement falls below tol.
    """
    neighbors = None if k is None else NeighborList(metric, k)
    pairs = None if neighbors is None else neighbors.update(cloud)
    trace_d = None if neighbors is None else []
    trace_n = None if noise is None else []
    iterations = 0
    disp = 0.0
    stop_reason = "max_iter"
    for t in steps:
        new = move(t, cloud, pairs)
        disp = float(metric.distance(new, cloud).max())
        cloud = new
        iterations += 1
        if neighbors is not None:
            pairs = neighbors.update(cloud, disp)
            trace_d.append(float(metric.distance(cloud, cloud.take(pairs[:, 0], axis=0)).mean()))
        if noise is not None:
            trace_n.append(noise(cloud))
        if disp < tol:
            stop_reason = "tol"
            break
    report = RunReport(iterations, disp, seed,
                       None if trace_d is None else np.array(trace_d),
                       None if trace_n is None else np.array(trace_n),
                       0 if neighbors is None else neighbors.rebuilds, stop_reason,
                       knn_rescans=0 if neighbors is None else neighbors.rescans)
    return cloud, report


def bluenoise_2d(
    cloud_or_n,
    boundary: Boundary | None = None,
    params: LjParams | None = None,
    schedule: Schedule | None = None,
    tol: float = 1e-5,
    max_iter: int = 2000,
    seed: int = 0,
    sigma_multiplier: float = 1.0,
):
    """Iterate pair-dynamics steps on a 2D cloud until displacements fall below tol.

    Pass a point count (drawn uniformly in the unit square from `seed`) or an
    explicit (n, 2) cloud.  Defaults: periodic boundary, epsilon=2,
    sigma = sigma_prime(n) * sigma_multiplier, exponential decay alpha=0.5,
    beta=0.01.  Returns (cloud, RunReport).
    """
    if boundary is None:
        boundary = Boundary.periodic()
    _check_stop(tol, max_iter)
    rng = np.random.default_rng(seed)
    if isinstance(cloud_or_n, (int, np.integer)):
        if cloud_or_n < 1:
            raise ValueError(f"point count must be >= 1, got {cloud_or_n}")
        cloud = rng.random((int(cloud_or_n), 2))
    else:
        cloud = _as_cloud(cloud_or_n, 2)
    n = len(cloud)
    if n == 1:
        # no neighbor exists, nothing can move
        return cloud, RunReport(0, 0.0, seed, np.empty(0), stop_reason="tol")
    params, schedule = _lj_setup("bluenoise_2d", n, params, schedule, sigma_multiplier)
    metric = boundary.metric

    def move(t, cloud, pairs):
        return boundary.apply(lj_step(cloud, pairs, dt_exponential(t, schedule), params, metric, rng))

    return _relax(boundary.apply(cloud), move, metric, params.k, range(max_iter), tol, seed)


_GATE_COS = math.cos(math.pi / 4.0)


def redistribute_on_mesh(
    cloud0,
    mesh: TriangleMesh,
    params: LjParams | None = None,
    schedule: Schedule | None = None,
    tol: float = 1e-5,
    max_iter: int = 2000,
    seed: int = 0,
    sigma_multiplier: float = 5.0,
):
    """Spread a 3D cloud evenly over a normalized mesh surface.

    The cloud is projected onto the mesh up front.  Each iteration computes
    flat normals from the points' current faces, gates every point by the
    angle between its normal and its nearest neighbor's normal (< pi/4 to
    move), applies one pair-dynamics step to the gated points, and projects
    the moved points back to the surface.  Gated-out points keep their exact
    coordinates for the iteration.  Each step projects only the moved points,
    through one FaceCache, which returns what a fresh projection would, bit
    for bit.  The cloud is on the surface after every step, so the report
    keeps no noise trace (it is None).  Returns (cloud, RunReport).
    """
    x0 = _as_cloud(cloud0, 3)
    n = len(x0)
    if n < 2:
        raise ValueError("redistribute_on_mesh needs at least 2 points")
    if np.abs(mesh.vertices).max() > 1.0 + 1e-9:
        raise ValueError("mesh must be normalized to [-1, 1]^3 (see normalize_mesh)")
    _check_stop(tol, max_iter)
    params, schedule = _lj_setup("redistribute_on_mesh", n, params, schedule, sigma_multiplier)

    rng = np.random.default_rng(seed)
    cache = FaceCache(MeshProjector(mesh), x0)
    cloud, faces, _ = cache.entry

    def move(t, cloud, pairs):
        normals = mesh.face_normals.take(faces, axis=0)
        gate = (normals * normals.take(pairs[:, 0], axis=0)).sum(axis=1) > _GATE_COS
        stepped = lj_step(cloud, pairs, dt_exponential(t, schedule), params, EUCLIDEAN, rng)
        new = np.where(gate[:, None], stepped, cloud)
        rows = np.flatnonzero(gate)
        if rows.size:
            new[rows], faces[rows], _ = cache.project(rows, new.take(rows, axis=0))
        return new

    cloud, report = _relax(cloud, move, EUCLIDEAN, params.k, range(max_iter), tol, seed)
    return cloud, replace(report, face_requeries=cache.requeries, face_tests=cache.face_tests)


class UnitSphere:
    """Implicit unit sphere centered at the origin."""

    def closest(self, points):
        x = np.asarray(points, dtype=float)
        r = np.sqrt(squared_norm(x))[:, None]
        safe = np.where(r > 1e-12, r, 1.0)
        out = x / safe
        out[r[:, 0] <= 1e-12] = (1.0, 0.0, 0.0)  # center has no unique foot point
        return out

    def distance(self, points):
        x = np.asarray(points, dtype=float)
        return np.abs(np.sqrt(squared_norm(x)) - 1.0)


class MeshSurface:
    """Triangle mesh wrapped in the same closest/distance interface."""

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self._projector = MeshProjector(mesh)

    def closest(self, points):
        return self._projector.project(points)[0]

    def distance(self, points):
        return self._projector.project(points)[2]


class SurfaceRefiner:
    """Toy iterative refiner: contract toward a surface, add decaying noise.

    step t maps x to x + pull*(closest(x) - x) + noise0*decay^t*g with g drawn
    from a seeded Gaussian stream, so two refiners built with the same seed
    produce identical trajectories given identical inputs.
    """

    def __init__(self, surface=None, pull: float = 0.2, noise0: float = 0.05,
                 decay: float = 0.9, seed: int = 0):
        if not 0.0 < pull <= 1.0:
            raise ValueError(f"pull must be in (0, 1], got {pull}")
        if not (math.isfinite(noise0) and noise0 >= 0.0):
            raise ValueError(f"noise0 must be a finite number >= 0, got {noise0}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.surface = surface if surface is not None else UnitSphere()
        self.pull = pull
        self.noise0 = noise0
        self.decay = decay
        self._rng = np.random.default_rng((seed, 1))

    def step(self, t: int, cloud):
        x = np.asarray(cloud, dtype=float)
        out = x + self.pull * (self.surface.closest(x) - x)
        if self.noise0 > 0.0:
            out = out + (self.noise0 * self.decay**t) * self._rng.standard_normal(x.shape)
        return out


# largest coordinate magnitude whose squared pairwise distances in 3D stay finite
_MAX_COORD = math.sqrt(np.finfo(float).max / 12.0)


def embed_refine(
    refiner,
    cloud0,
    window: RefineWindow,
    params: LjParams | None = None,
    alpha: float = 2.5,
    beta: float = 0.01,
    seed: int = 0,
    sigma_multiplier: float = 5.0,
    trace: bool = True,
):
    """Run a refiner for window.total steps, embedding pair dynamics inside the window.

    Each step t first applies the refiner to the (n, 3) cloud.  For
    window.start <= t <= window.stop one pair-dynamics step follows, its step
    size set by dt_adaptive(i, d) where i = t - window.start + 1 counts steps
    inside the window and d is the largest per-point displacement the refiner
    just produced.  Steps after the window run the refiner alone.  With
    trace=False no per-step score is computed and the report's traces are
    None; the cloud is the same either way.  A run whose coordinates become
    non-finite or too large to square raises ValueError at that step.
    Returns (cloud, RunReport).
    """
    cloud = _as_cloud(cloud0, 3)
    n = len(cloud)
    if n < 2:
        raise ValueError("embed_refine needs at least 2 points")
    if not np.abs(cloud).max() < _MAX_COORD:
        raise ValueError(f"initial cloud coordinates must be below {_MAX_COORD:.3g} in magnitude")
    if params is None:
        params = LjParams(epsilon=2.0, sigma=sigma_prime(n) * sigma_multiplier)
    if params.k > n - 1:
        raise ValueError(f"k={params.k} requires at least {params.k + 1} points")
    schedule = Schedule(alpha=alpha, beta=beta, kind="adaptive")
    rng = np.random.default_rng(seed)
    surface = getattr(refiner, "surface", None)

    def move(t, prev, _):
        refined = np.asarray(refiner.step(t, prev), dtype=float)
        if refined.shape != prev.shape:
            raise ValueError(f"refiner changed the cloud shape: {prev.shape} -> {refined.shape}")
        cloud = refined
        # NaN fails both bound checks too
        if window.active(t) and np.abs(refined).max() < _MAX_COORD:
            max_disp = float(EUCLIDEAN.distance(refined, prev).max())
            dt = dt_adaptive(t - window.start + 1, max_disp, schedule)
            if dt > 0.0:
                pairs = k_nearest_all(build_index(refined, EUCLIDEAN), params.k)
                with np.errstate(over="ignore", invalid="ignore"):    # checked below
                    cloud = lj_step(refined, pairs, dt, params, EUCLIDEAN, rng)
        if not np.abs(cloud).max() < _MAX_COORD:
            with np.errstate(over="ignore", invalid="ignore"):
                max_disp = float(EUCLIDEAN.distance(refined, prev).max())
            raise ValueError(f"embedded run diverged at step {t} (alpha={alpha}): refiner "
                             f"displacement {max_disp:.6g}, coordinates non-finite or beyond "
                             f"{_MAX_COORD:.3g}")
        return cloud

    def noise(cloud):
        return float(surface.distance(cloud).mean())

    # move() finds its own pairs, so the loop's table only feeds the trace: k = 1
    return _relax(cloud, move, EUCLIDEAN, 1 if trace else None, range(1, window.total + 1),
                  0.0, seed, noise if trace and surface is not None else None)


@dataclass(frozen=True)
class EmbedConfig:
    """Everything needed for one paired refiner-vs-embedded comparison.

    The refiner defaults describe an annealed generation run: the noise scale
    starts high (noise0 = 22.3 puts early points in a diffuse fog) and decays
    to about 0.04 when the window opens at step 60, then to ~6e-4 by step
    100.  That gives the adaptive step size something meaningful to measure
    inside the window while leaving the tail quiet enough for the spacing
    gains to survive to the final cloud.
    """

    n: int = 100
    total: int = 100
    start: int | None = 60
    stop: int | None = 95
    alpha: float = 2.5
    beta: float = 0.01
    epsilon: float = 2.0
    sigma_multiplier: float = 5.0
    k: int = 3
    pull: float = 0.4
    noise0: float = 22.3
    noise_decay: float = 0.9
    init: str = "gauss"
    init_jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.init not in ("gauss", "noisy_surface"):
            raise ValueError(f"init must be 'gauss' or 'noisy_surface', got {self.init!r}")
        if not math.isfinite(self.init_jitter):
            raise ValueError(f"init_jitter must be finite, got {self.init_jitter}")

    def window(self) -> RefineWindow:
        if self.start is None or self.stop is None:
            return RefineWindow.disabled(self.total)
        return RefineWindow(self.total, self.start, self.stop)

    def lj_params(self) -> LjParams:
        return LjParams(epsilon=self.epsilon,
                        sigma=sigma_prime(self.n) * self.sigma_multiplier,
                        k=self.k)

    @classmethod
    def denoising(cls, **overrides) -> "EmbedConfig":
        """Preset for denoising-style runs: shorter schedule, moderate noise.

        Starts from jittered on-surface points; the weaker pull leaves a
        visible residual for the noise score to measure, so the alpha sweep
        traces the full tradeoff: proportional leak at small alpha, a trough
        where strong kicks resolve clusters faster than they push points off
        the surface, and an overshoot branch where leak dominates again.
        """
        window = RefineWindow.default_window(overrides.pop("total", 60))
        base = dict(
            total=window.total,
            start=window.start,
            stop=window.stop,
            alpha=0.3,
            pull=0.3,
            noise0=3.0,
            init="noisy_surface",
        )
        base.update(overrides)
        return cls(**base)


def _init_cloud(config: EmbedConfig):
    rng = np.random.default_rng((config.seed, 0))
    if config.init == "gauss":
        return 0.5 * rng.standard_normal((config.n, 3))
    g = rng.standard_normal((config.n, 3))
    r = np.sqrt(squared_norm(g))[:, None]
    r[r < 1e-12] = 1.0
    return g / r + config.init_jitter * rng.standard_normal((config.n, 3))


def run_embedded(config: EmbedConfig, embedded: bool = True, surface=None, trace: bool = True):
    """One harness run; embedded=False runs the refiner alone on the same streams.

    trace is passed to embed_refine: False skips the per-step scores.
    """
    if surface is None:
        surface = UnitSphere()
    refiner = SurfaceRefiner(surface, pull=config.pull, noise0=config.noise0,
                             decay=config.noise_decay, seed=config.seed)
    window = config.window() if embedded else RefineWindow.disabled(config.total)
    cloud0 = _init_cloud(config)
    return embed_refine(refiner, cloud0, window, params=config.lj_params(),
                        alpha=config.alpha, beta=config.beta, seed=config.seed, trace=trace)


def _final_scores(cloud, surface) -> Scores:
    return Scores(distance=distance_score(cloud),
                  noise=float(surface.distance(cloud).mean()))


def embed_compare(config: EmbedConfig, surface=None, trace: bool = True):
    """Paired baseline/embedded runs sharing seed streams.

    Returns (report, base_run, ljl_run) where report is the increment
    ScoreReport, scored on the final clouds, and each run is its (cloud,
    RunReport) pair; trace=False leaves the runs' traces None.
    """
    if surface is None:
        surface = UnitSphere()
    base = run_embedded(config, embedded=False, surface=surface, trace=trace)
    ljl = run_embedded(config, embedded=True, surface=surface, trace=trace)
    report = increment_report(_final_scores(base[0], surface), _final_scores(ljl[0], surface))
    return report, base, ljl


_SWEEP_AXES = ("ss", "alpha", "beta", "alpha_denoise")


def _sweep_config(axis: str, value: float, seed: int, base: EmbedConfig) -> EmbedConfig:
    if axis == "ss":
        ss = int(round(value))
        stop = base.stop if base.stop is not None else base.total
        if ss > stop:
            return replace(base, start=None, stop=None, seed=seed)
        return replace(base, start=max(1, ss), stop=stop, seed=seed)
    if axis == "alpha":
        return replace(base, alpha=float(value), seed=seed)
    if axis == "beta":
        return replace(base, beta=float(value), seed=seed)
    if axis == "alpha_denoise":
        return EmbedConfig.denoising(alpha=float(value), seed=seed)
    raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")


def run_sweep(axis: str, values, seeds, base: EmbedConfig | None = None) -> list[dict]:
    """Paired embed runs for each (value, seed); one result row per run."""
    if axis not in _SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    values = list(values)
    seeds = list(seeds)
    if not values:
        raise ValueError("sweep needs at least one value")
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    if base is None:
        base = EmbedConfig()
    rows = []
    for value in values:
        for seed in seeds:
            config = _sweep_config(axis, value, int(seed), base)
            report, _, _ = embed_compare(config, trace=False)
            rows.append({
                "value": float(value),
                "seed": int(seed),
                "distance_score": report.distance_score_ljl,
                "noise_score": report.noise_score_ljl,
                "distance_increment": report.distance_increment,
                "noise_increment": report.noise_increment,
                "ratio": float("nan") if report.ratio is None else report.ratio,
            })
    return rows


_SWEEP_COLUMNS = ("value", "seed", "distance_score", "noise_score",
                  "distance_increment", "noise_increment", "ratio")


def write_sweep_csv(rows, path):
    with open(path, "w") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in _SWEEP_COLUMNS:
                v = row[col]
                cells.append(str(v) if col == "seed" else f"{v:.9g}")
            fh.write(",".join(cells) + "\n")
    return path
