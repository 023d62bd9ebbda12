"""End-to-end procedures built on the pair-dynamics core: ``bluenoise_2d``,
``redistribute_on_mesh`` and ``embed_refine``, which share one relaxation
loop, and the harness that pairs refiner-only runs against embedded runs of a
toy ``SurfaceRefiner`` under shared random streams (README, "Library
overview").
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .analysis import Scores, distance_score, increment_report
from .core import LjParams, Schedule, dt_adaptive, dt_exponential, lj_step
from .geometry import FaceCache, MeshProjector, TriangleMesh
from .metrics import EUCLIDEAN, PERIODIC_UNIT, as_cloud, as_number, squared_norm
from .neighbors import NeighborList, build_index, k_nearest_all

__all__ = [
    "Boundary",
    "RefineWindow",
    "RunReport",
    "EmbedConfig",
    "UnitSphere",
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

_BOUNDARY_KINDS = ("periodic", "fixed", "none")


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
        as_number(self.total, "total", 0, integer=True)
        if (self.start is None) != (self.stop is None):
            raise ValueError("start and stop must be both set or both None")
        if self.start is not None:
            as_number(self.start, "start", 1, self.total, integer=True)
            as_number(self.stop, "stop", self.start, self.total, integer=True)

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

    def active(self, t: int) -> bool:
        return self.start is not None and self.start <= t <= self.stop


_STOP_REASONS = ("tol", "max_iter")


@dataclass(frozen=True)
class RunReport:
    """What a pipeline did; the README's "Library overview" describes each field.

    Each trace holds one value per iteration, or is None when none was
    recorded; a noise trace needs a distance trace, and only embed_refine
    records one.  stop_reason is "tol" or "max_iter".  The knn counters count
    the loop's neighbor-table rebuilds, the entry build included, and the rows
    their first query left uncertified; the face and gate counters are
    redistribute_on_mesh's and 0 for the other pipelines.
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
    gated_out: int = 0

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
        """Every field by name, the two traces folded into one "trace" entry."""
        trace = None
        if self.distance_trace is not None:
            trace = {"distance_score": [float(v) for v in self.distance_trace]}
            if self.noise_trace is not None:
                trace["noise_score"] = [float(v) for v in self.noise_trace]
        return {**{f.name: getattr(self, f.name) for f in fields(self)
                   if not f.name.endswith("_trace")}, "trace": trace}


def sigma_prime(n: int) -> float:
    """Hexagonal-packing spacing estimate sqrt(2 / (sqrt(3) n)) for n points."""
    n = as_number(n, "n", 2, integer=True)
    return math.sqrt(2.0 / (math.sqrt(3.0) * n))


def _check_stop(tol, max_iter):
    as_number(tol, "tol", 0)
    as_number(max_iter, "max_iter", 0, integer=True)


def _lj_params(n: int, params, multiplier: float) -> LjParams:
    """params, by default epsilon=2 and sigma = sigma_prime(n) * multiplier;
    its k must leave k neighbors among n points."""
    if params is None:
        params = LjParams(epsilon=2.0, sigma=sigma_prime(n) * multiplier)
    as_number(params.k, "k", 1, n - 1, integer=True)
    return params


class _Loop:
    """The relaxation loop between two steps: cloud, NeighborList (none when k
    is None) and its table, traces, steps taken and last displacement."""

    def __init__(self, cloud, metric, k, noise=None):
        self.cloud, self.metric, self.noise = cloud, metric, noise
        self.iterations, self.disp = 0, 0.0
        self.neighbors = None if k is None else NeighborList(metric, k)
        self.pairs = None if k is None else self.neighbors.update(cloud)
        self.trace_d, self.trace_n = (None if k is None else []), (None if noise is None else [])


def _relax(loop: _Loop, move, steps, tol: float, seed):
    """The relaxation loop of every pipeline; returns (cloud, RunReport).

    Each step t replaces the cloud by move(t, cloud, pairs), where pairs is
    the exact k-nearest-neighbor table of the current cloud.  The loop's
    NeighborList keeps the table exact on every new cloud, given the step's
    largest per-point displacement under the metric; its first column gives
    the distance trace, and loop.noise(cloud), when set, the noise trace.
    Without a list pairs is None.  The loop stops after the first step whose
    displacement falls below tol; a later call on `loop` continues from there.
    """
    for t in steps:
        new = move(t, loop.cloud, loop.pairs)
        loop.disp = float(loop.metric.distance(new, loop.cloud).max())
        loop.cloud = new
        loop.iterations += 1
        if loop.neighbors is not None:
            loop.pairs = loop.neighbors.update(new, loop.disp)
            loop.trace_d.append(float(loop.metric.distance(new, new.take(loop.pairs[:, 0], axis=0)).mean()))
        if loop.noise is not None:
            loop.trace_n.append(loop.noise(new))
        if loop.disp < tol:
            break
    report = RunReport(loop.iterations, loop.disp, seed,
                       None if loop.trace_d is None else np.array(loop.trace_d),
                       None if loop.trace_n is None else np.array(loop.trace_n),
                       0 if loop.neighbors is None else loop.neighbors.rebuilds,
                       "tol" if loop.iterations and loop.disp < tol else "max_iter",
                       knn_rescans=0 if loop.neighbors is None else loop.neighbors.rescans)
    return loop.cloud, report


def bluenoise_2d(
    cloud_or_n,
    boundary: Boundary | None = None,
    params: LjParams | None = None,
    schedule: Schedule | None = None,
    tol: float = 1e-5,
    max_iter: int = 2000,
    seed: int = 0,
):
    """Iterate pair-dynamics steps on a 2D cloud until displacements fall below tol.

    Pass a point count (drawn uniformly in the unit square from `seed`) or an
    explicit (n, 2) cloud.  Defaults: periodic boundary, epsilon=2,
    sigma = sigma_prime(n), exponential decay alpha=0.5, beta=0.01.
    Returns (cloud, RunReport).
    """
    if boundary is None:
        boundary = Boundary.periodic()
    _check_stop(tol, max_iter)
    rng = np.random.default_rng(seed)
    if np.ndim(cloud_or_n) == 0:
        cloud = rng.random((as_number(cloud_or_n, "n", 1, integer=True), 2))
    else:
        cloud = as_cloud(cloud_or_n, (2,), "initial cloud points").copy()
    n = len(cloud)
    if n == 1:
        # no neighbor exists, nothing can move
        return cloud, RunReport(0, 0.0, seed, np.empty(0), stop_reason="tol")
    params = _lj_params(n, params, 1.0)
    schedule = schedule or Schedule(alpha=0.5, beta=0.01)
    metric = boundary.metric

    def move(t, cloud, pairs):
        return boundary.apply(lj_step(cloud, pairs, dt_exponential(t, schedule), params, metric, rng))

    return _relax(_Loop(boundary.apply(cloud), metric, params.k), move, range(max_iter), tol, seed)


_GATE_COS = math.cos(math.pi / 4.0)


def redistribute_on_mesh(
    cloud0,
    mesh: TriangleMesh,
    params: LjParams | None = None,
    schedule: Schedule | None = None,
    tol: float = 1e-5,
    max_iter: int = 2000,
    seed: int = 0,
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
    keeps no noise trace (it is None).  Defaults as in bluenoise_2d, but with
    sigma = 5 * sigma_prime(n).  Returns (cloud, RunReport).
    """
    x0 = as_cloud(cloud0, (3,), "initial cloud points")
    n = len(x0)
    if n < 2:
        raise ValueError("redistribute_on_mesh needs at least 2 points")
    if np.abs(mesh.vertices).max() > 1.0 + 1e-9:
        raise ValueError("mesh must be normalized to [-1, 1]^3 (see normalize_mesh)")
    _check_stop(tol, max_iter)
    params = _lj_params(n, params, 5.0)
    schedule = schedule or Schedule(alpha=0.5, beta=0.01)

    rng = np.random.default_rng(seed)
    cache = FaceCache(MeshProjector(mesh), x0)
    cloud, faces, _ = cache.entry

    gated_out = 0

    def move(t, cloud, pairs):
        nonlocal gated_out
        normals = mesh.face_normals.take(faces, axis=0)
        gate = (normals * normals.take(pairs[:, 0], axis=0)).sum(axis=1) > _GATE_COS
        stepped = lj_step(cloud, pairs, dt_exponential(t, schedule), params, EUCLIDEAN, rng)
        new = np.where(gate[:, None], stepped, cloud)
        rows = np.flatnonzero(gate)
        gated_out += n - rows.size
        if rows.size:
            new[rows], faces[rows], _ = cache.project(rows, new.take(rows, axis=0))
        return new

    cloud, report = _relax(_Loop(cloud, EUCLIDEAN, params.k), move, range(max_iter), tol, seed)
    return cloud, replace(report, face_requeries=cache.requeries, face_tests=cache.face_tests,
                          gated_out=gated_out)


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


class SurfaceRefiner:
    """Toy iterative refiner: contract toward a surface, add decaying noise.

    step t maps x to x + pull*(closest(x) - x) + noise0*decay^t*g with g drawn
    from a seeded Gaussian stream, so two refiners built with the same seed
    produce identical trajectories given identical inputs.
    """

    def __init__(self, surface=None, pull: float = 0.2, noise0: float = 0.05,
                 decay: float = 0.9, seed: int = 0):
        self.surface = surface if surface is not None else UnitSphere()
        self.pull = as_number(pull, "pull", 0, 1, above=True)
        self.noise0 = as_number(noise0, "noise0", 0)
        self.decay = as_number(decay, "decay", 0, 1, above=True)
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
    trace: bool = True,
):
    """Run a refiner for window.total steps, embedding pair dynamics inside the window.

    Each step t first applies the refiner to the (n, 3) cloud.  For
    window.start <= t <= window.stop one pair-dynamics step follows, its step
    size set by dt_adaptive(i, d) where i = t - window.start + 1 counts steps
    inside the window and d is the largest per-point displacement the refiner
    just produced.  Steps after the window run the refiner alone.  params
    defaults to epsilon=2, sigma = 5 * sigma_prime(n).  With trace=False no
    per-step score is computed and the report's traces are None; the cloud is
    the same either way.  A run whose coordinates become non-finite or too
    large to square raises ValueError at that step.  Returns (cloud, RunReport).
    """
    loop, params = _embed_entry(refiner, cloud0, params, trace)
    return _embed_steps(refiner, loop, window, params, alpha, beta, seed, window.total)


def _embed_entry(refiner, cloud0, params, trace):
    """embed_refine's checks and defaults; returns the loop on entry and the LjParams."""
    cloud = as_cloud(cloud0, (3,), "initial cloud points").copy()
    n = len(cloud)
    if n < 2:
        raise ValueError("embed_refine needs at least 2 points")
    if not np.abs(cloud).max() < _MAX_COORD:
        raise ValueError(f"initial cloud coordinates must be below {_MAX_COORD:.3g} in magnitude")
    params = _lj_params(n, params, 5.0)
    surface = getattr(refiner, "surface", None)
    noise = None if not trace or surface is None else lambda c: float(surface.distance(c).mean())
    # the steps find their own pairs, so the loop's table only feeds the trace: k = 1
    return _Loop(cloud, EUCLIDEAN, 1 if trace else None, noise), params


def _embed_steps(refiner, loop, window, params, alpha, beta, seed, last):
    """embed_refine's steps after loop.iterations, up to `last`.  No pair step and no
    draw from `rng` comes before window.start: until then this is the refiner-only run."""
    schedule = Schedule(alpha=alpha, beta=beta)
    rng = np.random.default_rng(seed)

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

    return _relax(loop, move, range(loop.iterations + 1, last + 1), 0.0, seed)


_INITS = ("gauss", "noisy_surface")


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
        if self.init not in _INITS:
            raise ValueError(f"init must be {' or '.join(map(repr, _INITS))}, got {self.init!r}")
        Schedule(self.alpha, self.beta)     # the step-size rule checks alpha and beta
        as_number(self.init_jitter, "init_jitter")
        as_number(self.sigma_multiplier, "sigma_multiplier", 0, above=True)

    def window(self) -> RefineWindow:
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
    return UnitSphere().closest(g) + config.init_jitter * rng.standard_normal((config.n, 3))


def _refiner(config: EmbedConfig, surface) -> SurfaceRefiner:
    return SurfaceRefiner(surface, pull=config.pull, noise0=config.noise0,
                          decay=config.noise_decay, seed=config.seed)


def run_embedded(config: EmbedConfig, embedded: bool = True, surface=None, trace: bool = True):
    """One harness run; embedded=False runs the refiner alone on the same streams.

    trace is passed to embed_refine: False skips the per-step scores.
    """
    window = config.window() if embedded else RefineWindow.disabled(config.total)
    return embed_refine(_refiner(config, surface), _init_cloud(config), window,
                        params=config.lj_params(), alpha=config.alpha, beta=config.beta,
                        seed=config.seed, trace=trace)


def _final_scores(cloud, surface) -> Scores:
    return Scores(distance=distance_score(cloud),
                  noise=float(surface.distance(cloud).mean()))


class _Branches:
    """A config's refiner-only run, saving copies of its loop and refiner (not the surface)
    before each of `starts` and at its end.  compare(config), for a config differing only
    in window, alpha and beta, returns the increment report and its embedded run, which
    goes on from the state saved at its window start (see _embed_steps), or at the end."""

    def __init__(self, config: EmbedConfig, starts, surface, trace: bool):
        refiner = _refiner(config, surface)
        self.surface = surface = refiner.surface
        loop, params = _embed_entry(refiner, _init_cloud(config), config.lj_params(), trace)
        self.saved = {}
        for start in (*sorted(starts), config.total + 1):
            self.base = _embed_steps(refiner, loop, RefineWindow.disabled(config.total),
                                     params, config.alpha, config.beta, config.seed, start - 1)
            self.saved[start] = copy.deepcopy((loop, refiner), {id(surface): surface})
        self.scores = _final_scores(self.base[0], surface)

    def compare(self, config: EmbedConfig):
        window = config.window()
        loop, refiner = copy.deepcopy(self.saved[window.start or config.total + 1],
                                      {id(self.surface): self.surface})
        ljl = _embed_steps(refiner, loop, window, config.lj_params(), config.alpha,
                           config.beta, config.seed, config.total)
        return increment_report(self.scores, _final_scores(ljl[0], self.surface)), ljl


def embed_compare(config: EmbedConfig, surface=None, trace: bool = True):
    """Paired baseline/embedded runs sharing seed streams.

    Returns (report, base_run, ljl_run) where report is the increment
    ScoreReport, scored on the final clouds, and each run is its (cloud,
    RunReport) pair; trace=False leaves the runs' traces None.
    """
    runs = _Branches(config, {config.window().start} - {None}, surface, trace)
    report, ljl = runs.compare(config)
    return report, runs.base, ljl


_SWEEP_AXES = ("ss", "alpha", "beta", "alpha_denoise")


def _sweep_config(axis: str, value: float, seed: int, base: EmbedConfig) -> EmbedConfig:
    if axis == "ss":
        ss = round(as_number(value, "ss"))
        stop = base.stop if base.stop is not None else base.total
        if ss > stop:
            return replace(base, start=None, stop=None, seed=seed)
        return replace(base, start=max(1, ss), stop=stop, seed=seed)
    if axis in ("alpha", "beta"):
        return replace(base, **{axis: value}, seed=seed)
    if axis == "alpha_denoise":
        return EmbedConfig.denoising(alpha=value, seed=seed)
    raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")


_SWEEP_COLUMNS = ("value", "seed", "distance_score", "noise_score",
                  "distance_increment", "noise_increment", "ratio")


def run_sweep(axis: str, values, seeds, base: EmbedConfig | None = None) -> list[dict]:
    """Paired embed runs for each (value, seed), value-major; one result row per run.
    Every config is checked first; a run that diverges fails at its own row."""
    values = list(values)
    seeds = [as_number(seed, "seed", 0, integer=True) for seed in seeds]
    if not values:
        raise ValueError("sweep needs at least one value")
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    if base is None:
        base = EmbedConfig()
    configs = [(_sweep_config(axis, value, seed, base), float(value))
               for value in values for seed in seeds]
    starts = {config.window().start for config, _ in configs} - {None}
    by_seed, rows = {}, []
    for config, value in configs:
        if config.seed not in by_seed:
            by_seed[config.seed] = _Branches(config, starts, UnitSphere(), trace=False)
        report, _ = by_seed[config.seed].compare(config)
        row = {"value": value, "seed": config.seed, "ratio": float("nan"),    # ratio None: NaN
               **{k.removesuffix("_ljl"): v for k, v in asdict(report).items() if v is not None}}
        rows.append({col: row[col] for col in _SWEEP_COLUMNS})
    return rows


def write_sweep_csv(rows, path):
    # an object array keeps a seed beyond 2**53 exact; the reshape gives no rows their width
    table = np.array([[row[col] for col in _SWEEP_COLUMNS] for row in rows], dtype=object)
    np.savetxt(path, table.reshape(-1, len(_SWEEP_COLUMNS)), delimiter=",",
               fmt=["%d" if col == "seed" else "%.9g" for col in _SWEEP_COLUMNS],
               header=",".join(_SWEEP_COLUMNS), comments="")
    return path
