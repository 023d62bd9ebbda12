"""The package's public names, the functions the benchmark's tracer wraps, and the
one check every public function applies to an input cloud and to a scalar setting."""

import importlib
import importlib.util
import pkgutil
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ljlayer
from ljlayer import (
    EmbedConfig,
    LjParams,
    MeshProjector,
    RefineWindow,
    Schedule,
    SurfaceRefiner,
    TriangleMesh,
    bluenoise_2d,
    build_index,
    distance_score,
    embed_refine,
    icosphere,
    k_nearest_all,
    lj_step,
    metrics,
    noise_score,
    periodogram,
    redistribute_on_mesh,
    run_sweep,
)
from ljlayer.core import dt_adaptive
from ljlayer.geometry import FaceCache
from ljlayer.neighbors import NeighborList
from ljlayer.pipelines import sigma_prime

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_all_names_resolve():
    assert len(set(ljlayer.__all__)) == len(ljlayer.__all__)
    for name in ljlayer.__all__:
        assert hasattr(ljlayer, name), name


def test_every_module_all_resolves_without_duplicates():
    for info in pkgutil.iter_modules(ljlayer.__path__, "ljlayer."):
        module = importlib.import_module(info.name)
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), info.name
        for name in names:
            assert hasattr(module, name), (info.name, name)


def test_readme_lists_exactly_the_public_names():
    section = (ROOT / "README.md").read_text().split("### Public API\n", 1)[1].split("\n#", 1)[0]
    # the list items and their indented continuation lines, not the intro
    items = [ln for ln in section.splitlines() if ln.startswith(("- ", "  "))]
    listed = re.findall(r"`([^`]+)`", "\n".join(items))
    assert sorted(listed) == sorted(ljlayer.__all__)


def test_tracer_spans_resolve():
    # a renamed or deleted layer function must fail here, not in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    for _, module, attr in tracer.SPANS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


MESH = icosphere(0)
PROJECTOR = MeshProjector(MESH)

# every public function that takes a cloud: a call on that cloud, the widths it
# accepts, and the noun its rejection messages name the cloud by
CLOUD_TAKERS = {
    "build_index": (build_index, (2, 3), "cloud points"),
    "lj_step": (lambda x: lj_step(x, np.zeros((len(x), 1)), 0.1, LjParams()), (2, 3),
                "cloud points"),
    "periodogram": (lambda x: periodogram(x, 2), (2,), "cloud points"),
    "distance_score": (distance_score, (2, 3), "cloud points"),
    "MeshProjector.project": (PROJECTOR.project, (3,), "query points"),
    "FaceCache": (lambda x: FaceCache(PROJECTOR, x), (3,), "query points"),
    "noise_score": (lambda x: noise_score(x, MESH), (3,), "query points"),
    "TriangleMesh": (lambda x: TriangleMesh(x, [[0, 1, 2]]), (3,), "vertices"),
    "bluenoise_2d": (bluenoise_2d, (2,), "initial cloud points"),
    "redistribute_on_mesh": (lambda x: redistribute_on_mesh(x, MESH), (3,),
                             "initial cloud points"),
    "embed_refine": (lambda x: embed_refine(SurfaceRefiner(), x, RefineWindow.disabled(2)),
                     (3,), "initial cloud points"),
}


@st.composite
def bad_clouds(draw, dims):
    """A malformed cloud for a function accepting widths dims: a non-finite coordinate
    anywhere, no rows, a wrong width, or 1 or 3 axes."""
    n, d = draw(st.integers(1, 6)), draw(st.sampled_from(dims))
    kind = draw(st.sampled_from(["non-finite", "no rows", "width", "axes"]))
    if kind == "non-finite":
        x = np.random.default_rng(draw(st.integers(0, 99))).random((n, d))
        x.flat[draw(st.integers(0, n * d - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return x
    shape = {"no rows": (0, d),
             "width": (n, draw(st.sampled_from([w for w in range(6) if w not in dims]))),
             "axes": draw(st.sampled_from([(n,), (n, d, 1), (n, d, 2)]))}[kind]
    return np.zeros(shape)


@pytest.mark.parametrize("name", sorted(CLOUD_TAKERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_cloud_argument_is_checked_by_one_rule(name, data):
    call, dims, what = CLOUD_TAKERS[name]
    x = data.draw(bad_clouds(dims))
    if x.ndim == 2 and x.shape[1] in dims and len(x):
        expected = f"{what} contain non-finite coordinates"
    else:
        expected = (f"{what} must have shape (n, {' or '.join(map(str, dims))}) with n >= 1, "
                    f"got {x.shape}")
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        call(x)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.sampled_from([2, 3])),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_as_cloud_hands_a_float64_cloud_back_unchanged(x):
    bits = x.tobytes()
    assert metrics.as_cloud(x) is x and x.tobytes() == bits
    assert "as_cloud" in metrics.__all__


X2 = np.random.default_rng(0).random((5, 2))
SCHEDULE = Schedule(0.5, 0.01)
SWEEP_BASE = EmbedConfig(n=6, total=4, start=2, stop=3)

# every scalar setting: a call that passes value as that setting, and its rule as
# (lo, hi, integer, above); the setting is an int or a numpy integer when integer, and
# its value lies in [lo, hi], or in (lo, hi] when above
SETTINGS = {
    "epsilon": (lambda v: LjParams(epsilon=v), (0, math.inf, False, True)),
    "sigma": (lambda v: LjParams(sigma=v), (0, math.inf, False, True)),
    "k": (lambda v: LjParams(k=v), (1, math.inf, True, False)),
    "alpha": (lambda v: Schedule(v, 0.01), (0, math.inf, False, False)),
    "beta": (lambda v: Schedule(0.5, v), (0, math.inf, False, False)),
    "i": (lambda v: dt_adaptive(v, 0.1, SCHEDULE), (1, math.inf, True, False)),
    "max_disp": (lambda v: dt_adaptive(1, v, SCHEDULE), (0, math.inf, False, False)),
    "dt": (lambda v: lj_step(X2, np.roll(np.arange(5), 1), v, LjParams()),
           (0, math.inf, False, False)),
    "k_nearest_all k": (lambda v: k_nearest_all(build_index(X2), v), (1, 4, True, False)),
    "NeighborList k": (lambda v: NeighborList("euclidean", v), (1, math.inf, True, False)),
    "fmax": (lambda v: periodogram(X2, v), (1, math.inf, True, False)),
    "subdivisions": (icosphere, (0, math.inf, True, False)),
    "total": (lambda v: RefineWindow(v, None, None), (0, math.inf, True, False)),
    "start": (lambda v: RefineWindow(10, v, 10), (1, 10, True, False)),
    "stop": (lambda v: RefineWindow(10, 2, v), (2, 10, True, False)),
    "n": (sigma_prime, (2, math.inf, True, False)),
    "tol": (lambda v: bluenoise_2d(6, tol=v, max_iter=2), (0, math.inf, False, False)),
    "max_iter": (lambda v: bluenoise_2d(6, max_iter=v), (0, math.inf, True, False)),
    "bluenoise_2d k": (lambda v: bluenoise_2d(4, params=LjParams(k=v), max_iter=2),
                       (1, 3, True, False)),
    "bluenoise_2d n": (lambda v: bluenoise_2d(v, max_iter=2), (1, math.inf, True, False)),
    "pull": (lambda v: SurfaceRefiner(pull=v), (0, 1, False, True)),
    "noise0": (lambda v: SurfaceRefiner(noise0=v), (0, math.inf, False, False)),
    "decay": (lambda v: SurfaceRefiner(decay=v), (0, 1, False, True)),
    "init_jitter": (lambda v: EmbedConfig(init_jitter=v), (-math.inf, math.inf, False, False)),
    "sigma_multiplier": (lambda v: EmbedConfig(sigma_multiplier=v), (0, math.inf, False, True)),
    "ss": (lambda v: run_sweep("ss", [v], [0], SWEEP_BASE), (-math.inf, math.inf, False, False)),
    "seed": (lambda v: run_sweep("alpha", [0.0], [v], SWEEP_BASE), (0, math.inf, True, False)),
    "sweep alpha": (lambda v: run_sweep("alpha", [v], [0], SWEEP_BASE),
                    (0, math.inf, False, False)),
    "sweep beta": (lambda v: run_sweep("beta", [v], [0], SWEEP_BASE), (0, math.inf, False, False)),
}

# (value, the number it stands for, or None where no setting may take it)
TOKENS = [(math.nan, None), (math.inf, None), (-math.inf, None), (-1, -1), (0, 0), (0.5, 0.5),
          (2.5, 2.5), (2.0, 2.0), (True, None), (np.bool_(True), None), (np.int64(3), 3),
          (np.float64(0.5), 0.5), (10**400, None), ("3", None), (None, None)]


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@settings(max_examples=len(TOKENS), deadline=None, derandomize=True)
@given(token=st.sampled_from(TOKENS))
def test_every_scalar_setting_is_checked_by_one_rule(setting, token):
    call, (lo, hi, integer, above) = SETTINGS[setting]
    value, number = token
    allowed = (number is not None and (isinstance(value, (int, np.integer)) or not integer)
               and (lo < number if above else lo <= number) and number <= hi)
    name = setting.split()[-1]
    if value is None and name in ("start", "stop"):     # None on one end only
        name = "start and stop"
    if allowed:
        call(value)
    else:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(value)


@pytest.mark.parametrize("name", [["periodic"], {}, None, "toroidal"], ids=repr)
def test_an_unknown_metric_name_is_a_value_error(name):
    # a list or a dict cannot be a dict key, which raised TypeError
    for call in (lambda: distance_score(X2, name), lambda: build_index(X2, name)):
        with pytest.raises(ValueError, match=f"^unknown metric {re.escape(repr(name))}; "
                                             "expected 'euclidean' or 'periodic'$"):
            call()


def test_as_number_returns_a_float_or_an_int():
    assert type(metrics.as_number(np.float64(0.5), "x")) is float
    assert type(metrics.as_number(np.int64(3), "x", integer=True)) is int
    assert type(metrics.as_number(3, "x")) is float
    with pytest.raises(ValueError, match=r"^x must be an integer in \(0, 1\], got 2$"):
        metrics.as_number(2, "x", 0, 1, integer=True, above=True)
    assert "as_number" in metrics.__all__
