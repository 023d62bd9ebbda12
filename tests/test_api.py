"""The package's public names, the functions the benchmark's tracer wraps, and the
one check every public function applies to an input cloud."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ljlayer
from ljlayer import (
    LjParams,
    MeshProjector,
    RefineWindow,
    SurfaceRefiner,
    TriangleMesh,
    bluenoise_2d,
    build_index,
    distance_score,
    embed_refine,
    icosphere,
    lj_step,
    metrics,
    noise_score,
    periodogram,
    redistribute_on_mesh,
)
from ljlayer.geometry import FaceCache

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
