"""Point-cloud distribution normalization via damped Lennard-Jones pair dynamics."""

import os as _os

# LJL_THREADS caps BLAS/OpenMP parallelism, which must be set before numpy
# loads, and k-d tree query threads.  It is read once, here; a value that is
# not a positive integer is kept as THREADS_ERROR and forwarded nowhere.
_threads = _os.environ.get("LJL_THREADS", "")
THREADS_CAP = THREADS_ERROR = None
if _threads.strip().isdecimal() and int(_threads) >= 1:
    THREADS_CAP = int(_threads)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, str(THREADS_CAP))
elif _threads:
    THREADS_ERROR = f"LJL_THREADS must be a positive integer, got {_threads!r}"
del _os, _threads

from .analysis import distance_score, periodogram, radial_stats
from .core import LjParams, Schedule, lj_step
from .geometry import MeshProjector, TriangleMesh, icosphere, load_obj, noise_score, normalize_mesh
from .metrics import EUCLIDEAN, PERIODIC_UNIT, Metric
from .neighbors import build_index, k_nearest_all, nearest_all
from .pipelines import (
    Boundary,
    EmbedConfig,
    RefineWindow,
    RunReport,
    SurfaceRefiner,
    bluenoise_2d,
    embed_compare,
    embed_refine,
    redistribute_on_mesh,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Boundary",
    "EUCLIDEAN",
    "EmbedConfig",
    "LjParams",
    "MeshProjector",
    "Metric",
    "PERIODIC_UNIT",
    "RefineWindow",
    "RunReport",
    "Schedule",
    "SurfaceRefiner",
    "TriangleMesh",
    "bluenoise_2d",
    "build_index",
    "distance_score",
    "embed_compare",
    "embed_refine",
    "icosphere",
    "k_nearest_all",
    "lj_step",
    "load_obj",
    "nearest_all",
    "noise_score",
    "normalize_mesh",
    "periodogram",
    "radial_stats",
    "redistribute_on_mesh",
    "run_sweep",
]
