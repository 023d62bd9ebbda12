"""The package's public names, and the functions the benchmark's tracer wraps."""

import importlib
import importlib.util
from pathlib import Path

import ljlayer

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_all_names_resolve():
    assert len(set(ljlayer.__all__)) == len(ljlayer.__all__)
    for name in ljlayer.__all__:
        assert hasattr(ljlayer, name), name


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
