"""The package's public names, and the functions the benchmark's tracer wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import ljlayer

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_all_names_resolve():
    assert len(set(ljlayer.__all__)) == len(ljlayer.__all__)
    for name in ljlayer.__all__:
        assert hasattr(ljlayer, name), name


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
