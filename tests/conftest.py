"""Shared test setup.

The CLI tests run ``python -m ljlayer.cli`` in subprocesses whose working
directory is a temporary folder. A relative ``PYTHONPATH`` entry such as
``src`` would resolve against that folder, not against the checkout, and the
children would fail to import ``ljlayer``. So before any test runs, the
directory holding the ``ljlayer`` package this process imported goes first on
``PYTHONPATH``, and every other entry is made absolute. Child processes then
import the same source tree as the test process, whatever their cwd.
"""

import os
from pathlib import Path

import pytest

import ljlayer
from ljlayer.pipelines import UnitSphere


def _absolute_pythonpath():
    entries = [str(Path(ljlayer.__file__).resolve().parents[1])]
    existing = os.environ.get("PYTHONPATH")
    if existing is not None:
        # An empty entry means the cwd, which abspath("") also resolves to.
        entries += [os.path.abspath(entry) for entry in existing.split(os.pathsep)]
    return os.pathsep.join(dict.fromkeys(entries))


os.environ["PYTHONPATH"] = _absolute_pythonpath()


@pytest.fixture
def refiner_steps(monkeypatch):
    """Counts the toy refiner's steps: each one projects the cloud onto the unit sphere once."""
    calls = []
    closest = UnitSphere.closest

    def counted(self, points):
        calls.append(1)
        return closest(self, points)

    monkeypatch.setattr(UnitSphere, "closest", counted)
    return calls
