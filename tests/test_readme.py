"""The README's Library example runs as written, on the bundled iris files."""

import re
import shutil
from pathlib import Path

import pytest

from featureclock import ClockWarning
from featureclock.cli import demo_paths

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_on_iris(tmp_path, monkeypatch):
    for path, name in zip(demo_paths(), ("X.csv", "Y.csv", "labels.csv")):
        shutil.copy(path, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    with pytest.warns(ClockWarning, match="^edge 'setosa'-'versicolor': no significant features"):
        exec(compile(library_example(), str(README), "exec"), namespace)
    # the example's one build_clock call is the local view's clock for the first group
    assert namespace["one"] == namespace["locals_"][0]
    assert len(namespace["inter"]) == 2
    assert "<svg" in (tmp_path / "clock.svg").read_text(encoding="utf-8")
