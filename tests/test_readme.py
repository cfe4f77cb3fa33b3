"""The README's Library example runs as written, on the bundled iris files."""

import re
import shutil
from pathlib import Path

import pytest

import featureclock
from featureclock import ClockWarning
from featureclock.cli import demo_paths

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    return README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_example() -> str:
    """The first python block of the README's Library section."""
    return re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)


def test_exports_are_the_names_the_library_section_lists():
    # a kernel name (ols_fit, logistic_fit, ...) exported again would be unlisted
    sentence = re.search(r"The package exports the pipeline[^.]*\.", library_section()).group(0)
    listed = set(re.findall(r"`(\w+)`", sentence))
    assert listed == set(featureclock.__all__) - {"__version__"}
    for name in featureclock.__all__:
        assert getattr(featureclock, name) is not None


def test_library_example_runs_on_iris(tmp_path, monkeypatch):
    for path, name in zip(demo_paths(), ("X.csv", "Y.csv", "labels.csv")):
        shutil.copy(path, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    with pytest.warns(ClockWarning, match="^edge 'setosa'-'versicolor': no significant features"):
        exec(compile(library_example(), str(README), "exec"), namespace)
    # the example's one build_clock call is the local view's clock for the first group
    assert namespace["one"] == namespace["locals_"][0]
    # load_dataset's arrays are read-only already, so a Dataset made from them keeps them
    assert namespace["unlabeled"].X is namespace["dataset"].X
    assert namespace["unlabeled"].labels is None
    assert len(namespace["inter"]) == 2
    assert "<svg" in (tmp_path / "clock.svg").read_text(encoding="utf-8")
