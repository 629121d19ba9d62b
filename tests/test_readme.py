"""The Python examples in README.md run against the package in this checkout,
and the package exports every public name its modules export."""

import importlib
import pkgutil
import re
from pathlib import Path

import limbsys

ROOT = Path(__file__).resolve().parents[1]


def test_python_fences_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    readme = ROOT / "README.md"
    fences = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), flags=re.M | re.S)
    assert fences, "README.md has no ```python fence"
    for source in fences:
        exec(compile(source, str(readme), "exec"), {"__name__": "readme_example"})


def test_export_lists_agree():
    # io is reached through the CLI and its own module, and thresholds is
    # an internal rule that tests import from limbsys.measures.
    exported = limbsys.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        getattr(limbsys, name)
    for info in pkgutil.iter_modules(limbsys.__path__):
        if info.name == "io" or info.name.startswith("_"):
            continue
        module = importlib.import_module(f"limbsys.{info.name}")
        names = set(getattr(module, "__all__", ())) - ({"thresholds"} if info.name == "measures" else set())
        assert names <= set(exported), f"{info.name}: {sorted(names - set(exported))}"
