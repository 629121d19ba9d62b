"""The Python examples in README.md run against the package in this checkout,
the package exports every public name its modules export, and its sources
keep to the oldest Python the README supports."""

import ast
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
    # Every name a module exports exists there.  The package re-exports them
    # all except io's, which are reached through the CLI and their own
    # module.
    exported = limbsys.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        getattr(limbsys, name)
    for info in pkgutil.iter_modules(limbsys.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"limbsys.{info.name}")
        names = set(getattr(module, "__all__", ()))
        for name in names:
            getattr(module, name)
        if info.name == "io":
            continue
        assert names <= set(exported), f"{info.name}: {sorted(names - set(exported))}"


def test_sources_parse_as_python_3_10():
    # The README requires Python 3.10+, so no module may use later syntax,
    # such as except* or type parameter lists.
    sources = sorted((ROOT / "src" / "limbsys").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
