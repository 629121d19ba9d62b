"""The Python examples in README.md run against the package in this checkout."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_fences_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    readme = ROOT / "README.md"
    fences = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), flags=re.M | re.S)
    assert fences, "README.md has no ```python fence"
    for source in fences:
        exec(compile(source, str(readme), "exec"), {"__name__": "readme_example"})
