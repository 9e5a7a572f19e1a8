"""The Python examples of README.md run as printed.

Each ```python block is dedented and run on its own in a fresh namespace,
with a temporary working directory, so an example that writes files
leaves nothing behind.
"""

import re
import textwrap
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^[ \t]*```python\n(.*?)^[ \t]*```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(textwrap.dedent(source), str(README), "exec"), {"__name__": "readme"})
