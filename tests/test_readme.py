"""The README library example runs against the current API, and every
`tsre.<name>` the README mentions exists."""

import re
from functools import reduce
from pathlib import Path

import tsre

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    # the example's own comment: no correlated pleiotropy, so no tsre bias
    assert lines[3] == "0.0"


def test_every_named_attribute_exists():
    paths = set(re.findall(r"\btsre((?:\.[A-Za-z_]\w*)+)", README.read_text()))
    assert paths
    for path in sorted(paths):
        reduce(getattr, path[1:].split("."), tsre)  # an AttributeError names the missing one
