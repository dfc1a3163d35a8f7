"""The README library example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    # the example's own comment: no correlated pleiotropy, so no tsre bias
    assert lines[3] == "0.0"
