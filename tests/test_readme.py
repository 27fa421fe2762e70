"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ")[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under ## Library"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out.split()[2] == "dense_squaring"  # r.method of 7,19
