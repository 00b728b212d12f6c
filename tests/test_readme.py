"""The README's library quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quick_start"})
    printed = capsys.readouterr().out.split("\n")
    assert printed[0].startswith("periodic ")
