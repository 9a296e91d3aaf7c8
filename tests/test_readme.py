"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_commented_outputs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, "README.md", "exec"), {})
    commented = [line.rpartition("#")[2].strip()
                 for line in block.splitlines() if line.startswith("print(")]
    assert commented == ["0.8000 0.1600", "0.4733"]
    assert capsys.readouterr().out.splitlines() == commented
