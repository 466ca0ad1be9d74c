"""README's minimal library example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_first_python_block_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README}:python", "exec"), {})
    assert capsys.readouterr().out.strip()
