"""The README's library example runs as written against the package root."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert "test_accuracy" in capsys.readouterr().out
    assert [d for d, _ in namespace["curve"]] == [1, 2, 4, 8]
    assert [row.n_qubits for row in namespace["rows"]] == [2, 3, 4]
