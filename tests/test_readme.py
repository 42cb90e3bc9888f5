"""The README's "Library use" example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    dsc, hd_mm, false_non_communicating = capsys.readouterr().out.split()
    assert 0.0 <= float(dsc) <= 1.0 and float(hd_mm) >= 0.0
    assert int(false_non_communicating) >= 0
