"""README's Library example runs as written."""

import re
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(monkeypatch, capsys):
    """The example runs from the repository root, whose relative paths it
    reads, and prints what its comments say. Any warning fails it."""
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
    violations, max_residual_bp, *_ = capsys.readouterr().out.splitlines()
    assert violations == "[4, 24]"
    assert float(max_residual_bp) <= 1e-9
