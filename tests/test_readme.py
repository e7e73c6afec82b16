"""The README library example runs, and the top-level API is what it imports."""

import ast
import re
from pathlib import Path

import cohchaos

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_top_level_exports_resolve():
    for name in cohchaos.__all__:
        assert hasattr(cohchaos, name), name


def test_readme_imports_exactly_the_top_level_api():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(library_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "cohchaos"
        for alias in node.names
    }
    assert imported
    assert imported | {"CohChaosError", "CONVENTIONS_VERSION", "__version__"} == set(cohchaos.__all__)


def test_readme_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    printed = float(capsys.readouterr().out)
    assert 0.0 <= printed <= 1.0
