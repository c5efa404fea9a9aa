import ast
import re
from pathlib import Path

import fbm

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example_imports() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [alias.name for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.module == "fbm"
            for alias in node.names]


def test_package_exports_the_readme_library_example():
    names = _library_example_imports()
    assert names, "no 'from fbm import' in the README library example"
    assert set(names) <= set(fbm.__all__)
    assert all(hasattr(fbm, name) for name in fbm.__all__)
