import ast
import re
from pathlib import Path

import fbm

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_package_exports_the_readme_library_example():
    names = [alias.name for node in ast.walk(ast.parse(_library_example()))
             if isinstance(node, ast.ImportFrom) and node.module == "fbm"
             for alias in node.names]
    assert names, "no 'from fbm import' in the README library example"
    assert set(names) <= set(fbm.__all__)
    assert all(hasattr(fbm, name) for name in fbm.__all__)


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), "<README library example>", "exec"), {})
    printed = [float(x) for x in capsys.readouterr().out.split()]
    assert len(printed) == 2 and all(0.0 < x < 1.0 for x in printed)


def test_plane_wave_resolves_where_it_did():
    # PlaneWave lives in assembly, beside its data; fields re-exports it
    from fbm import assembly, fields
    assert fbm.PlaneWave is fields.PlaneWave is assembly.PlaneWave
