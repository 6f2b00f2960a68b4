"""Source hygiene: every imported name is used in the module importing it,
and no library module imports ``dataclasses``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "borbit").glob("*.py"))
CHECKED = LIBRARY + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """Names bound by ``import`` statements of ``path`` that no other node
    of the module reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        node.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_unused_imports():
    assert len(CHECKED) > 10
    found = [
        hit
        for path in CHECKED
        for hit in unused_imports(path)
    ]
    assert found == []


def test_the_scan_sees_an_unused_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os\nimport json\nfrom math import gcd, lcm\n"
        "print(json.dumps(gcd(4, 6)))\n",
        encoding="utf-8",
    )
    assert unused_imports(source) == ["sample.py:2 os", "sample.py:4 lcm"]


def test_no_library_module_imports_dataclasses():
    # the value types are named tuples: importing dataclasses and building
    # its classes costs every command tens of milliseconds at start-up
    assert len(LIBRARY) > 5
    assert [path.name for path in LIBRARY if "dataclasses" in imported_modules(path)] == []


def test_the_scan_sees_every_absolute_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import os.path, json\nfrom dataclasses import dataclass\nfrom . import atlas\n"
        "def f():\n    from typing import NamedTuple\n",
        encoding="utf-8",
    )
    assert imported_modules(source) == {"os", "json", "dataclasses", "typing"}
