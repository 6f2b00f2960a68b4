"""Source hygiene: every imported name is used in the module importing it,
no library module imports ``dataclasses`` or ``fractions``, no source or
test file imports ``borbit.ratmat``, every library cache is a per-context
table, and every library function and class is called from the library or
named in a short allow-list."""

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


def test_no_library_module_imports_fractions():
    # the curve identities are checked over Z[t] in integers, and every
    # other layer computes in integers too
    assert len(LIBRARY) > 5
    assert [path.name for path in LIBRARY if "fractions" in imported_modules(path)] == []


def test_the_scan_sees_every_absolute_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import os.path, json\nfrom dataclasses import dataclass\nfrom . import atlas\n"
        "def f():\n    from typing import NamedTuple\n",
        encoding="utf-8",
    )
    assert imported_modules(source) == {"os", "json", "dataclasses", "typing"}


def imported_names(path: Path) -> set[str]:
    """The dotted name of each module that ``path`` imports, and of each
    name that it imports from a module; a relative import counts from
    ``borbit``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("borbit" if node.level else "", node.module)))
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return found


def test_no_source_or_test_file_imports_ratmat():
    # ``ratmat`` is an empty placeholder for perfbench's tracer; the tests'
    # dense references live in ``tests/dense.py``
    assert [path.name for path in CHECKED if "borbit.ratmat" in imported_names(path)] == []


def test_the_scan_sees_every_ratmat_import(tmp_path):
    forms = [
        "import borbit.ratmat", "from borbit.ratmat import RationalMatrix",
        "from borbit import ratmat", "from .ratmat import RationalMatrix", "from . import ratmat",
    ]
    for form in forms:
        source = tmp_path / "sample.py"
        source.write_text(f"{form}\nimport borbit.tangent\n", encoding="utf-8")
        assert "borbit.ratmat" in imported_names(source), form
    source.write_text("from borbit import tangent\nx = 'borbit.ratmat'\n", encoding="utf-8")
    assert "borbit.ratmat" not in imported_names(source)


CACHES = {"cache", "lru_cache"}


def caches_off_context(path: Path) -> list[str]:
    """Each use of ``functools.cache`` or ``lru_cache`` in ``path`` other
    than as the decorator of a function whose first parameter is ``ctx``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    per_context = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args
            if params and params[0].arg == "ctx":
                per_context |= {id(getattr(dec, "func", dec)) for dec in node.decorator_list}
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in per_context
        and (
            (isinstance(node, ast.Name) and node.id in CACHES)
            or (
                isinstance(node, ast.Attribute)
                and node.attr in CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            )
        )
    ]


def test_every_library_cache_is_per_context():
    # a cache keyed on anything but the context grows with every query the
    # process asks, and no command asks one query twice
    assert len(LIBRARY) > 5
    assert [hit for path in LIBRARY for hit in caches_off_context(path)] == []


def test_the_scan_sees_a_cache_off_context(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef table(ctx, cap=8):\n    pass\n"
        "@functools.cache\ndef roots(ctx):\n    pass\n"
        "@cache\ndef interval(w, ctx):\n    pass\n"
        "@functools.lru_cache\ndef nothing():\n    pass\n"
        "memo = lru_cache(maxsize=8)(len)\n",
        encoding="utf-8",
    )
    assert caches_off_context(source) == ["sample.py:9", "sample.py:12", "sample.py:15"]


#: Top-level library names that no library code references, each with the
#: reader that keeps it.
UNREFERENCED = {
    "bruhat_leq_oracle": "a test oracle: the Bruhat order from subword enumeration",
    "leq_oracle": "a test oracle, and perfbench's reference for the closure order",
    "contains_pattern": "read by perfbench",
    "weak_edges": "read by perfbench",
    "graph_from_json": "the documented round trip of the JSON that hasse writes",
    "leq": "the closure-order predicate of the README tour; order asks for its witness",
    "bk_span": "the bracket span of a label, wrapped by perfbench's tracer",
    "RationalMatrix": "placeholder imported by perfbench's tracer; goes with ROADMAP item 10",
}


def unreferenced_definitions(paths: list[Path]) -> list[str]:
    """Top-level functions and classes of ``paths`` that no other top-level
    statement of ``paths`` reads, as a name or an attribute.  The strings
    of ``_EXPORTS`` do not count, and dunder hooks such as ``__getattr__``
    are exempt."""
    definitions, statements = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            statements.append((path.name, stmt.lineno, names))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("__"):
                    definitions.append((path.name, stmt.lineno, stmt.name))
    return [
        f"{name}:{line} {defined}"
        for name, line, defined in definitions
        if not any(
            defined in names for other, at, names in statements if (other, at) != (name, line)
        )
    ]


def test_every_library_definition_is_referenced():
    # dead code is found when it is written, not at the next clean-up; the
    # allow-list names no definition that the library does reference
    assert len(LIBRARY) > 5
    found = unreferenced_definitions(LIBRARY)
    assert sorted(hit.split()[1] for hit in found) == sorted(UNREFERENCED), found


def test_the_scan_sees_an_unreferenced_function(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "_EXPORTS = {'sample': ('used', 'dead', 'Shape')}\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return Shape\n"
        "class Shape:\n    pass\n"
        "def dead():\n    return dead()\n"
        "def __getattr__(name):\n    pass\n"
        "def orphan(x):\n    return x.used\n",
        encoding="utf-8",
    )
    assert unreferenced_definitions([source]) == ["sample.py:8 dead", "sample.py:12 orphan"]
