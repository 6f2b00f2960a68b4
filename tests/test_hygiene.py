"""Source hygiene: every imported name is used in the module importing it,
no library module imports ``dataclasses`` or ``fractions``, no source or
test file imports ``borbit.ratmat``, every library cache is a per-context
table, every library function, class, method and property is read by the
library or named in a short allow-list, every named-tuple field is read
by the library, and no library function takes a size ``cap``."""

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


def test_tangent_imports_nothing_from_poset():
    # ``poset`` reads ``tangent`` for its sweeps, so the one-label layer
    # never reads the sweep layer back, not even for an annotation
    assert "borbit.poset" not in imported_names(ROOT / "src" / "borbit" / "tangent.py")


def test_the_scan_sees_an_import_for_annotations_only(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .poset import CoverTable\n",
        encoding="utf-8",
    )
    assert "borbit.poset" in imported_names(source)


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
    "leq_oracle": "a test oracle, and perfbench's reference for the closure order",
    "contains_pattern": "read by perfbench",
    "weak_edges": "read by perfbench",
    "leq": "the closure-order predicate of the README tour; order asks for its witness",
    "bk_span": "the bracket span of a label, wrapped by perfbench's tracer",
    "RationalMatrix": "placeholder imported by perfbench's tracer; goes with ROADMAP item 10",
}


def own_bindings(stmt: ast.stmt) -> set[str]:
    """The names that a top-level function binds itself: the parameters
    and every stored name, in it or in a function nested in it."""
    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    nodes = list(ast.walk(stmt))
    return {node.arg for node in nodes if isinstance(node, ast.arg)} | {
        node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def loaded_names(node: ast.AST, skip: set[int]) -> set[str]:
    """The names and attributes that ``node`` loads outside the subtrees
    ``skip`` (ids of nodes), less the names it binds itself."""
    loaded = [
        sub for sub in ast.walk(node)
        if isinstance(getattr(sub, "ctx", None), ast.Load) and id(sub) not in skip
    ]
    names = {sub.id for sub in loaded if isinstance(sub, ast.Name)} - own_bindings(node)
    return names | {sub.attr for sub in loaded if isinstance(sub, ast.Attribute)}


def unreferenced_definitions(paths: list[Path]) -> list[str]:
    """Top-level functions and classes of ``paths``, and public methods
    and properties of their classes, that nothing else of ``paths`` reads,
    as a name or an attribute.  A name counts only where it is loaded and
    the enclosing function does not bind it itself, so a same-named local
    or a class field is no reference.  A class's own methods do not
    reference it, and a method's own body does not reference the method.
    The strings of ``_EXPORTS`` do not count, and ``_``-prefixed methods
    (``_make``, which ``_replace`` calls) and dunder hooks such as
    ``__getattr__`` are exempt."""
    definitions, units = [], []  # unit: (its top-level statement, itself, what it reads)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            home = (path.name, stmt.lineno)
            body = stmt.body if isinstance(stmt, ast.ClassDef) else []
            methods = [
                node for node in body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
            ]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("__"):
                    definitions.append((home, stmt.name))
            inside = {id(sub) for method in methods for sub in ast.walk(method)}
            units.append((home, home, loaded_names(stmt, inside)))
            for method in methods:
                units.append((home, (path.name, method.lineno), loaded_names(method, set())))
                definitions.append(((path.name, method.lineno), method.name))
    return [
        f"{name}:{line} {defined}"
        for (name, line), defined in definitions
        if not any(
            defined in names for home, unit, names in units if (name, line) not in (home, unit)
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


def test_the_scan_sees_through_a_shadowing_local_and_a_field(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from typing import NamedTuple\n"
        "def root():\n    pass\n"
        "def minimum(nodes):\n    (root,) = nodes\n    return root\n"
        "def walk(root):\n    return [root for root in root]\n"
        "class Report(NamedTuple):\n    root: int\n"
        "def used():\n    return minimum, walk, Report\n"
        "def main():\n    return used()\n",
        encoding="utf-8",
    )
    assert unreferenced_definitions([source]) == ["sample.py:2 root", "sample.py:13 main"]


def test_the_scan_sees_an_unread_method(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from typing import NamedTuple\n"
        "class Shape(NamedTuple):\n    side: int\n"
        "    def area(self):\n        return self.side * self.side\n"
        "    @property\n    def rows(self):\n        return self.rows\n"
        "    @classmethod\n    def _make(cls, it):\n        return Shape(*it)\n"
        "def main():\n    return Shape(2).area()\n",
        encoding="utf-8",
    )
    assert unreferenced_definitions([source]) == ["sample.py:7 rows", "sample.py:12 main"]


def named_tuple_fields(tree: ast.Module) -> list[tuple[ast.ClassDef, int, str]]:
    """Each field that a top-level named tuple of ``tree`` declares: its
    class, its line and its name."""
    return [
        (stmt, node.lineno, node.target.id)
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in stmt.bases)
        for node in stmt.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def unread_fields(paths: list[Path]) -> list[str]:
    """Fields of the named tuples of ``paths`` that no code of ``paths``
    reads as an attribute outside the tuple's own class.  The scan matches
    names, so a field that shares its name with an attribute read elsewhere
    counts as read: a field ``n`` or ``k`` would pass unread, since
    ``ctx.n`` and ``ctx.k`` are read everywhere, and ``context_copies``
    covers those two."""
    fields, units = [], []  # unit: (its top-level statement, the attributes it reads)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        fields += [
            (stmt, f"{path.name}:{line} {stmt.name}.{field}", field)
            for stmt, line, field in named_tuple_fields(tree)
        ]
        units += [
            (stmt, {
                sub.attr for sub in ast.walk(stmt)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            })
            for stmt in tree.body
        ]
    return [
        hit for home, hit, field in fields
        if not any(field in reads for stmt, reads in units if stmt is not home)
    ]


def test_every_named_tuple_field_is_read():
    # a field that nothing reads is a stored copy of something else, or dead
    assert len(LIBRARY) > 5
    assert unread_fields(LIBRARY) == []


def test_the_scan_sees_an_unread_field(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import typing\nfrom typing import NamedTuple\n"
        "class Shape(NamedTuple):\n    side: int\n    name: str\n"
        "    def label(self):\n        return self.name\n"
        "class Pair(typing.NamedTuple):\n    left: int\n"
        "class Plain:\n    right: int\n"
        "def main(pair):\n    return Shape(2, 'sq').side + pair.left\n",
        encoding="utf-8",
    )
    assert unread_fields([source]) == ["sample.py:5 Shape.name"]


def context_copies(paths: list[Path]) -> list[str]:
    """Fields ``n`` and ``k`` of the named tuples of ``paths``, except those
    of ``atlas._ContextFields``, the context itself."""
    return [
        f"{path.name}:{line} {stmt.name}.{field}"
        for path in paths
        for stmt, line, field in named_tuple_fields(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
        if field in ("n", "k") and (path.name, stmt.name) != ("atlas.py", "_ContextFields")
    ]


def test_no_record_copies_the_context():
    # a record holds its ``ctx``, never a copy of ``ctx.n`` or ``ctx.k``,
    # which ``unread_fields`` would count as read
    assert len(LIBRARY) > 5
    assert context_copies(LIBRARY) == []


def test_the_scan_sees_a_copy_of_the_context(tmp_path):
    atlas = tmp_path / "atlas.py"
    atlas.write_text(
        "from typing import NamedTuple\n"
        "class _ContextFields(NamedTuple):\n    n: int\n    k: int\n",
        encoding="utf-8",
    )
    source = tmp_path / "sample.py"
    source.write_text(
        "import typing\nfrom typing import NamedTuple\n"
        "class Blueprint(NamedTuple):\n    n: int\n    k: int\n    moves: tuple\n"
        "class Pair(typing.NamedTuple):\n    k: int\n"
        "class Plain:\n    n: int\n"
        "class _ContextFields(NamedTuple):\n    n: int\n",
        encoding="utf-8",
    )
    assert context_copies([atlas, source]) == [
        "sample.py:4 Blueprint.n", "sample.py:5 Blueprint.k", "sample.py:8 Pair.k",
        "sample.py:12 _ContextFields.n",
    ]


def cap_parameters(path: Path) -> list[str]:
    """Each function of ``path``, nested ones and methods included, that
    has a parameter named ``cap``, of any kind."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for param in ast.walk(node.args)
        if isinstance(param, ast.arg) and param.arg == "cap"
    ]


def test_no_library_function_takes_a_cap():
    # how large a sweep may run is ``cli``'s policy alone: the library
    # computes whatever context it is given
    assert len(LIBRARY) > 5
    assert [hit for path in LIBRARY for hit in cap_parameters(path)] == []


def test_the_scan_sees_every_cap_parameter(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def table(ctx, cap=8):\n    pass\n"
        "def hasse(ctx, *, cap):\n    pass\n"
        "class Sweep:\n    def rows(self, cap, /):\n        def inner(cap):\n            pass\n"
        "def lower(w, word_cap=10, capped=True):\n    cap = 3\n    return cap\n",
        encoding="utf-8",
    )
    assert cap_parameters(source) == [
        "sample.py:1 table", "sample.py:3 hasse", "sample.py:6 rows", "sample.py:7 inner",
    ]
