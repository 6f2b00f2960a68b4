"""Cold start: each command, run in a fresh interpreter, imports only the
layers it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borbit

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = (
    "import sys\n"
    "from borbit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
COMMANDS = {
    "enumerate": ["--n", "5", "--k", "2", "enumerate"],
    "order": ["--n", "10", "--k", "3", "order", "sigma=id", "sigma=s3"],
    "hasse": ["--n", "5", "--k", "1", "hasse"],
    "hasse-json": ["--n", "5", "--k", "1", "--format", "json", "hasse"],
    "tangent": ["--n", "6", "--k", "3", "tangent", "sigma=2,4,6,1,3,5"],
    "smooth": ["--n", "5", "--k", "2", "smooth"],
    "smooth-json": ["--n", "5", "--k", "2", "--format", "json", "smooth"],
    "springer": ["--n", "5", "--k", "2", "springer"],
    "verify": ["--n", "4", "--k", "2", "verify"],
    "blueprint": ["--n", "4", "--k", "2", "blueprint", "sigma=2,4,1,3", "s1.s3.s2"],
    "blueprint-json": [
        "--n", "4", "--k", "2", "--format", "json", "blueprint", "sigma=2,4,1,3", "s1.s3.s2",
    ],
}


def modules_after(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``, which
    prints them to stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.fixture(scope="module")
def loaded() -> dict[str, set[str]]:
    return {name: modules_after(PROBE, *argv) for name, argv in COMMANDS.items()}


def borbit_modules(mods: set[str]) -> set[str]:
    return {name for name in mods if name == "borbit" or name.startswith("borbit.")}


def test_order_loads_no_tangent_geometry_or_matrices(loaded):
    """The one-pair closure order lives in ``atlas``: ``order`` loads no
    sweep layer, ``poset`` included."""
    assert borbit_modules(loaded["order"]) == {
        "borbit", "borbit.cli", "borbit.atlas", "borbit.perms",
    }


def test_tangent_loads_no_poset(loaded):
    """``tangent`` walks ``atlas.descend`` and names ``poset.CoverTable``
    in annotations only."""
    assert borbit_modules(loaded["tangent"]) == {
        "borbit", "borbit.cli", "borbit.atlas", "borbit.perms", "borbit.tangent",
    }
    assert {name for name, mods in loaded.items() if "borbit.poset" in mods} == {
        "hasse", "hasse-json", "smooth", "smooth-json", "verify",
    }


def test_only_hasse_loads_the_diagram_writers(loaded):
    assert {name for name, mods in loaded.items() if "borbit.diagram" in mods} == {
        "hasse",
        "hasse-json",
    }


def compiled_lines(mods: set[str]) -> int:
    """The ``borbit`` source lines of the modules in ``mods``."""
    files = [
        SRC / "borbit" / ("__init__.py" if name == "borbit" else name.split(".")[1] + ".py")
        for name in borbit_modules(mods)
    ]
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in files)


#: ``borbit`` source lines that ``order`` compiles: 897 since the one-pair
#: closure order moved from ``poset`` to ``atlas``, so that ``order`` loads no
#: ``poset``, ``perms`` lost ``all_perms`` and ``cli`` took on ``verify``'s
#: budget, 1070 since
#: ``cli`` holds the sweep limits, ``--cap`` and the closed-form label
#: budget, and the library lost its ``cap`` parameters, 1064 since ``perms``
#: lost ``bruhat_leq_oracle`` and ``borbit`` its exports of it and of
#: ``OrientedLinkPattern``, 1072 since subword intervals step by position
#: swaps, 1074 since ``atlas`` no longer reads labels back from JSON fields,
#: 1082 since ``borbit`` no longer exports ``ratmat`` and
#: ``enumerate_labels`` lost its cache, 1084 since ``poset`` holds the cover
#: table and ``diagram`` the Hasse writers, 1086 after ``cli`` lost the
#: ``--samples`` option, 1089 after ``cli`` took over argv parsing from
#: ``argparse`` (1035 before), and 1296 while ``atlas`` held the Springer
#: combinatorics and ``cli`` every command's text.
ORDER_LINE_BUDGET = 897

#: ``borbit`` source lines that ``tangent`` compiles: 1342 since it walks
#: ``atlas.descend`` and loads no ``poset`` (1507 before).
TANGENT_LINE_BUDGET = 1342


def test_order_compiles_within_its_line_budget(loaded):
    lines = compiled_lines(loaded["order"])
    assert lines <= ORDER_LINE_BUDGET, lines


def test_tangent_compiles_within_its_line_budget(loaded):
    lines = compiled_lines(loaded["tangent"])
    assert lines <= TANGENT_LINE_BUDGET, lines


def test_json_loads_only_for_json_output(loaded):
    """``hasse`` writes its JSON from line templates; ``smooth`` and
    ``blueprint`` encode their documents with ``json``, through ``cli``."""
    assert {name for name, mods in loaded.items() if "json" in mods} == {
        "smooth-json",
        "blueprint-json",
    }


def test_springer_layer_loads_for_its_commands_only(loaded):
    assert {name for name, mods in loaded.items() if "borbit.springer" in mods} == {
        "enumerate",
        "springer",
        "verify",
    }
    assert "borbit.tangent" not in loaded["enumerate"]


def test_only_verify_and_blueprint_load_geometry(loaded):
    """``geometry`` checks its curves over Z[t] in integers, and ``verify``
    squares and ranks the representative matrices as sparse integer dicts,
    so neither loads ``ratmat``."""
    assert {name for name, mods in loaded.items() if "borbit.geometry" in mods} == {
        "verify",
        "blueprint",
        "blueprint-json",
    }
    assert {name for name, mods in loaded.items() if "borbit.checks" in mods} == {"verify"}
    assert {name for name, mods in loaded.items() if "borbit.ratmat" in mods} == set()


def test_no_command_loads_dataclasses(loaded):
    startup = modules_after("import sys; print(*sorted(sys.modules), file=sys.stderr)")
    assert {name for name, mods in loaded.items() if "dataclasses" in mods - startup} == set()


def test_no_command_loads_an_argument_parser(loaded):
    """``cli`` reads its fixed argv grammar itself: ``argparse`` would bring
    ``gettext``, and its first message lookup ``locale``."""
    parsers = {"argparse", "gettext", "locale"}
    cli = modules_after("import sys, borbit.cli; print(*sorted(sys.modules), file=sys.stderr)")
    assert not parsers & cli
    assert {name for name, mods in loaded.items() if parsers & mods} == set()


def test_import_borbit_loads_no_submodule():
    mods = modules_after("import sys, borbit; print(*sorted(sys.modules), file=sys.stderr)")
    assert {name for name in mods if name.startswith("borbit.")} == set()


def test_cli_order_and_enumerate_load_no_fractions(loaded):
    """Nor does any other command: every one computes in integers."""
    mods = modules_after("import sys, borbit.cli; print(*sorted(sys.modules), file=sys.stderr)")
    rationals = {"fractions", "decimal", "numbers"}
    assert not rationals & mods
    assert {name for name, mods in loaded.items() if rationals & mods} == set()


RATIONALS = {"borbit.ratmat", "fractions", "decimal", "numbers"}


def test_tangent_layer_commands_load_no_rationals(loaded):
    for name in ("hasse", "smooth", "tangent", "springer", "verify"):
        assert "borbit.tangent" in loaded[name]
        assert not RATIONALS & loaded[name], name
    assert {name for name, mods in loaded.items() if RATIONALS & mods} == set()


def test_import_tangent_loads_no_rationals():
    mods = modules_after("import sys, borbit.tangent; print(*sorted(sys.modules), file=sys.stderr)")
    assert "borbit.tangent" in mods
    assert not {"borbit.ratmat", "fractions"} & mods


def test_import_ratmat_loads_no_other_layer():
    """``ratmat`` is an empty placeholder that perfbench's tracer imports:
    it loads no other ``borbit`` module."""
    mods = modules_after("import sys, borbit.ratmat; print(*sorted(sys.modules), file=sys.stderr)")
    assert {name for name in mods if name.startswith("borbit.")} == {"borbit.ratmat"}


@pytest.mark.parametrize("name", borbit.__all__)
def test_every_export_is_its_module_attribute(name):
    value = getattr(borbit, name)
    if name in borbit._EXPORTS:
        assert value is importlib.import_module(f"borbit.{name}")
    else:
        module = importlib.import_module(f"borbit.{borbit._MODULE_OF[name]}")
        assert value is getattr(module, name)
