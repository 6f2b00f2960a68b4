"""Command-line interface: output formats, exit codes, determinism."""

import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from borbit.cli import (
    COMMANDS,
    EXIT_BAD_INPUT,
    EXIT_CAP,
    EXIT_OK,
    OPTIONS,
    USAGE,
    main,
    parse_label_arg,
)
from borbit import atlas, poset, springer, tangent
from borbit.atlas import Context, OrbitLabel, enumerate_labels, format_label, label
from borbit.perms import identity, parse_perm


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_label_arg():
    ctx = Context(4, 2)
    assert parse_label_arg(ctx, "sigma=2,4,1,3 alpha=id") == label(
        ctx, (2, 4, 1, 3), identity(4)
    )
    assert parse_label_arg(ctx, "sigma=s1.s3.s2 alpha=s1") == label(
        ctx, (2, 4, 1, 3), (2, 1, 3, 4)
    )
    assert parse_label_arg(ctx, "sigma=id") == label(ctx, identity(4), identity(4))
    with pytest.raises(ValueError):
        parse_label_arg(ctx, "alpha=id")
    with pytest.raises(ValueError):
        parse_label_arg(ctx, "sigma=2,4,1,3 beta=id")
    with pytest.raises(ValueError):
        parse_label_arg(ctx, "sigma")
    with pytest.raises(ValueError, match="repeated label key 'sigma'"):
        parse_label_arg(ctx, "sigma=id sigma=2,4,1,3")
    with pytest.raises(ValueError, match="repeated label key 'alpha'"):
        parse_label_arg(ctx, "sigma=id alpha=id alpha=s1")


def test_enumerate_table(capsys):
    code, out, err = run(capsys, "--n", "4", "--k", "2", "enumerate")
    assert code == EXIT_OK
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "# 12 labels for n=4 k=2"
    assert len(lines) == 13
    assert any("sigma=2,4,1,3" in line and "dim=6" in line for line in lines)


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "--n", "4", "--k", "2", "--format", "json", "enumerate")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["n"] == 4 and data["k"] == 2
    assert len(data["labels"]) == 12
    by_sigma = {
        (row["sigma"], row["alpha"]): row for row in data["labels"]
    }
    row = by_sigma[("1,2,3,4", "1,2,3,4")]
    assert row["dim"] == 3
    assert row["upper"] is True
    assert row["tableau"] == [[1, 2], [3, 4]]


def test_enumerate_is_deterministic(capsys):
    _, first, _ = run(capsys, "--n", "5", "--k", "2", "enumerate")
    _, second, _ = run(capsys, "--n", "5", "--k", "2", "enumerate")
    assert first == second


def test_enumerate_table_and_json_render_the_same_rows(capsys):
    _, table, _ = run(capsys, "--n", "5", "--k", "2", "enumerate")
    _, text, _ = run(capsys, "--n", "5", "--k", "2", "--format", "json", "enumerate")
    lines = table.splitlines()[1:]
    rows = json.loads(text)["labels"]
    assert len(lines) == len(rows) == 60
    for line, row in zip(lines, rows):
        words = dict(word.split("=", 1) for word in line.split("  "))
        assert words["sigma"] == row["sigma"] and words["alpha"] == row["alpha"]
        assert int(words["dim"]) == row["dim"]
        assert words["upper"] == ("y" if row["upper"] else "n")


def test_order_command(capsys):
    code, out, _ = run(
        capsys, "--n", "4", "--k", "2", "order", "sigma=id", "sigma=3,4,1,2"
    )
    assert code == EXIT_OK
    assert out.startswith("true  witness=")
    code, out, _ = run(
        capsys, "--n", "4", "--k", "2", "order", "sigma=3,4,1,2", "sigma=id"
    )
    assert code == EXIT_OK
    assert out == "false\n"


def test_order_command_at_n16_answers_at_once(capsys):
    # the full coset has 2! * 12! members, but the closure test walks one
    # chain of left descents of the target, so both queries answer at once
    start = time.perf_counter()
    code, out, _ = run(capsys, "--n", "16", "--k", "2", "order", "sigma=id", "sigma=s2")
    assert code == EXIT_OK
    assert out == "true  witness=" + ",".join(map(str, range(1, 17))) + "\n"
    code, out, _ = run(capsys, "--n", "16", "--k", "2", "order", "sigma=s2", "sigma=id")
    assert code == EXIT_OK
    assert out == "false\n"
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "n, k, a, b, expected",
    [
        (24, 10, "sigma=s10", "sigma=id", "false\n"),
        (64, 20, "sigma=s20", "sigma=id", "false\n"),
        (64, 32, "sigma=id", "sigma=id", "true  witness=" + ",".join(map(str, range(1, 65))) + "\n"),
    ],
    ids=["24-10-false", "64-20-false", "64-32-identity"],
)
def test_order_command_answers_at_large_k(capsys, n, k, a, b, expected):
    # no coset scan, so k! members cost nothing and nothing gives up
    start = time.perf_counter()
    code, out, err = run(capsys, "--n", str(n), "--k", str(k), "order", a, b)
    assert (code, out, err) == (EXIT_OK, expected, "")
    assert time.perf_counter() - start < 2.0


def test_tangent_command_at_32_10(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "--n", "32", "--k", "10", "tangent", "sigma=s10")
    assert code == EXIT_OK
    assert out.startswith("# tangent data for ")
    assert time.perf_counter() - start < 5.0


def test_hasse_dot_output(capsys):
    code, out, _ = run(capsys, "--n", "4", "--k", "2", "hasse")
    assert code == EXIT_OK
    assert out.startswith("digraph closure_order {")
    assert "rankdir=BT" in out
    assert "style=dashed" in out
    assert out.count("color=red") == 3


def test_hasse_json_round_trips(capsys):
    code, out, _ = run(capsys, "--n", "4", "--k", "2", "--format", "json", "hasse")
    assert code == EXIT_OK
    data = json.loads(out)
    assert (data["n"], data["k"]) == (4, 2)
    assert len(data["nodes"]) == 12
    marked = {(node["sigma"], node["alpha"]) for node in data["nodes"] if node["singular"]}
    assert marked == {("2,4,1,3", "1,2,3,4"), ("2,4,1,3", "2,1,3,4"), ("3,4,1,2", "1,2,3,4")}


def test_hasse_json_loads_as_the_graph_and_its_verdicts(capsys):
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            ctx = Context(n, k)
            code, out, _ = run(capsys, "--n", str(n), "--k", str(k), "--format", "json", "hasse")
            assert code == EXIT_OK
            data = json.loads(out)
            g = poset.hasse(ctx)
            assert (data["n"], data["k"]) == (n, k)
            assert [node["id"] for node in data["nodes"]] == list(range(len(g.labels)))
            assert [
                OrbitLabel(parse_perm(node["sigma"]), parse_perm(node["alpha"]))
                for node in data["nodes"]
            ] == list(g.labels)
            assert [node["dim"] for node in data["nodes"]] == list(g.dims)
            assert [node["singular"] for node in data["nodes"]] == [
                tangent.verdict(ctx, lbl).status == "singular" for lbl in g.labels
            ]
            assert [(i, j) for i, j, _ in data["covers"]] == list(g.covers)
            assert {(i, j) for i, j, attrs in data["covers"] if attrs["alpha_descent"]} == set(
                g.alpha_descents
            )
            assert [tuple(edge) for edge in data["weak"]] == list(g.weak)


def test_every_written_label_parses_back():
    # ``format_label`` writes what ``parse_label_arg``, the one label reader, reads
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            ctx = Context(n, k)
            for lbl in enumerate_labels(ctx):
                assert parse_label_arg(ctx, format_label(lbl)) == lbl


def test_tangent_command(capsys):
    code, out, _ = run(
        capsys, "--n", "4", "--k", "2", "tangent", "sigma=s1.s3.s2 alpha=id"
    )
    assert code == EXIT_OK
    assert "|t_k| = 3 of 5 roots" in out
    assert "tangent lower bound = 6" in out
    assert "dimension = 6" in out
    assert "bracket-closure span = 7" in out


def test_tangent_command_62_table(capsys):
    code, out, _ = run(
        capsys, "--n", "6", "--k", "2", "tangent", "sigma=s1.s3.s2.s5.s4 alpha=id"
    )
    assert code == EXIT_OK
    assert "|t_k| = 9 of 13 roots" in out
    assert "tangent dimension (upper label) = 12" in out
    assert "(1,5)" in out and "phi_n=no" in out
    assert "witness=2,3,1,4,6,5" in out


def test_smooth_command(capsys):
    code, out, _ = run(capsys, "--n", "4", "--k", "2", "smooth")
    assert code == EXIT_OK
    assert "# totals: smooth=7 singular=3 unknown=2" in out
    code, out, _ = run(capsys, "--n", "4", "--k", "2", "--format", "json", "smooth")
    data = json.loads(out)
    assert len(data) == 12
    singular = [row for row in data if row["verdict"] == "singular"]
    assert {row["rule"] for row in singular} == {"R2", "R5", "R6"}


@pytest.mark.parametrize("n", range(1, 9))
def test_hasse_and_smooth_at_rank_zero(capsys, n):
    """At ``k = 0`` the zero matrix is the one orbit: a single node and no
    edges, smooth by R2 (``alpha = id`` is the longest element of ``W_0``),
    byte for byte in each format."""
    ident = ",".join(map(str, range(1, n + 1)))
    tested = list(range(n, 0, -1))
    witness = {"avoids": [[4, 2, 3, 1], [3, 4, 1, 2]], "tested": tested}
    node = {"id": 0, "sigma": ident, "alpha": ident, "dim": 0, "singular": False}
    row = {"label": {"n": n, "k": 0, "sigma": ident, "alpha": ident}, "verdict": "smooth"}
    expected = {
        ("hasse",): (
            'digraph closure_order {\n  rankdir=BT;\n  node [shape=box, fontname="monospace"];\n'
            f'  n0 [label="{ident} | dim 0"];\n  {{ rank=same; n0; }}\n}}\n'
        ),
        ("--format", "json", "hasse"): json.dumps(
            {"n": n, "k": 0, "nodes": [node], "covers": [], "weak": []}, indent=2
        ) + "\n",
        ("smooth",): (
            f"# verdicts for n={n} k=0\n  sigma={ident} alpha={ident}  dim=0  "
            f"verdict=smooth   rule=R2 witness={witness}\n# totals: smooth=1 singular=0 unknown=0\n"
        ),
        ("--format", "json", "smooth"): json.dumps(
            [{**row, "rule": "R2", "witness": witness}], indent=2
        ) + "\n",
    }
    for argv, text in expected.items():
        assert run(capsys, "--n", str(n), "--k", "0", *argv) == (EXIT_OK, text, ""), argv


def test_springer_command(capsys):
    code, out, _ = run(capsys, "--n", "6", "--k", "2", "springer")
    assert code == EXIT_OK
    assert "# count = 9" in out
    assert "# standard tableaux (hook formula) = 9" in out
    assert "# springer component dimension = 7" in out


def test_blueprint_command(capsys):
    code, out, _ = run(
        capsys,
        "--n", "4", "--k", "2",
        "blueprint", "sigma=3,4,1,2 alpha=id", "s2.s1.s3.s2",
    )
    assert code == EXIT_OK
    assert "V0: K1 < K2 < K3 < K4   (standard flag)" in out
    assert "V4: W1 < W2 < W3 < K4   (changed at 2)" in out
    assert "W2 <= Ker(u)" in out
    code, out, _ = run(
        capsys,
        "--n", "4", "--k", "2", "--format", "json",
        "blueprint", "sigma=3,4,1,2 alpha=id", "s2.s1.s3.s2",
    )
    data = json.loads(out)
    assert data["moves"] == [2, 1, 3, 2]
    assert data["chain"][-1] == "W1 < W2 < W3 < K4"


def test_tangent_report_answers_each_closure_query_once(capsys, monkeypatch):
    # one reduced word of the label product, walked once per root; the
    # table's in-t_k roots feed the bracket span, so no walk is repeated
    words, walks = [], []
    reduced_word, descend = tangent.reduced_word, tangent.descend

    def counting_word(w):
        words.append(w)
        return reduced_word(w)

    def counting_walk(ctx, u, word):
        walks.append(u)
        return descend(ctx, u, word)

    def no_pair_query(*args):
        raise AssertionError("per-pair closure query")

    monkeypatch.setattr(tangent, "reduced_word", counting_word)
    monkeypatch.setattr(tangent, "descend", counting_walk)
    monkeypatch.setattr(poset, "leq_witness", no_pair_query)
    code, out, _ = run(capsys, "--n", "6", "--k", "2", "tangent", "sigma=s1.s3.s2.s5.s4")
    assert code == EXIT_OK
    assert "bracket-closure span = " in out
    assert words == [(2, 4, 1, 6, 3, 5)]
    assert len(walks) == len(tangent.phi_plus(Context(6, 2))) == 13


def test_verify_command(capsys):
    code, out, _ = run(capsys, "--n", "4", "--k", "2", "verify")
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line.startswith(("ok", "FAIL"))]
    assert len(lines) == 10
    assert all(line.startswith("ok  ") for line in lines)
    assert any("label-count: 12 labels" in line for line in lines)


SRC = Path(__file__).resolve().parent.parent / "src"

#: The commands without a label argument: each sweeps every label.
SWEEPS = [name for name, (positionals, _, _) in COMMANDS.items() if not positionals]


def no_sweep(monkeypatch):
    """Make every binding of ``enumerate_labels`` raise, so a test sees
    whether a sweep started."""
    def never(*args):
        raise AssertionError("the sweep ran")

    for module in (atlas, poset, springer):
        monkeypatch.setattr(module, "enumerate_labels", never)


def test_sweeps_are_the_commands_without_a_label():
    assert sorted(SWEEPS) == ["enumerate", "hasse", "smooth", "springer", "verify"]


def test_exit_code_cap(capsys, monkeypatch):
    """``n > --cap`` refuses each sweep before it starts; ``--cap 9`` lets
    it start, and the commands with a label ignore ``--cap``."""
    no_sweep(monkeypatch)
    for command in SWEEPS:
        refusal = (EXIT_CAP, "", "error: enumeration needs n <= 8, got n=9\n")
        assert run(capsys, "--n", "9", "--k", "2", command) == refusal, command
        with pytest.raises(AssertionError, match="the sweep ran"):
            main(["--cap", "9", "--n", "9", "--k", "2", command])
    pointwise = [
        ("order", "sigma=id", "sigma=s2"),
        ("tangent", "sigma=s2"),
        ("blueprint", "sigma=s2", "s2"),
    ]
    for argv in pointwise:
        for cap in ("8", "1"):
            code, out, err = run(capsys, "--cap", cap, "--n", "9", "--k", "2", *argv)
            assert (code, err) == (EXIT_OK, ""), argv
            assert out


def test_cap_nine_runs_the_sweep(capsys):
    code, out, err = run(capsys, "--cap", "9", "--n", "9", "--k", "2", "enumerate")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("# 1512 labels for n=9 k=2\n")


#: (n, k, labels): contexts whose labels times n exceed the sweep budget,
#: 1,995,840 labels at (12,5) times 12.  (40,2) has fewer labels than
#: (12,5), but each label costs more at larger n.
OVER_BUDGET = [(16, 8, 518918400), (13, 4, 2162160), (40, 2, 1096680)]


@pytest.mark.parametrize("command", SWEEPS)
@pytest.mark.parametrize("n, k, labels", OVER_BUDGET)
def test_a_sweep_over_the_budget_exits_at_once(command, n, k, labels):
    """Refused from the closed-form count, before anything enumerates.  The
    child runs under an address-space limit and a timeout, so a sweep
    that starts fails the test instead of exhausting the machine."""
    limit = 1 << 30

    def bounded():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "borbit.cli", "--cap", str(n), "--n", str(n), "--k", str(k), command],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=bounded,
        timeout=30,
    )
    elapsed = time.perf_counter() - start
    line = f"error: {labels} labels times n={n} exceed the budget 23950080\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_CAP, "", line)
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("n, k", [(12, 5), (16, 3), (32, 2)])
def test_the_measured_sweeps_pass_the_budget(monkeypatch, n, k):
    """(12,5) is the budget's edge; (16,3) and (32,2) sit below it."""
    no_sweep(monkeypatch)
    for command in SWEEPS:
        with pytest.raises(AssertionError, match="the sweep ran"):
            main(["--cap", str(n), "--n", str(n), "--k", str(k), command])


def test_exit_code_bad_input(capsys):
    code, _, err = run(
        capsys, "--n", "4", "--k", "2", "order", "sigma=4,2,1,3", "sigma=id"
    )
    assert code == EXIT_BAD_INPUT
    assert "error:" in err
    code, _, err = run(capsys, "--n", "4", "--k", "3", "enumerate")
    assert code == EXIT_BAD_INPUT
    code, out, err = run(
        capsys, "--n", "4", "--k", "2", "order", "sigma=id sigma=2,4,1,3", "sigma=2,4,1,3"
    )
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == "error: repeated label key 'sigma'\n"
    code, _, err = run(
        capsys, "--n", "4", "--k", "2",
        "blueprint", "sigma=3,4,1,2 alpha=id", "s2.s2.s1.s3",
    )
    assert code == EXIT_BAD_INPUT
    code, out, err = run(capsys, "--n", "4", "--k", "2", "blueprint", "sigma=3,4,1,2", "s2.s1.s4.s2")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == "error: letter out of range: s_4 in S_4\n"


def test_an_internal_error_is_not_reported_as_bad_input(monkeypatch):
    """No division in the library can meet a zero divisor on a validated
    context, so a ZeroDivisionError is a bug: it propagates instead of
    exiting 2 as bad input."""
    def broken(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(poset, "leq_witness", broken)
    with pytest.raises(ZeroDivisionError):
        main(["--n", "4", "--k", "2", "order", "sigma=id", "sigma=s2"])


@pytest.mark.parametrize(
    "fmt, argv",
    [
        ("json", ["tangent", "sigma=2,4,1,3"]),
        ("json", ["order", "sigma=id", "sigma=s2"]),
        ("json", ["springer"]),
        ("json", ["verify"]),
        ("dot", ["enumerate"]),
        ("table", ["hasse"]),
        ("dot", ["smooth"]),
        ("dot", ["blueprint", "sigma=3,4,1,2", "s2.s1.s3.s2"]),
    ],
)
def test_a_format_the_command_does_not_write_is_bad_input(capsys, fmt, argv):
    code, out, err = run(capsys, "--n", "4", "--k", "2", "--format", fmt, *argv)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == f"error: --format {fmt}: {argv[0]} writes only {', '.join(COMMANDS[argv[0]][1])}\n"


def test_a_refused_format_fails_before_the_command_runs(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(poset, "hasse", never)
    code, out, err = run(capsys, "--n", "8", "--k", "3", "--format", "table", "hasse")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err == "error: --format table: hasse writes only dot, json\n"


def test_each_command_writes_its_default_format_when_asked_by_name(capsys):
    """The first listed format is the default, so naming it changes nothing."""
    for name, (positionals, formats, _) in COMMANDS.items():
        argv = {
            "order": ["sigma=id", "sigma=s2"],
            "tangent": ["sigma=2,4,1,3"],
            "blueprint": ["sigma=3,4,1,2", "s2.s1.s3.s2"],
        }.get(name, [])
        assert len(argv) == len(positionals)
        default = run(capsys, "--n", "4", "--k", "2", name, *argv)
        named = run(capsys, "--n", "4", "--k", "2", "--format", formats[0], name, *argv)
        assert default == named and default[0] == EXIT_OK, name


def test_missing_subcommand_is_a_usage_error(capsys):
    code, out, err = run(capsys, "--n", "4", "--k", "2")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("usage: borbit ") and "\nerror: " in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--k", "2", "enumerate"],
        ["--n", "x", "--k", "2", "enumerate"],
        ["--nn", "4", "--k", "2", "enumerate"],
        ["--n", "4", "--k", "2", "enumerate", "--format"],
        ["--n", "4", "--k", "2", "--format", "xml", "enumerate"],
        ["--n", "4", "--k", "2", "--for", "json", "enumerate"],
        ["--n", "4", "--k", "2", "frobnicate"],
        ["--n", "4", "--k", "2", "order", "sigma=id"],
        ["--n", "4", "--k", "2", "tangent", "sigma=id", "sigma=s2"],
    ],
    ids=[
        "n-missing", "n-not-int", "unknown-option", "format-no-value", "format-xml",
        "abbreviation", "unknown-command", "order-one-label", "tangent-two-labels",
    ],
)
def test_usage_errors_exit_2_with_an_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert any(line.startswith("error: ") for line in err.splitlines()), err


def test_help_names_every_command_and_option(capsys):
    for flag in ("--help", "-h"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: borbit ")
        for word in [*COMMANDS, *OPTIONS]:
            assert word in out, word
    assert set(OPTIONS) == {"--n", "--k", "--format", "--out", "--cap"}


def test_attached_option_values_read_like_separate_ones(capsys):
    spaced = run(capsys, "--n", "4", "--k", "2", "--format", "json", "hasse")
    attached = run(capsys, "--n=4", "--k=2", "--format=json", "hasse")
    assert spaced == attached and spaced[0] == EXIT_OK


def test_options_may_follow_the_command_and_the_last_repeat_wins(capsys):
    before = run(capsys, "--n", "4", "--k", "2", "--format", "json", "smooth")
    after = run(capsys, "--n", "5", "smooth", "--k", "2", "--format", "table", "--n", "4", "--format=json")
    assert before == after and before[0] == EXIT_OK


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code = main(
        ["--n", "4", "--k", "2", "--format", "json", "--out", str(target), "hasse"]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    data = json.loads(target.read_text())
    assert (data["n"], data["k"]) == (4, 2)
    assert len(data["nodes"]) == 12
    assert sum(node["singular"] for node in data["nodes"]) == 3


@pytest.mark.parametrize("n,k", [(7, 1), (7, 3)])
def test_hasse_json_makes_at_most_one_write_per_64_kb(monkeypatch, n, k):
    """Unbuffered, every write to stdout is a system call: the streamed
    lines reach it in batches, never one at a time."""
    sizes = []

    class Recorder(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["--n", str(n), "--k", str(k), "--format", "json", "hasse"]) == EXIT_OK
    total = len(out.getvalue())
    assert sum(sizes) == total > 10_000
    assert len(sizes) <= total // 65536 + 1
    assert min(sizes[:-1], default=65536) >= 65536
    data = json.loads(out.getvalue())
    assert (data["n"], data["k"]) == (n, k)


def test_out_into_a_missing_directory_is_bad_input(tmp_path, capsys):
    target = tmp_path / "missing" / "graph.json"
    code, out, err = run(capsys, "--n", "4", "--k", "2", "--format", "json", "--out", str(target), "hasse")
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


def test_out_into_a_missing_directory_fails_before_the_command_runs(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(poset, "hasse", never)
    # a target that is itself a directory is refused at the same point
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run(capsys, "--n", "8", "--k", "3", "--format", "json", "--out", str(target), "hasse")
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.startswith("error: ") and str(target) in err


def test_samples_is_an_unknown_option(capsys):
    """``verify`` checks its curve identities over Z[t], for every ``t``
    at once, so it reads no curve samples."""
    for argv in (["--samples", "1,2", "verify"], ["--samples=1", "order", "sigma=id", "sigma=s2"]):
        code, out, err = run(capsys, "--n", "4", "--k", "2", *argv)
        assert (code, out) == (EXIT_BAD_INPUT, "")
        assert err.splitlines() == [USAGE, "error: unknown option --samples"]
