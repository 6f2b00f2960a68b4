"""Self-tests of the benchmark: percentiles, failure counting, answer checks,
oracles and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys

import pytest

from borbit import atlas, perms, poset, tangent

import oracle
import run
import workloads
from workloads import Command

HERE = run.HERE


# --- percentiles -----------------------------------------------------------


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in range(20, 300):
        values = list(range(count))
        pct = run.tail_percentile(count)
        beyond = sum(v > run.nearest_rank(values, pct) for v in values)
        assert beyond >= run.TAIL_BEYOND
        assert sum(v > run.nearest_rank(values, pct + 1) for v in values) < run.TAIL_BEYOND


def test_tail_percentile_falls_back_to_the_median():
    assert [run.tail_percentile(c) for c in (1, 9, 19, 20, 54, 100)] == [50, 50, 50, 50, 81, 90]
    assert run.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0
    assert run.nearest_rank([4.0, 1.0, 3.0, 2.0], 50) == 2.0


# --- failure counting --------------------------------------------------------


def accept(code, out):
    return None if code == 0 else f"exit code {code}"


def test_nonzero_exit_and_deadline_count_as_failures(tmp_path):
    bad = run.run_child([sys.executable, "-c", "import sys; sys.exit(3)"], str(tmp_path))
    assert bad.code == 3 and run.failure(bad, accept) == "exit code 3"
    hung = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], str(tmp_path), deadline_s=0.5)
    assert hung.code is None and 0.5 <= hung.wall_s < 10
    assert "deadline" in run.failure(hung, accept)
    ok = run.run_child([sys.executable, "-c", "print('hi')"], str(tmp_path))
    assert ok.code == 0 and ok.out == "hi\n" and ok.rss_mb > 1
    assert run.failure(ok, accept) is None


def test_unreadable_output_is_a_failure():
    outcome = run.Outcome(0, "not json", "", 0.1, 10.0)
    ref = workloads.load_reference()["hasse"]["5,1"]
    assert run.failure(outcome, workloads.check_hasse(ref, 5, 1)).startswith("unreadable output")


def test_a_pass_counts_attempted_and_failed(tmp_path):
    a, b = "sigma=1,2,3,4 alpha=1,2,3,4", "sigma=2,4,1,3 alpha=1,2,3,4"
    right = workloads.check_order(4, 2, (1, 2, 3, 4), (2, 4, 1, 3))
    wrong = workloads.check_order(4, 2, (2, 4, 1, 3), (1, 2, 3, 4))
    commands = [
        Command("right", ("--n", "4", "--k", "2", "order", a, b), right),
        Command("wrong", ("--n", "4", "--k", "2", "order", a, b), wrong),
        Command("bad input", ("--n", "4", "--k", "2", "order", "sigma=9", b), right),
    ]
    result = run.Run([[] for _ in commands])
    wall, complete = run.run_pass(commands, run.Timer(str(tmp_path), result), float("inf"), trace=False)
    assert complete and wall > 0
    assert (result.attempted, result.failed) == (3, 2)
    assert len(result.calibrations) == 3 and all(len(walls) == 1 for walls in result.per_command)
    assert "expected false" in result.failures[0] and "exit code 2" in result.failures[1]


# --- answer checks -------------------------------------------------------------


def test_order_check_accepts_any_valid_witness():
    n, k = 4, 2
    a, b = (1, 2, 3, 4), (4, 3, 2, 1)
    check = workloads.check_order(n, k, a, b)
    members = [m for m in itertools.permutations(range(1, n + 1)) if oracle.in_coset(n, k, a, m)]
    assert len(members) == 2
    for m in members:
        assert check(0, f"true  witness={workloads.fmt(m)}\n") is None
    assert "not in the coset" in check(0, "true  witness=2,1,3,4\n")
    assert "expected true" in check(0, "false\n")
    below = workloads.check_order(n, k, (1, 2, 3, 4), (1, 2, 3, 4))
    assert below(0, "true  witness=1,2,3,4\n") is None
    high = workloads.check_order(n, k, (2, 4, 1, 3), (1, 2, 3, 4))
    assert high(0, "false\n") is None
    assert "expected false" in high(0, "true  witness=2,4,1,3\n")


def test_witness_must_lie_below():
    n, k = 4, 1
    a, b = (1, 3, 2, 4), (1, 2, 3, 4)
    check = workloads.check_order(n, k, a, b)
    # (1,3,2,4) . H contains (1,2,3,4), the identity, which is below everything.
    assert check(0, "true  witness=1,2,3,4\n") is None
    assert "not below" in check(0, "true  witness=1,3,2,4\n")


def test_verify_check_rejects_fail_lines_and_missing_suites():
    lines = ["ok   label-count: 30 labels, 30 cosets, formula 30"]
    lines += [f"ok   {s}: fine" for s in workloads.VERIFY_SUITES[1:]]
    check = workloads.check_verify(6, 1)
    assert check(0, "\n".join(lines)) is None
    assert check(1, "\n".join(lines)) == "exit code 1"
    assert "FAIL" in check(0, "\n".join(lines + ["FAIL curves: 1 bad"]))
    assert "curves" in check(0, "\n".join(l for l in lines if "curves" not in l))
    assert "label-count" in check(0, "\n".join(["ok   label-count: 30 labels, 29 cosets, formula 30"] + lines[1:]))


def test_smooth_check_lets_unknown_become_decided_but_not_the_reverse():
    ref = workloads.load_reference()["smooth"]["4,2"]
    out = subprocess.run(
        [sys.executable, "-c", run.RUN_CLI, "--n", "4", "--k", "2", "smooth"],
        capture_output=True, text=True, env=run.child_env(), check=True,
    ).stdout
    check = workloads.check_smooth(ref, 4, 2)
    assert check(0, out) is None
    unknown = next(key for key, status in ref.items() if status == "unknown")
    decided = next(key for key, status in ref.items() if status == "smooth")

    def flip(key, old, new):
        """Change one label's verdict and keep the totals line consistent."""
        sigma, alpha = key.split()
        prefix = f"  sigma={sigma} alpha={alpha}  "
        lines = [line.replace(f"verdict={old:<8}", f"verdict={new:<8}") if line.startswith(prefix) else line
                 for line in out.splitlines()]
        counts = {s: sum(f"verdict={s} " in line for line in lines) for s in ("smooth", "singular", "unknown")}
        lines[-1] = "# totals: " + " ".join(f"{s}={c}" for s, c in counts.items())
        return "\n".join(lines)

    assert check(0, flip(unknown, "unknown", "smooth")) is None
    assert "reference smooth" in check(0, flip(decided, "smooth", "unknown"))
    assert "totals" in check(0, out.replace("unknown=2", "unknown=3"))


def test_hasse_check_against_the_reference():
    ref = workloads.load_reference()["hasse"]["5,1"]
    out = subprocess.run(
        [sys.executable, "-c", run.RUN_CLI, "--n", "5", "--k", "1", "--format", "json", "hasse"],
        capture_output=True, text=True, env=run.child_env(), check=True,
    ).stdout
    check = workloads.check_hasse(ref, 5, 1)
    assert check(0, out) is None
    data = json.loads(out)
    data["covers"].pop()
    assert "covers" in check(0, json.dumps(data))


def test_pointwise_labels_are_uniform():
    n, k = 5, 2
    rng = random.Random(0)
    draws = [workloads.random_label(rng, n, k) for _ in range(6000)]
    labels = {(lbl.sigma, lbl.alpha) for lbl in atlas.enumerate_labels(atlas.Context(n, k))}
    counts = {lbl: 0 for lbl in labels}
    for d in draws:
        counts[d] += 1
    assert min(counts.values()) > 50 and max(counts.values()) < 150


def test_workloads_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        first = workload(3, 0)
        assert [c.argv for c in first] == [c.argv for c in workload(3, 0)]
        assert [c.slot for c in first] == [c.slot for c in workload(3, 1)]
    pointwise = workloads.pointwise
    assert [c.argv for c in pointwise(3, 0)] != [c.argv for c in pointwise(4, 0)]
    assert [c.argv for c in pointwise(3, 0)] != [c.argv for c in pointwise(3, 1)]


def test_tangent_reports_pass_their_checks():
    for seed in range(3):
        for cmd in workloads.pointwise(seed, 0):
            if "tangent" in cmd.argv:
                proc = subprocess.run([sys.executable, "-c", run.RUN_CLI, *cmd.argv],
                                      capture_output=True, text=True, env=run.child_env())
                assert cmd.check(proc.returncode, proc.stdout) is None
                wrong = proc.stdout.replace("bracket-closure span = ", "bracket-closure span = 1")
                assert "summary lines differ" in cmd.check(0, wrong)


# --- oracles ---------------------------------------------------------------------


def test_bruhat_rank_criterion_matches_prefix_dominance():
    for u in itertools.permutations(range(1, 6)):
        for w in itertools.permutations(range(1, 6)):
            assert oracle.bruhat_leq_rank(u, w) == perms.bruhat_leq(u, w)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 1), (6, 3)])
def test_parabolic_oracle_matches_leq_oracle(n, k):
    ctx = atlas.Context(n, k)
    labels = atlas.enumerate_labels(ctx)
    for a in labels:
        for b in labels:
            assert oracle.closure_leq(n, k, atlas.label_perm(a), atlas.label_perm(b)) == poset.leq_oracle(
                ctx, a, b, word_cap=n * n
            )


@pytest.mark.parametrize("n,k,step", [(4, 2, 1), (5, 2, 4), (6, 3, 15)])
def test_sparse_bracket_span_matches_bk_span(n, k, step):
    ctx = atlas.Context(n, k)
    for lbl in atlas.enumerate_labels(ctx)[::step]:
        t_k = [(r.i, r.j) for r in tangent.t_k_set(ctx, lbl)]
        assert oracle.bracket_span(n, k, t_k) == tangent.bk_span(ctx, lbl)


def test_coset_membership_and_patterns():
    ctx = atlas.Context(6, 2)
    w = (3, 1, 6, 2, 5, 4)
    members = set(atlas.coset_of(ctx, w).members)
    for m in itertools.permutations(range(1, 7)):
        assert oracle.in_coset(6, 2, w, m) == (m in members)
    for w in itertools.permutations(range(1, 6)):
        assert oracle.contains_pattern(w, (3, 1, 4, 2)) == perms.contains_pattern(w, (3, 1, 4, 2))
    assert [oracle.label_count(n, k) for n, k in ((4, 2), (5, 2), (7, 1))] == [12, 60, 42]


# --- tracer and whole runs -----------------------------------------------------


def test_tracer_patches_copied_bindings(tmp_path):
    out = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(out), "--n", "4", "--k", "2", "tangent", "sigma=2,4,1,3"],
        capture_output=True, env=run.child_env(), check=True,
    )
    trace = json.loads(out.read_text())
    # t_k_table reaches leq_witness through tangent's own copy of the name.
    assert trace["pairs"]["cli.main>poset.leq_witness"] > 0
    assert trace["pairs"]["cli.main>tangent.bk_span"] == 1
    assert trace["calls"]["ratmat.mul"] == trace["counts"]["ratmat.mul.under_bk_span"]
    assert trace["counts"]["tangent.bk_span.rank_sum"] > 0
    assert all(v >= 0 for v in trace["self_s"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "verdicts", "--seed", "1", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert metrics["tangent.verdict.per_label"]["value"] == 2
    assert metrics["tangent.verdict.rule.unknown"]["value"] == 2 * 10


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "closure", "--seed", "2", "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
