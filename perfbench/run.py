"""Benchmark of the ``borbit`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a seeded list of CLI
commands (see ``workloads.py``).  A run repeats that list, one pass after
another, for about S seconds.  Every command runs in a fresh interpreter
with ``src`` on the path, as an installed ``borbit`` script would, so it
pays the import and cold ``lru_cache``s each time.  Commands run one at a
time from this process, which idles while they run.  Each answer is
checked, and a command that exits non-zero, passes its deadline or fails
its check counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass (see ``tracer.py``).  The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Well above the slowest command at the seed commit (about 2.5 s), so that
# only a hang or a many-fold slowdown fails.
DEADLINE_S = 60.0
# No command starts later than this after the run began, so that a run of
# hanging commands still ends (by the last deadline) within 180 s.
HARD_STOP_S = 100.0
SETUP_PROBES = 9
REFERENCE_CALIBRATION_S = 0.1
RUN_CLI = "import sys; from borbit.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_CLI = "import borbit.cli"
TAIL_BEYOND = 10


@dataclass
class Outcome:
    code: int | None  # None when killed at the deadline
    out: str
    err: str
    wall_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], workdir: str, deadline_s: float = DEADLINE_S) -> Outcome:
    """Run one process to completion or to its deadline and time it.

    The child is reaped with ``os.wait4`` so that its own peak RSS is read,
    not the cumulative figure of all children.  ``waitid(WNOWAIT)`` waits for
    the exit without reaping, so the deadline timer can never signal a
    reused process id.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=workdir, env=child_env()
        )
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(deadline_s, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(
            None if state["killed"] else proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            wall,
            usage.ru_maxrss / 1024,
        )


def failure(outcome: Outcome, check) -> str | None:
    """Why a command failed, or None if its answer passed the check."""
    if outcome.code is None:
        return "deadline passed"
    try:
        reason = check(outcome.code, outcome.out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if reason is not None and outcome.err.strip():
        reason += f" ({outcome.err.strip().splitlines()[-1]})"
    return reason


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ``TAIL_BEYOND`` samples
    beyond it (nearest rank); the median when there are too few samples."""
    return max(50, math.floor(100 * (count - TAIL_BEYOND) / count)) if count else 50


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


@dataclass
class Run:
    """Everything one run measured.  Times are scaled to reference speed."""

    per_command: list[list[float]]
    passes: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    raw_wall_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    undecided: list[int] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    traced_passes: list[float] = field(default_factory=list)


class Timer:
    """Times children and scales each time to the reference CPU speed.

    On a shared 2-vCPU virtual machine (Xeon, 2.1 GHz) the CPU speed changes
    by half or more from one few-second stretch to the next, for child CPU
    time as much as for wall time.  So right before each command the
    calibration command (``calibrate.py``) runs, and the command's wall time
    is multiplied by ``REFERENCE_CALIBRATION_S`` over the calibration's
    wall time.  The result reads as seconds on a machine where the
    calibration takes ``REFERENCE_CALIBRATION_S``.  On 40 alternating runs
    there, this cut the variation of a 0.2 s command from 18% to 13%; the
    medians over a run cut it further.  The calibration is the benchmark's
    own code, so a change to ``borbit`` moves the scaled time as it moves
    the wall time.
    """

    def __init__(self, workdir: str, run: Run):
        self.workdir = workdir
        self.run = run

    def child(self, argv: list[str]) -> tuple[Outcome, float]:
        """Run ``argv``; return its outcome and its scaled wall time."""
        calibration = run_child([sys.executable, str(HERE / "calibrate.py")], self.workdir).wall_s
        self.run.calibrations.append(calibration)
        outcome = run_child(argv, self.workdir)
        return outcome, outcome.wall_s * REFERENCE_CALIBRATION_S / calibration

    def probe_setup(self) -> float:
        return self.child([sys.executable, "-c", IMPORT_CLI])[1]


def run_pass(commands, timer: Timer, stop_at: float, trace: bool) -> tuple[float, bool]:
    """One pass over the commands: its scaled wall time, and False if the
    hard stop cut it short."""
    run = timer.run
    total = 0.0
    unknown = 0
    merged: dict = {}
    for i, cmd in enumerate(commands):
        if time.perf_counter() > stop_at:
            return total, False
        if trace:
            trace_out = os.path.join(timer.workdir, "trace.json")
            if os.path.exists(trace_out):
                os.remove(trace_out)
            argv = [sys.executable, str(HERE / "tracer.py"), trace_out, *cmd.argv]
        else:
            argv = [sys.executable, "-c", RUN_CLI, *cmd.argv]
        outcome, scaled = timer.child(argv)
        run.attempted += 1
        reason = failure(outcome, cmd.check)
        if reason is not None:
            run.failed += 1
            run.failures.append(f"{' '.join(cmd.argv)}: {reason}")
        total += scaled
        run.raw_wall_s += outcome.wall_s
        unknown += outcome.out.count(" verdict=unknown ")
        run.rss_mb = max(run.rss_mb, outcome.rss_mb)
        if not trace:
            run.per_command[i].append(scaled)
        elif os.path.exists(trace_out):
            with open(trace_out, encoding="utf-8") as handle:
                merge_trace(merged, json.load(handle))
    if trace:
        run.traces.append(merged)
    else:
        run.undecided.append(unknown)
    return total, True


EMPTY_TRACE = {"calls": {}, "self_s": {}, "pairs": {}, "counts": {}, "verdict_labels": 0}


def measure(workload, seed: int, seconds: float, workdir: str, trace: bool) -> Run:
    """Repeat passes for ``seconds``: a pass starts only if the longest pass
    so far still fits.  Traced runs follow each pass with a traced run of
    the same commands."""
    run = Run([[] for _ in workload(seed, 0)])
    timer = Timer(workdir, run)
    start = time.perf_counter()
    stop_at = start + HARD_STOP_S
    longest = 0.0
    while not run.passes or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        commands = workload(seed, len(run.passes))
        run.setup.append(timer.probe_setup())
        wall, complete = run_pass(commands, timer, stop_at, trace=False)
        run.passes.append(wall)
        if complete and trace:
            traced, complete = run_pass(commands, timer, stop_at, trace=True)
            if complete:
                run.traced_passes.append(traced)
        if not complete:
            break
        longest = max(longest, time.perf_counter() - began)
    while len(run.setup) < SETUP_PROBES and time.perf_counter() < stop_at:
        run.setup.append(timer.probe_setup())
    return run


def merge_trace(into: dict, part: dict) -> None:
    for section in ("calls", "self_s", "pairs", "counts"):
        bucket = into.setdefault(section, {})
        for name, value in part[section].items():
            bucket[name] = bucket.get(name, 0) + value
    into["verdict_labels"] = into.get("verdict_labels", 0) + part["verdict_labels"]


def end_to_end(run: Run, per_query: bool) -> tuple[dict, list[str]]:
    """End-to-end metrics.  A query is one command in ``pointwise`` and one
    pass over the workload's commands elsewhere: that is what a user waits
    for.

    The query tail (the highest percentile with ``TAIL_BEYOND`` queries
    beyond it) is reported but not gated: a run holds 40 to 70 queries, so
    the tail is about the tenth-slowest query, and its quartile spread over
    seeds was 0.17 to 0.43 on the machine described in ``Timer``: too close
    to, or above, the largest bound allowed (0.25).
    """
    timed = [wall for walls in run.per_command for wall in walls] if per_query else run.passes
    tail = tail_percentile(len(timed))
    tail_s = nearest_rank(timed, tail) if tail > 50 else statistics.median(timed)
    metrics = {
        "setup_s": (statistics.median(run.setup), "s"),
        "wall_s": (sum(statistics.median(walls) for walls in run.per_command if walls), "s"),
        "query_p50_s": (statistics.median(timed), "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }
    notes = [
        f"queries: {len(timed)} ({'commands' if per_query else 'passes'}), "
        f"tail p{tail} = {tail_s:.4f} s{' (too few queries for a tail: median)' if len(timed) < 20 else ''}",
        f"passes: {len(run.passes)}, setup probes: {len(run.setup)}, "
        f"calibration: median {statistics.median(run.calibrations):.4f} s of {len(run.calibrations)} "
        f"(times are scaled to {REFERENCE_CALIBRATION_S} s), unscaled command time {run.raw_wall_s:.2f} s",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


LAYER_FUNCTIONS = [f"{module}.{name}" for module, names in tracer.LAYERS.items() for name in names]
LAYER_FUNCTIONS += list(tracer.METHODS)
RULES = ("R1", "R2", "R3", "R4", "R5", "R6", "unknown")


def per_layer(run: Run) -> dict:
    """Per-layer metrics of the median traced pass (by traced wall time).

    Self times are unscaled seconds inside the traced processes, summed over
    the pass; ``trace.traced_pass_s`` and ``trace.overhead_s`` (traced pass
    minus untraced pass) are scaled like the end-to-end times.
    """
    order = sorted(range(len(run.traced_passes)), key=run.traced_passes.__getitem__)
    trace = run.traces[order[len(order) // 2]] if order else EMPTY_TRACE
    calls, self_s, pairs, counts = (trace[s] for s in ("calls", "self_s", "pairs", "counts"))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    metrics["cli.main.total_s"] = (sum(self_s.values()), "s")  # every span runs inside main
    metrics["cli.main.failed"] = (counts.get("cli.main.failed", 0), "count")
    metrics["atlas.coset_of.members"] = (counts.get("atlas.coset_of.members", 0), "count")
    metrics["poset.leq_witness.bruhat_per_call"] = (
        ratio(pairs.get("poset.leq_witness>perms.bruhat_leq", 0), calls.get("poset.leq_witness", 0)),
        "1/call",
    )
    metrics["tangent.verdict.per_label"] = (
        ratio(calls.get("tangent.verdict", 0), trace["verdict_labels"]), "1/label"
    )
    metrics["tangent.bk_span.rank_per_product"] = (
        ratio(counts.get("tangent.bk_span.rank_sum", 0), counts.get("ratmat.mul.under_bk_span", 0)),
        "1/product",
    )
    for rule in RULES:
        metrics[f"tangent.verdict.rule.{rule}"] = (counts.get(f"tangent.verdict.rule.{rule}", 0), "count")
    traced = statistics.median(run.traced_passes) if run.traced_passes else 0.0
    untraced = statistics.median(run.passes)
    metrics["trace.traced_pass_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if not (SRC / "borbit" / "cli.py").is_file():
        print(f"error: no borbit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        # Writes the bytecode caches once, as installing the package would.
        run_child([sys.executable, "-c", IMPORT_CLI], workdir)
        run = measure(workload, args.seed, args.seconds, workdir, bool(args.trace))

    slots = [cmd.slot for cmd in workload(args.seed, 0)]
    print(f"workload {args.workload}, seed {args.seed}, {len(slots)} commands per pass")
    for slot, walls in zip(slots, run.per_command):
        if walls:
            print(f"  {statistics.median(walls):8.3f} s median of {len(walls)}  {slot}")
    for line in run.failures:
        print(f"  FAILED {line}")
    if any(run.undecided):
        print(f"undecided (unknown verdicts per pass): {sorted(set(run.undecided))}")
    print(f"failed_frac: {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.4f}")
    if args.trace:
        metrics = per_layer(run)
    else:
        metrics, notes = end_to_end(run, per_query=args.workload == "pointwise")
        print("\n".join(notes))
    for name, m in metrics.items():
        print(f"  {args.workload}.{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
