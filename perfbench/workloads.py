"""The benchmark's workloads: seeded lists of ``borbit`` CLI commands and
the check each answer must pass.

A workload maps ``(seed, pass number)`` to the list of commands of that
pass; the benchmark runs passes for as long as a run lasts.  Position ``i``
of every pass is the same slot: the same command, or in ``pointwise`` the
same kind and size of query on a freshly drawn label.  Every command
carries a check that returns ``None`` for a correct answer or a one-line
reason.  Checks compare against ``reference.json`` (written by
``make_reference.py`` and cross-checked there with the slow oracles) or
against the oracles in ``oracle.py``, which share no code with ``borbit``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

REFERENCE = Path(__file__).resolve().parent / "reference.json"

CLOSURE_CONTEXTS = ((5, 1), (6, 1), (7, 1))
VERDICT_CONTEXTS = ((4, 2), (5, 2))
VERIFY_CONTEXTS = ((6, 1), (5, 2))
# Order queries need no enumeration, so n runs past the enumeration cap;
# the coset size k!(n-2k)! runs from 24 to 80640.  Most slots are small, so
# that the median query is one that startup dominates.  n >= 13 is left
# out: (13, 2) takes over 10 s per query and n = 16 does not finish.
ORDER_SLOTS = (
    (9, 1), (9, 2), (9, 3), (9, 4), (10, 2), (10, 3), (10, 4), (10, 5), (11, 2),
    (11, 3), (11, 4), (11, 5), (12, 2), (12, 3), (12, 4), (12, 5),
)
# Tangent cost varies about threefold with the label; fresh labels every
# pass let a run's per-slot medians average over that.
TANGENT_SLOTS = ((6, 2), (6, 3)) * 2
VERIFY_SUITES = (
    "label-count", "minimal-representatives", "representative-matrices",
    "involution-bijection", "orbital-varieties", "closure-order-oracle",
    "curves", "tangent-span", "hasse", "verdicts",
)

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its slot, its arguments and the check on
    (exit code, stdout)."""

    slot: str
    argv: tuple[str, ...]
    check: Check


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def ctx_key(n: int, k: int) -> str:
    return f"{n},{k}"


def fmt(p) -> str:
    return ",".join(map(str, p))


def parse(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def compose(p, q) -> tuple[int, ...]:
    """``p . q``: apply ``q`` first."""
    return tuple(p[v - 1] for v in q)


def inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def dimension(k: int, sigma, alpha) -> int:
    return inversions(sigma) + inversions(alpha) + k * (k + 1) // 2


def random_label(rng: random.Random, n: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A label drawn uniformly from the n!/(k!(n-2k)!) labels of ``(n, k)``:
    a random block split, each block sorted, and a random alpha on 1..k."""
    values = list(range(1, n + 1))
    first = sorted(rng.sample(values, k))
    rest = [v for v in values if v not in first]
    last = sorted(rng.sample(rest, k))
    middle = [v for v in rest if v not in last]
    alpha = list(range(1, k + 1))
    rng.shuffle(alpha)
    return tuple(first + middle + last), tuple(alpha) + tuple(range(k + 1, n + 1))


def label_arg(sigma, alpha) -> str:
    return f"sigma={fmt(sigma)} alpha={fmt(alpha)}"


def _exit_zero(check: Callable[[str], "str | None"]) -> Check:
    def checked(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return check(out)

    return checked


# --- closure: hasse --format json on k = 1 ------------------------------


def check_hasse(ref: dict, n: int, k: int) -> Check:
    def check(out: str) -> str | None:
        data = json.loads(out)
        if (data["n"], data["k"]) != (n, k):
            return "wrong context"
        keys = {node["id"]: f"{node['sigma']} {node['alpha']}" for node in data["nodes"]}
        if len(keys) != oracle.label_count(n, k):
            return f"{len(keys)} nodes, expected {oracle.label_count(n, k)}"
        nodes = {keys[node["id"]]: [node["dim"], node["singular"]] for node in data["nodes"]}
        if nodes != ref["nodes"]:
            return "node dimensions or singular flags differ from the reference"
        covers = sorted([keys[i], keys[j], attrs["alpha_descent"]] for i, j, attrs in data["covers"])
        if covers != ref["covers"]:
            return "covers differ from the reference"
        weak = sorted([keys[i], keys[j], s] for i, j, s in data["weak"])
        if weak != ref["weak"]:
            return "weak edges differ from the reference"
        return None

    return _exit_zero(check)


def fixed(build: Callable[[], list[Command]]) -> Callable[[int, int], list[Command]]:
    """A workload whose passes repeat one command list, in seeded order."""

    def workload(seed: int, pass_number: int) -> list[Command]:
        commands = build()
        random.Random(seed).shuffle(commands)
        return commands

    return workload


def closure() -> list[Command]:
    ref = load_reference()["hasse"]
    return [
        Command(f"hasse ({n},{k})", ("--n", str(n), "--k", str(k), "--format", "json", "hasse"),
                check_hasse(ref[ctx_key(n, k)], n, k))
        for n, k in CLOSURE_CONTEXTS
    ]


# --- verdicts: smooth on k >= 2 ------------------------------------------

VERDICT_LINE = re.compile(
    r"^\s+sigma=(\S+) alpha=(\S+)\s+dim=(\d+)\s+verdict=(\w+)\s+rule=(\S+)"
)
TOTALS_LINE = re.compile(r"^# totals: smooth=(\d+) singular=(\d+) unknown=(\d+)$")


def check_smooth(ref: dict, n: int, k: int) -> Check:
    """A decided reference verdict must be reproduced; an ``unknown`` one may
    become decided, which shows in the undecided count."""

    def check(out: str) -> str | None:
        rows = [m for m in map(VERDICT_LINE.match, out.splitlines()) if m]
        if len(rows) != oracle.label_count(n, k) or len(rows) != len(ref):
            return f"{len(rows)} verdict lines, expected {oracle.label_count(n, k)}"
        counts = {"smooth": 0, "singular": 0, "unknown": 0}
        for m in rows:
            key = f"{m[1]} {m[2]}"
            if key not in ref:
                return f"unexpected label {key}"
            if int(m[3]) != dimension(k, parse(m[1]), parse(m[2])):
                return f"wrong dimension for {key}"
            if m[4] not in counts:
                return f"unknown status {m[4]!r}"
            if ref[key] != "unknown" and m[4] != ref[key]:
                return f"{key}: {m[4]}, reference {ref[key]}"
            counts[m[4]] += 1
        totals = [TOTALS_LINE.match(line) for line in out.splitlines()]
        totals = [t for t in totals if t]
        if len(totals) != 1 or tuple(map(int, totals[0].groups())) != tuple(counts.values()):
            return "totals line does not match the verdict lines"
        return None

    return _exit_zero(check)


def verdicts() -> list[Command]:
    ref = load_reference()["smooth"]
    return [
        Command(f"smooth ({n},{k})", ("--n", str(n), "--k", str(k), "smooth"),
                check_smooth(ref[ctx_key(n, k)], n, k))
        for n, k in VERDICT_CONTEXTS
    ]


# --- verify: the self-check suites ---------------------------------------

LABEL_COUNT_LINE = re.compile(r"^ok   label-count: (\d+) labels, (\d+) cosets, formula (\d+)$")


def check_verify(n: int, k: int) -> Check:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if any(line.startswith("FAIL") for line in lines):
            return "a suite printed FAIL"
        passed = {line[5:].split(":")[0] for line in lines if line.startswith("ok   ")}
        missing = [s for s in VERIFY_SUITES if s not in passed]
        if missing:
            return f"suites missing: {', '.join(missing)}"
        counts = [LABEL_COUNT_LINE.match(line) for line in lines]
        counts = [m for m in counts if m]
        expected = oracle.label_count(n, k)
        if len(counts) != 1 or any(int(v) != expected for v in counts[0].groups()):
            return f"label-count line does not read {expected} three times"
        return None

    return _exit_zero(check)


def verify() -> list[Command]:
    return [
        Command(f"verify ({n},{k})", ("--n", str(n), "--k", str(k), "verify"), check_verify(n, k))
        for n, k in VERIFY_CONTEXTS
    ]


# --- pointwise: single-label order and tangent queries --------------------


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    p[i - 1], p[j - 1] = j, i
    return tuple(p)


def check_order(n: int, k: int, a_perm, b_perm) -> Check:
    """The answer must match the parabolic oracle; a witness need only be a
    member of ``a``'s coset below ``b``'s product, since a faster ``leq`` may
    find a different one."""
    expected = oracle.closure_leq(n, k, a_perm, b_perm)

    def check(out: str) -> str | None:
        words = out.split()
        if not expected:
            return None if words == ["false"] else f"expected false, got {out.strip()!r}"
        if len(words) != 2 or words[0] != "true" or not words[1].startswith("witness="):
            return f"expected true with a witness, got {out.strip()!r}"
        witness = parse(words[1][len("witness="):])
        if sorted(witness) != list(range(1, n + 1)):
            return "witness is not a permutation"
        if not oracle.in_coset(n, k, a_perm, witness):
            return "witness is not in the coset of a"
        if not oracle.bruhat_leq_rank(witness, b_perm):
            return "witness is not below the product of b"
        return None

    return _exit_zero(check)


ROOT_ROW = re.compile(
    r"^\s+\((\d+),(\d+)\)\s+(\S+)\s+phi_n=(yes|no)\s*t_k=(in|out)\s+witness=(\S+)$"
)


def tangent_reference(n: int, k: int, sigma, alpha) -> dict:
    """What the tangent report must show, from the oracles alone."""
    perm = compose(sigma, alpha)
    roots = {
        (i, j): (family,
                 "no" if i <= k and n - k < j <= i + n - k else "yes",
                 oracle.closure_leq(n, k, transposition(n, i, j), perm))
        for (i, j), family in oracle.positive_roots(n, k).items()
    }
    t_k = [root for root, (*_, inside) in roots.items() if inside]
    lower = k * (k + 1) // 2 + len(t_k)
    upper = all(perm[j] < sigma[n - k + j] for j in range(k))
    return {
        "perm": perm,
        "roots": roots,
        "lines": [
            f"|t_k| = {len(t_k)} of {len(roots)} roots",
            f"tangent lower bound = {lower}",
            f"dimension = {dimension(k, sigma, alpha)}",
        ]
        + ([f"tangent dimension (upper label) = {lower}"] if upper else [])
        + [f"bracket-closure span = {oracle.bracket_span(n, k, t_k)}"],
    }


def check_tangent(ref: dict, n: int, k: int) -> Check:
    def check(out: str) -> str | None:
        lines = [line.strip() for line in out.splitlines()]
        rows = [m for m in map(ROOT_ROW.match, out.splitlines()) if m]
        if sorted((int(m[1]), int(m[2])) for m in rows) != sorted(ref["roots"]):
            return f"root rows differ from the {len(ref['roots'])} positive roots"
        for m in rows:
            root = (int(m[1]), int(m[2]))
            family, kept, inside = ref["roots"][root]
            if (m[3], m[4], m[5] == "in") != (family, kept, inside):
                return f"row for root {root} differs from the reference"
            if inside:
                witness = parse(m[6])
                if not (oracle.in_coset(n, k, transposition(n, *root), witness)
                        and oracle.bruhat_leq_rank(witness, ref["perm"])):
                    return f"invalid witness for root {root}"
            elif m[6] != "-":
                return f"witness given for root {root} outside t_k"
        tail = [line for line in lines[1 + len(rows):] if line]
        if tail != ref["lines"]:
            return f"summary lines differ: {tail} vs {ref['lines']}"
        return None

    return _exit_zero(check)


def pointwise(seed: int, pass_number: int) -> list[Command]:
    """One query per slot, each on labels drawn afresh from the seed and the
    pass number.  The slots are fixed and their order is drawn once per
    seed, so every pass and every seed has the same mix of sizes."""
    slots = [("order", n, k) for n, k in ORDER_SLOTS] + [("tangent", n, k) for n, k in TANGENT_SLOTS]
    random.Random(seed).shuffle(slots)
    rng = random.Random(f"{seed}/{pass_number}")
    commands = []
    for kind, n, k in slots:
        head = ("--n", str(n), "--k", str(k), kind)
        if kind == "order":
            (sa, aa), (sb, ab) = random_label(rng, n, k), random_label(rng, n, k)
            commands.append(Command(f"order ({n},{k})", head + (label_arg(sa, aa), label_arg(sb, ab)),
                                    check_order(n, k, compose(sa, aa), compose(sb, ab))))
        else:
            sigma, alpha = random_label(rng, n, k)
            commands.append(Command(f"tangent ({n},{k})", head + (label_arg(sigma, alpha),),
                                    check_tangent(tangent_reference(n, k, sigma, alpha), n, k)))
    return commands


WORKLOADS = {
    "closure": fixed(closure),
    "verdicts": fixed(verdicts),
    "pointwise": pointwise,
    "verify": fixed(verify),
}
