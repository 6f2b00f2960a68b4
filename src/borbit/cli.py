"""Command-line interface.

Subcommands:
  enumerate   list all labels with dimensions, tableaux and link patterns
  order A B   closure-order test with a Bruhat witness
  hasse       Hasse diagram as DOT or JSON, singular nodes flagged
  tangent L   per-root tangent table and bounds for one label
  smooth      smoothness verdict sweep over all labels
  verify      run the self-check suites; nonzero exit on failure
  springer    orbital varieties and component counts
  blueprint   flag-chain blueprint for a label and reduced word

Labels are written like "sigma=2,4,1,3 alpha=id" (quote the space) or with
generator words, "sigma=s1.s3.s2".  Exit codes: 0 success, 1 verification
failure, 2 bad input, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import atlas, geometry, poset, tangent
from .atlas import Context, OrbitLabel
from .perms import (
    CapExceeded,
    all_perms,
    evaluate_word,
    format_perm,
    format_word,
    identity,
    length,
    parse_perm,
    parse_word,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


@dataclass(frozen=True)
class RunConfig:
    ctx: Context
    fmt: str
    out: str | None
    cap: int
    samples: tuple[Fraction, ...]


def _parse_perm_or_word(text: str, n: int):
    text = text.strip()
    if text == "id":
        return identity(n)
    if text and (text[0] == "s" or "." in text):
        return evaluate_word(n, parse_word(text))
    return parse_perm(text, n)


def parse_label_arg(ctx: Context, text: str) -> OrbitLabel:
    """Parse 'sigma=... alpha=...' (alpha optional, defaults to id)."""
    parts = text.split()
    values = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, _, val = part.partition("=")
        if key not in ("sigma", "alpha"):
            raise ValueError(f"unknown label key {key!r}")
        values[key] = val
    if "sigma" not in values:
        raise ValueError("label needs at least sigma=...")
    sigma = _parse_perm_or_word(values["sigma"], ctx.n)
    alpha = _parse_perm_or_word(values.get("alpha", "id"), ctx.n)
    return atlas.label(ctx, sigma, alpha)


def _label_str(lbl: OrbitLabel) -> str:
    """One-line notation that ``parse_label_arg`` reads back."""
    return " ".join(f"{key}={value}" for key, value in atlas.label_fields(lbl).items())


def _singular_indices(g: poset.BruhatGraph) -> frozenset[int]:
    return frozenset(
        i
        for i, lbl in enumerate(g.labels)
        if tangent.verdict(g.ctx, lbl).status == "singular"
    )


def cmd_enumerate(cfg: RunConfig) -> tuple[int, str]:
    ctx = cfg.ctx
    rows = []
    for lbl in atlas.enumerate_labels(ctx, cfg.cap):
        t = atlas.tableau(ctx, lbl)
        rows.append(
            {
                **atlas.label_fields(lbl),
                "dim": atlas.dimension(ctx, lbl),
                "upper": atlas.is_upper_label(ctx, lbl),
                "tableau": [list(t.left), list(t.right)],
                "arcs": [list(a) for a in atlas.link_pattern(ctx, lbl).arcs],
            }
        )
    if cfg.fmt == "json":
        return EXIT_OK, json.dumps({"n": ctx.n, "k": ctx.k, "labels": rows}, indent=2) + "\n"
    lines = [f"# {len(rows)} labels for n={ctx.n} k={ctx.k}"]
    for row in rows:
        left, right = row["tableau"]
        lines.append(
            f"sigma={row['sigma']}  alpha={row['alpha']}  dim={row['dim']}  "
            f"upper={'y' if row['upper'] else 'n'}  tableau={left}|{right}  arcs={row['arcs']}"
        )
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_order(cfg: RunConfig, a: OrbitLabel, b: OrbitLabel) -> tuple[int, str]:
    witness = poset.leq_witness(cfg.ctx, a, b)
    if witness is None:
        return EXIT_OK, "false\n"
    return EXIT_OK, f"true  witness={format_perm(witness)}\n"


def cmd_hasse(cfg: RunConfig) -> tuple[int, str]:
    g = poset.hasse(cfg.ctx, cfg.cap)
    singular = _singular_indices(g)
    if cfg.fmt == "json":
        return EXIT_OK, poset.export_json(g, singular)
    return EXIT_OK, poset.export_dot(g, singular)


def _tangent_report(ctx: Context, lbl: OrbitLabel) -> str:
    lines = [f"# tangent data for {_label_str(lbl)}  (n={ctx.n} k={ctx.k})"]
    table = tangent.t_k_table(ctx, lbl)
    for rt, in_tk, kept, witness in table:
        status = "in " if in_tk else "out"
        phi_n = "yes" if kept else "no "
        wit = format_perm(witness) if witness is not None else "-"
        lines.append(
            f"  ({rt.i},{rt.j})  {rt.family:<13} phi_n={phi_n} t_k={status}  witness={wit}"
        )
    count = sum(1 for _, in_tk, _, _ in table if in_tk)
    bound = atlas.dim_y0(ctx) + count
    lines.append(f"  |t_k| = {count} of {len(table)} roots")
    lines.append(f"  tangent lower bound = {bound}")
    lines.append(f"  dimension = {atlas.dimension(ctx, lbl)}")
    if atlas.is_upper_label(ctx, lbl):
        lines.append(f"  tangent dimension (upper label) = {bound}")
    lines.append(f"  bracket-closure span = {tangent.bk_span(ctx, lbl)}")
    return "\n".join(lines) + "\n"


def cmd_smooth(cfg: RunConfig) -> tuple[int, str]:
    labels = atlas.enumerate_labels(cfg.ctx, cfg.cap)
    if cfg.fmt == "json":
        rows = [tangent.verdict_json(cfg.ctx, lbl) for lbl in labels]
        return EXIT_OK, json.dumps(rows, indent=2) + "\n"
    lines = [f"# verdicts for n={cfg.ctx.n} k={cfg.ctx.k}"]
    counts = dict.fromkeys(("smooth", "singular", "unknown"), 0)
    for lbl in labels:
        v = tangent.verdict(cfg.ctx, lbl)
        lines.append(
            f"  {_label_str(lbl)}  dim={atlas.dimension(cfg.ctx, lbl)}  "
            f"verdict={v.status:<8} rule={v.rule or '-':<2} witness={v.witness}"
        )
        counts[v.status] += 1
    lines.append("# totals: " + " ".join(f"{status}={count}" for status, count in counts.items()))
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_springer(cfg: RunConfig) -> tuple[int, str]:
    ctx = cfg.ctx
    labels = atlas.enumerate_labels(ctx, cfg.cap)
    orbital = [lbl for lbl in labels if atlas.is_orbital_variety(ctx, lbl)]
    lines = [f"# orbital varieties for n={ctx.n} k={ctx.k}"]
    for lbl in orbital:
        v = tangent.verdict(ctx, lbl)
        t = atlas.tableau(ctx, lbl)
        lines.append(
            f"  {_label_str(lbl)}  tableau={list(t.left)}|{list(t.right)}  verdict={v.status}"
        )
    lines.append(f"# count = {len(orbital)}")
    lines.append(f"# standard tableaux (hook formula) = {atlas.count_standard_tableaux(ctx)}")
    lines.append(f"# springer component dimension = {atlas.springer_component_dim(ctx)}")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_blueprint(cfg: RunConfig, lbl: OrbitLabel, word: tuple[int, ...]) -> tuple[int, str]:
    bp = geometry.resolution_blueprint(cfg.ctx, lbl, word)
    if cfg.fmt == "json":
        return EXIT_OK, geometry.blueprint_to_json(bp) + "\n"
    lines = [
        f"# blueprint for {_label_str(lbl)} via word {format_word(bp.moves)}",
        f"  flags: {len(bp.moves)}",
    ]
    standard = tuple(f"K{m}" for m in range(1, bp.n + 1))
    lines.append("  V0: " + " < ".join(standard) + "   (standard flag)")
    for s, row in enumerate(bp.flags, start=1):
        lines.append(f"  V{s}: " + " < ".join(row) + f"   (changed at {bp.moves[s - 1]})")
    lines.append("  matrix constraints:")
    for rel in bp.relations:
        lines.append(f"    {rel}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _verify_suites(cfg: RunConfig) -> tuple[int, str]:
    """Self-check suites for one context; any failure exits nonzero."""
    ctx = cfg.ctx
    lines = []
    status = EXIT_OK

    def report(name: str, ok: bool, detail: str):
        nonlocal status
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            status = EXIT_VERIFICATION

    labels = atlas.enumerate_labels(ctx, cfg.cap)

    expected = math.factorial(ctx.n) // (
        math.factorial(ctx.k) * math.factorial(ctx.n - 2 * ctx.k)
    )
    seen = set()
    coset_count = 0
    for p in all_perms(ctx.n):
        if p in seen:
            continue
        coset_count += 1
        seen.update(atlas.coset_of(ctx, p).members)
    report(
        "label-count",
        len(labels) == expected == coset_count,
        f"{len(labels)} labels, {coset_count} cosets, formula {expected}",
    )

    ok = True
    for lbl in labels:
        coset = atlas.coset_of(ctx, atlas.label_perm(lbl))
        if atlas.label_perm(lbl) not in atlas.min_length_reps(coset):
            ok = False
        if length(atlas.label_perm(lbl)) != length(lbl.sigma) + length(lbl.alpha):
            ok = False
        if any(atlas.label_of(ctx, m) != lbl for m in coset.members):
            ok = False
    report("minimal-representatives", ok, f"{len(labels)} labels checked")

    ok = True
    for lbl in labels:
        m = atlas.rep_matrix(ctx, lbl)
        if not geometry.is_two_nilpotent_of_rank(m, ctx.k):
            ok = False
        if atlas.is_upper_label(ctx, lbl) != m.is_strictly_upper_triangular():
            ok = False
    report("representative-matrices", ok, f"{len(labels)} labels checked")

    upper = [lbl for lbl in labels if atlas.is_upper_label(ctx, lbl)]
    invol = atlas.count_involutions(ctx.n, ctx.k)
    images = {atlas.involution_tau(ctx, lbl) for lbl in upper}
    report(
        "involution-bijection",
        len(upper) == invol == len(images),
        f"{len(upper)} upper labels, {invol} involutions",
    )

    hook = atlas.count_standard_tableaux(ctx)
    brute = atlas.count_standard_tableaux_bruteforce(ctx)
    orbital = [lbl for lbl in labels if atlas.is_orbital_variety(ctx, lbl)]
    report(
        "orbital-varieties",
        hook == brute == len(orbital),
        f"{len(orbital)} components, hook {hook}, direct {brute}",
    )

    g = poset.hasse(ctx, cfg.cap)
    generated = [{j} for j in range(len(labels))]  # the order the covers generate
    for i, j in sorted(g.covers, key=lambda cover: g.dims[cover[1]]):
        generated[j] |= generated[i]
    ok = all(
        poset.leq_oracle(ctx, a, b) == poset.leq(ctx, a, b) == (i in generated[j])
        for i, a in enumerate(labels)
        for j, b in enumerate(labels)
    )
    report("closure-order-oracle", ok, f"{len(labels)}^2 ordered pairs")

    bad = 0
    for rt in tangent.phi_plus(ctx):
        if not geometry.verify_curve(ctx, rt, cfg.samples).ok:
            bad += 1
    report(
        "curves",
        bad == 0,
        f"{len(tangent.phi_plus(ctx))} roots x {len(cfg.samples)} samples",
    )

    stack_rank = geometry.tangent_stack_rank(ctx)
    report(
        "tangent-span",
        geometry.tangent_independence(ctx),
        f"rank {stack_rank}, orbit dimension {atlas.dim_orbit(ctx)}",
    )

    try:
        poset.minimum(g), poset.maximum(g)
        ok = all(g.dims[i] < g.dims[j] for i, j in g.covers)
    except ValueError:
        ok = False
    ok = ok and {(i, j) for i, j, _ in g.weak} <= set(g.covers)
    report("hasse", ok, f"{len(g.covers)} covers, {len(g.weak)} weak edges")

    statuses = {lbl: tangent.verdict(ctx, lbl).status for lbl in labels}
    singular_orbital = [lbl for lbl in orbital if statuses[lbl] == "singular"]
    report(
        "verdicts",
        all(status in ("smooth", "singular", "unknown") for status in statuses.values()),
        f"{len(singular_orbital)} singular orbital varieties",
    )
    for lbl in singular_orbital:
        lines.append(_tangent_report(ctx, lbl).rstrip("\n"))

    return status, "\n".join(lines) + "\n"


#: Subcommand name -> (positional arguments, handler of the run
#: configuration and the parsed arguments).
COMMANDS = {
    "enumerate": ((), lambda cfg, args: cmd_enumerate(cfg)),
    "order": (
        ("a", "b"),
        lambda cfg, args: cmd_order(
            cfg, parse_label_arg(cfg.ctx, args.a), parse_label_arg(cfg.ctx, args.b)
        ),
    ),
    "hasse": ((), lambda cfg, args: cmd_hasse(cfg)),
    "tangent": (
        ("label",),
        lambda cfg, args: (EXIT_OK, _tangent_report(cfg.ctx, parse_label_arg(cfg.ctx, args.label))),
    ),
    "smooth": ((), lambda cfg, args: cmd_smooth(cfg)),
    "verify": ((), lambda cfg, args: _verify_suites(cfg)),
    "springer": ((), lambda cfg, args: cmd_springer(cfg)),
    "blueprint": (
        ("label", "word"),
        lambda cfg, args: cmd_blueprint(
            cfg, parse_label_arg(cfg.ctx, args.label), parse_word(args.word)
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borbit",
        description="Borel orbits of 2-nilpotent matrices: labels, order, tangents.",
    )
    parser.add_argument("--n", type=int, required=True, help="matrix size")
    parser.add_argument("--k", type=int, required=True, help="orbit rank")
    parser.add_argument(
        "--format", choices=("table", "dot", "json"), default=None, dest="fmt"
    )
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument(
        "--cap", type=int, default=atlas.ENUMERATION_CAP, help="enumeration size cap"
    )
    parser.add_argument(
        "--samples",
        default="1,-1,2,1/3",
        help="comma-separated rational curve samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (positionals, _) in COMMANDS.items():
        command = sub.add_parser(name)
        for arg in positionals:
            command.add_argument(arg)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ctx = Context(args.n, args.k)
        samples = tuple(
            Fraction(part) for part in str(args.samples).split(",") if part
        )
        default_fmt = "dot" if args.command == "hasse" else "table"
        cfg = RunConfig(
            ctx=ctx,
            fmt=args.fmt or default_fmt,
            out=args.out,
            cap=args.cap,
            samples=samples,
        )
        _, handler = COMMANDS[args.command]
        code, text = handler(cfg, args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    if cfg.out is not None:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
