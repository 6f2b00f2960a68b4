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
import os
import sys
from typing import NamedTuple

# ``tangent``, ``geometry`` and ``checks`` are imported inside the commands
# that run them, so that a command starts without the layers it never uses.
from . import atlas, poset
from .atlas import Context, OrbitLabel
from .perms import (
    CapExceeded,
    evaluate_word,
    format_perm,
    format_word,
    identity,
    parse_perm,
    parse_word,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


class RunConfig(NamedTuple):
    ctx: Context
    fmt: str
    out: str | None
    cap: int
    samples: str  # parsed by ``verify``, the only command that reads it


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
    from . import tangent

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
    from . import tangent

    lines = [f"# tangent data for {_label_str(lbl)}  (n={ctx.n} k={ctx.k})"]
    table = tangent.t_k_table(ctx, lbl)
    kept = set(tangent.phi_plus_restricted(ctx))
    for rt, witness in table:
        status, wit = ("out", "-") if witness is None else ("in ", format_perm(witness))
        phi_n = "yes" if rt in kept else "no "
        lines.append(
            f"  ({rt.i},{rt.j})  {rt.family:<13} phi_n={phi_n} t_k={status}  witness={wit}"
        )
    roots = tuple(rt for rt, witness in table if witness is not None)
    bound = atlas.dim_y0(ctx) + len(roots)
    lines.append(f"  |t_k| = {len(roots)} of {len(table)} roots")
    lines.append(f"  tangent lower bound = {bound}")
    lines.append(f"  dimension = {atlas.dimension(ctx, lbl)}")
    if atlas.is_upper_label(ctx, lbl):
        lines.append(f"  tangent dimension (upper label) = {bound}")
    lines.append(f"  bracket-closure span = {tangent.bracket_span(ctx, roots)}")
    return "\n".join(lines) + "\n"


def cmd_smooth(cfg: RunConfig) -> tuple[int, str]:
    from . import tangent

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
    from . import tangent

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
    from . import geometry

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


def cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    """Self-check suites for one context; any failure exits nonzero."""
    from fractions import Fraction

    from . import checks

    samples = tuple(Fraction(part) for part in cfg.samples.split(",") if part)
    if not any(samples):
        raise ValueError(f"--samples needs a nonzero value: got {cfg.samples!r}")
    suites, singular_orbital = checks.run_suites(cfg.ctx, cfg.cap, samples)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in suites]
    lines += [_tangent_report(cfg.ctx, lbl).rstrip("\n") for lbl in singular_orbital]
    status = EXIT_OK if all(ok for _, ok, _ in suites) else EXIT_VERIFICATION
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
    "verify": ((), lambda cfg, args: cmd_verify(cfg)),
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
        default_fmt = "dot" if args.command == "hasse" else "table"
        cfg = RunConfig(
            ctx=ctx,
            fmt=args.fmt or default_fmt,
            out=args.out,
            cap=args.cap,
            samples=args.samples,
        )
        if cfg.out is not None and not os.path.isdir(os.path.dirname(cfg.out) or "."):
            raise ValueError(f"cannot write {cfg.out}: no such directory")
        _, handler = COMMANDS[args.command]
        code, text = handler(cfg, args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    if cfg.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
