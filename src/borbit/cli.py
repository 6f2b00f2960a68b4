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
import os
import sys

# Every command but ``order`` and ``hasse`` renders its text in the layer it
# runs (``springer``, ``tangent``, ``geometry``, ``checks``), imported inside
# the command, so that a command starts without the layers it never uses.
from . import atlas, poset
from .atlas import Context, OrbitLabel
from .perms import CapExceeded, evaluate_word, format_perm, parse_perm, parse_word

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


def _parse_perm_or_word(text: str, n: int):
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
        if key in values:
            raise ValueError(f"repeated label key {key!r}")
        values[key] = val
    if "sigma" not in values:
        raise ValueError("label needs at least sigma=...")
    sigma = _parse_perm_or_word(values["sigma"], ctx.n)
    alpha = _parse_perm_or_word(values.get("alpha", "id"), ctx.n)
    return atlas.label(ctx, sigma, alpha)


def _json(data) -> str:
    import json  # only JSON output loads it

    return json.dumps(data, indent=2) + "\n"


def cmd_enumerate(ctx: Context, args: argparse.Namespace) -> tuple[int, str]:
    from . import springer

    rows = springer.label_rows(ctx, args.cap)
    if args.fmt == "json":
        return EXIT_OK, _json({"n": ctx.n, "k": ctx.k, "labels": rows})
    return EXIT_OK, springer.label_table(ctx, rows)


def cmd_order(ctx: Context, args: argparse.Namespace) -> tuple[int, str]:
    a, b = parse_label_arg(ctx, args.a), parse_label_arg(ctx, args.b)
    witness = poset.leq_witness(ctx, a, b)
    if witness is None:
        return EXIT_OK, "false\n"
    return EXIT_OK, f"true  witness={format_perm(witness)}\n"


def cmd_hasse(ctx: Context, args: argparse.Namespace) -> tuple[int, str]:
    from . import tangent

    g = poset.hasse(ctx, args.cap)
    singular = frozenset(
        i for i, lbl in enumerate(g.labels) if tangent.verdict(ctx, lbl).status == "singular"
    )
    export = poset.export_json if args.fmt == "json" else poset.export_dot
    return EXIT_OK, export(g, singular)


def cmd_tangent(ctx: Context, args: argparse.Namespace) -> tuple[int, str]:
    from . import tangent

    return EXIT_OK, tangent.report(ctx, parse_label_arg(ctx, args.label))


def cmd_smooth(ctx: Context, args: argparse.Namespace) -> tuple[int, str]:
    from . import tangent

    labels = atlas.enumerate_labels(ctx, args.cap)
    if args.fmt == "json":
        return EXIT_OK, _json([tangent.verdict_json(ctx, lbl) for lbl in labels])
    return EXIT_OK, tangent.smooth_table(ctx, labels)


def cmd_springer(ctx: Context, args: argparse.Namespace) -> tuple[int, str]:
    from . import springer

    return EXIT_OK, springer.report(ctx, args.cap)


def cmd_blueprint(ctx: Context, args: argparse.Namespace) -> tuple[int, str]:
    from . import geometry

    lbl = parse_label_arg(ctx, args.label)
    bp = geometry.resolution_blueprint(ctx, lbl, parse_word(args.word))
    if args.fmt == "json":
        return EXIT_OK, geometry.blueprint_to_json(bp) + "\n"
    return EXIT_OK, geometry.blueprint_text(lbl, bp)


def cmd_verify(ctx: Context, args: argparse.Namespace) -> tuple[int, str]:
    """Self-check suites for one context; any failure exits nonzero."""
    from . import checks

    ok, text = checks.report(ctx, args.cap, args.samples)
    return EXIT_OK if ok else EXIT_VERIFICATION, text


#: Subcommand name -> (positional arguments, the formats it writes with the
#: default first, handler of the context and the parsed arguments).
COMMANDS = {
    "enumerate": ((), ("table", "json"), cmd_enumerate),
    "order": (("a", "b"), ("table",), cmd_order),
    "hasse": ((), ("dot", "json"), cmd_hasse),
    "tangent": (("label",), ("table",), cmd_tangent),
    "smooth": ((), ("table", "json"), cmd_smooth),
    "verify": ((), ("table",), cmd_verify),
    "springer": ((), ("table",), cmd_springer),
    "blueprint": (("label", "word"), ("table", "json"), cmd_blueprint),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borbit",
        description="Borel orbits of 2-nilpotent matrices: labels, order, tangents.",
    )
    parser.add_argument("--n", type=int, required=True, help="matrix size")
    parser.add_argument("--k", type=int, required=True, help="orbit rank")
    parser.add_argument("--format", choices=("table", "dot", "json"), default=None, dest="fmt")
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--cap", type=int, default=atlas.ENUMERATION_CAP, help="enumeration size cap")
    # parsed by ``verify``, the only command that reads it
    parser.add_argument("--samples", default=None, help="comma-separated rational curve samples")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (positionals, _, _) in COMMANDS.items():
        command = sub.add_parser(name)
        for arg in positionals:
            command.add_argument(arg)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, formats, handler = COMMANDS[args.command]
    args.fmt = args.fmt or formats[0]
    try:
        if args.fmt not in formats:
            raise ValueError(f"--format {args.fmt}: {args.command} writes only {', '.join(formats)}")
        ctx = Context(args.n, args.k)
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"cannot write {args.out}: no such directory")
        code, text = handler(ctx, args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    if args.out is None:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    raise SystemExit(main())
