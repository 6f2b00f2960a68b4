"""Command-line interface.

Options take one value each, as --name VALUE or --name=VALUE, before or
after the command; the last of repeated values wins:
  --n N           matrix size (required)
  --k K           orbit rank (required)
  --format F      table, dot or json; each command writes its first by default
  --out FILE      write the output to FILE instead of stdout
  --cap C         largest n a sweep runs at (default 8)

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
failure, 2 bad input, 3 a sweep refused: n > --cap, too many labels, or a
verify over its own budget.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from math import factorial
from types import SimpleNamespace

# Every command but ``order`` renders its text in the layer it runs
# (``springer``, ``tangent``, ``poset``, ``diagram``, ``geometry``, ``checks``),
# imported inside the command, so that a command starts without the layers it
# never uses.
from . import atlas
from .atlas import Context, OrbitLabel
from .perms import CapExceeded, evaluate_word, format_perm, parse_perm, parse_word

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3

#: A sweep needs n <= --cap (default ENUMERATION_CAP), and its labels times n (a label
#: costs more as n grows) at most SWEEP_BUDGET, the value at (12,5), known to finish.
ENUMERATION_CAP = 8
SWEEP_BUDGET = 1_995_840 * 12
#: ``verify`` also sweeps S_n and tests every ordered pair of labels: it needs
#: n <= VERIFY_MAX_N, the largest n at which it was run to the end for every k.
VERIFY_MAX_N = 9
#: What ``main`` registers with ``atexit``, at its first call (not at import) and so once per
#: process: ``gc.freeze`` spares the final collection the heap, which holds no cycles.
_EXIT_HOOKS = [gc.freeze]


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


def cmd_enumerate(ctx: Context, args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    from . import springer

    rows = springer.label_rows(ctx)
    if args.fmt == "json":
        return EXIT_OK, [_json({"n": ctx.n, "k": ctx.k, "labels": rows})]
    return EXIT_OK, [springer.label_table(ctx, rows)]


def cmd_order(ctx: Context, args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    a, b = parse_label_arg(ctx, args.a), parse_label_arg(ctx, args.b)
    witness = atlas.leq_witness(ctx, a, b)
    if witness is None:
        return EXIT_OK, ["false\n"]
    return EXIT_OK, [f"true  witness={format_perm(witness)}\n"]


def cmd_hasse(ctx: Context, args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    from . import diagram, poset

    sweep = enumerate(poset.verdicts(ctx, poset.cover_table(ctx)))
    singular = frozenset(b for b, v in sweep if v.status == "singular")
    export = diagram.export_json if args.fmt == "json" else diagram.export_dot
    return EXIT_OK, export(poset.hasse(ctx), singular)


def cmd_tangent(ctx: Context, args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    from . import tangent

    return EXIT_OK, [tangent.report(ctx, parse_label_arg(ctx, args.label))]


def cmd_smooth(ctx: Context, args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    from . import poset, tangent

    table = poset.cover_table(ctx)
    if args.fmt == "json":
        sweep = zip(table.labels, poset.verdicts(ctx, table))
        return EXIT_OK, [_json([tangent.verdict_json(ctx, lbl, v) for lbl, v in sweep])]
    return EXIT_OK, poset.smooth_table(ctx, table)


def cmd_springer(ctx: Context, args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    from . import springer

    return EXIT_OK, [springer.report(ctx)]


def cmd_blueprint(ctx: Context, args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    from . import geometry

    lbl = parse_label_arg(ctx, args.label)
    bp = geometry.resolution_blueprint(ctx, lbl, parse_word(args.word))
    if args.fmt == "json":
        return EXIT_OK, [_json(geometry.blueprint_json(ctx, bp))]
    return EXIT_OK, [geometry.blueprint_text(ctx, lbl, bp)]


def cmd_verify(ctx: Context, args: SimpleNamespace) -> tuple[int, Iterable[str]]:
    """Self-check suites for one context; any failure exits nonzero."""
    from . import checks

    ok, text = checks.report(ctx)
    return EXIT_OK if ok else EXIT_VERIFICATION, [text]


#: Subcommand name -> (positional arguments, the formats it writes with the
#: default first, handler of the context and the parsed arguments).  One with
#: no positionals sweeps every label, so ``main`` holds it to the sweep limits.
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


USAGE = (
    "usage: borbit --n N --k K [--format table|dot|json] [--out FILE] [--cap C]"
    " <command> [args]"
)

#: Option -> (attribute, type, default).
OPTIONS = {
    "--n": ("n", int, None),
    "--k": ("k", int, None),
    "--format": ("fmt", str, None),
    "--out": ("out", str, None),
    "--cap": ("cap", int, ENUMERATION_CAP),
}


class UsageError(ValueError):
    """An argv outside the grammar; ``main`` writes the usage line first."""


def parse_argv(argv: list[str]) -> SimpleNamespace | None:
    """The options, the command and its positionals, or None for ``-h``.

    A token that starts with ``-`` is an option wherever it stands: labels
    and words never do.  An option's value is the next token unless it is
    attached with ``=``; a next token that starts with ``--`` is not taken
    as a value.
    """
    values = {attr: default for attr, _, default in OPTIONS.values()}
    words = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-"):
            words.append(token)
            continue
        name, attached, value = token.partition("=")
        if name not in OPTIONS:
            raise UsageError(f"unknown option {name}")
        if not attached:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{name} expects a value")
        attr, kind, _ = OPTIONS[name]
        try:
            values[attr] = kind(value)
        except ValueError:
            raise UsageError(f"{name}: not an integer: {value!r}") from None
    missing = [f"--{attr}" for attr in ("n", "k") if values[attr] is None]
    if missing:
        raise UsageError(f"{' and '.join(missing)} required")
    if not words or words[0] not in COMMANDS:
        got = f"unknown command {words[0]!r}" if words else "no command"
        raise UsageError(f"{got}; choose from {', '.join(COMMANDS)}")
    command, *given = words
    positionals = COMMANDS[command][0]
    if len(given) != len(positionals):
        wanted = " ".join(name.upper() for name in positionals) or "no arguments"
        raise UsageError(f"{command} takes {wanted}, got {len(given)} argument(s)")
    return SimpleNamespace(command=command, **values, **dict(zip(positionals, given)))


def write(handle, chunks: Iterable[str]) -> None:
    """Write ``chunks`` as they arrive, joined into writes of at least 64 KB
    but the last: unbuffered, each write is a system call."""
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= 1 << 16:
            handle.write("".join(batch))
            batch, size = [], 0
    handle.write("".join(batch))


def main(argv: list[str] | None = None) -> int:
    # borbit's data holds no reference cycles, so a collection frees nothing: the command runs
    # with the collector off, and the heap is frozen at exit (before earlier exit callbacks).
    enabled = gc.isenabled()
    gc.disable()
    while _EXIT_HOOKS:
        atexit.register(_EXIT_HOOKS.pop())
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(f"{USAGE}\n\n{__doc__}")
            return EXIT_OK
        positionals, formats, handler = COMMANDS[args.command]
        if args.fmt is None:
            args.fmt = formats[0]
        elif args.fmt not in formats:
            raise ValueError(f"--format {args.fmt}: {args.command} writes only {', '.join(formats)}")
        ctx = Context(args.n, args.k)
        if args.out is not None and os.path.isdir(args.out):
            raise ValueError(f"cannot write {args.out}: it is a directory")
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"cannot write {args.out}: no such directory")
        labels = factorial(ctx.n) // (factorial(ctx.k) * factorial(ctx.n - 2 * ctx.k))
        if not positionals and ctx.n > args.cap:
            raise CapExceeded(f"enumeration needs n <= {args.cap}, got n={ctx.n}")
        if not positionals and labels * ctx.n > SWEEP_BUDGET:
            raise CapExceeded(f"{labels} labels times n={ctx.n} exceed the budget {SWEEP_BUDGET}")
        if args.command == "verify" and ctx.n > VERIFY_MAX_N:
            raise CapExceeded(f"verify needs n <= {VERIFY_MAX_N}, got n={ctx.n}")
        code, chunks = handler(ctx, args)
        sink = nullcontext(sys.stdout) if args.out is None else open(args.out, "w", encoding="utf-8")
        with sink as handle:
            write(handle, chunks)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        if isinstance(exc, UsageError):
            print(USAGE, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        if enabled:
            gc.enable()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
