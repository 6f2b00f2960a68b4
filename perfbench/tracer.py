"""Run one ``borbit`` CLI command with its public layer functions wrapped.

    python3 perfbench/tracer.py TRACE_OUT CLI_ARG...

Every wrapped call is a span whose parent is the innermost wrapped call
still open.  Spans are folded into per-function totals as they close (a
single ``hasse`` can make millions of ``perms.length`` calls, too many to
keep): calls, self time (duration minus the time of child spans), counts of
parent-child pairs, and counters read from arguments and results.  The
totals are written as JSON to TRACE_OUT when the command ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = {
    "perms": ("length", "bruhat_leq", "lower_interval"),
    "atlas": ("coset_of", "enumerate_labels"),
    "poset": ("leq_witness", "leq_oracle", "hasse", "weak_edges"),
    "tangent": ("t_k_set", "verdict", "bk_span"),
    "geometry": ("verify_curve", "tangent_stack_rank"),
    "cli": ("main",),
}
METHODS = {"ratmat.mul": "__mul__", "ratmat.rank": "rank"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.pairs = Counter()
        self.counts = Counter()
        self.open = Counter()
        self.verdict_labels = set()
        self.stack = []  # per open span: [name, time covered by child spans]

    def wrap(self, name: str, fn):
        stack, calls, self_s, pairs, opened = self.stack, self.calls, self.self_s, self.pairs, self.open
        observe = getattr(self, "observe_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0]
            pairs[(stack[-1][0] if stack else "", name)] += 1
            stack.append(span)
            opened[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                opened[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - span[1]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def observe_atlas_coset_of(self, args, result):
        self.counts["atlas.coset_of.members"] += len(result.members)

    def observe_tangent_verdict(self, args, result):
        self.verdict_labels.add(tuple(args))
        self.counts[f"tangent.verdict.rule.{result.rule or 'unknown'}"] += 1

    def observe_tangent_bk_span(self, args, result):
        self.counts["tangent.bk_span.rank_sum"] += result

    def observe_ratmat_mul(self, args, result):
        if self.open["tangent.bk_span"]:
            self.counts["ratmat.mul.under_bk_span"] += 1

    def observe_cli_main(self, args, result):
        if result != 0:
            self.counts["cli.main.failed"] += 1

    def install(self) -> None:
        """Replace each wrapped function in every ``borbit`` module that holds
        it, since ``from .poset import leq`` copies the binding.  A function
        the program no longer has is skipped and reports zero calls."""
        replace = {}
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"borbit.{module}")
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    replace[id(fn)] = (fn, self.wrap(f"{module}.{fn_name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "borbit" or mod_name.startswith("borbit.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = replace.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
        matrix = importlib.import_module("borbit.ratmat").RationalMatrix
        for name, method in METHODS.items():
            if hasattr(matrix, method):
                setattr(matrix, method, self.wrap(name, getattr(matrix, method)))

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "pairs": {f"{p}>{c}": v for (p, c), v in self.pairs.items()},
            "counts": dict(self.counts),
            "verdict_labels": len(self.verdict_labels),
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("borbit.cli")
    try:
        return cli.main(cli_args)
    except SystemExit as exc:
        tracer.counts["cli.main.failed"] += 1
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
