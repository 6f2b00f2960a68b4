"""Write ``reference.json``: the expected answers for the fixed contexts of
the ``closure`` and ``verdicts`` workloads.

The Hasse covers come from ``poset.leq_oracle`` (subword enumeration) on
every ordered pair and are required to agree with the parabolic oracle in
``oracle.py`` and with ``poset.hasse``.  Dimensions and the rank-one
singular flags come from ``oracle.py``.  Weak edges and verdicts have no
independent oracle and are recorded from the library as it stands.

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

from borbit import atlas, poset, tangent

import oracle
from workloads import (
    CLOSURE_CONTEXTS, REFERENCE, VERDICT_CONTEXTS, ctx_key, dimension, fmt,
)

RANK_ONE_PATTERN = (3, 1, 4, 2)


def key(lbl) -> str:
    return f"{fmt(lbl.sigma)} {fmt(lbl.alpha)}"


def hasse_reference(n: int, k: int) -> dict:
    ctx = atlas.Context(n, k)
    labels = atlas.enumerate_labels(ctx)
    assert len(labels) == oracle.label_count(n, k)
    perms = {lbl: atlas.label_perm(lbl) for lbl in labels}
    below = {
        b: {a for a in labels if a != b and poset.leq_oracle(ctx, a, b, word_cap=n * n)}
        for b in labels
    }
    parabolic = {
        b: {a for a in labels if a != b and oracle.closure_leq(n, k, perms[a], perms[b])}
        for b in labels
    }
    assert below == parabolic, "leq_oracle and the parabolic oracle disagree"
    covers = oracle.transitive_reduction(below)
    g = poset.hasse(ctx)
    assert covers == {(g.labels[i], g.labels[j]) for i, j in g.covers}
    return {
        "nodes": {
            key(lbl): [dimension(k, lbl.sigma, lbl.alpha),
                       k == 1 and oracle.contains_pattern(lbl.sigma, RANK_ONE_PATTERN)]
            for lbl in labels
        },
        "covers": sorted(
            [key(a), key(b), not oracle.bruhat_leq_rank(a.alpha[:k], b.alpha[:k])]
            for a, b in covers
        ),
        "weak": sorted([key(a), key(b), s] for a, b, s in poset.weak_edges(ctx)),
    }


def smooth_reference(n: int, k: int) -> dict:
    ctx = atlas.Context(n, k)
    return {key(lbl): tangent.verdict(ctx, lbl).status for lbl in atlas.enumerate_labels(ctx)}


def main() -> None:
    data = {
        "hasse": {ctx_key(n, k): hasse_reference(n, k) for n, k in CLOSURE_CONTEXTS},
        "smooth": {ctx_key(n, k): smooth_reference(n, k) for n, k in VERDICT_CONTEXTS},
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
