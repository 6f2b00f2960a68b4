"""Closure order on labelled orbits, its Hasse diagram, and graph exports.

One orbit closure contains another exactly when some member of the smaller
label's coset lies below the bigger label's product permutation in Bruhat
order.  ``leq`` implements that test with the prefix-dominance comparison;
``leq_oracle`` recomputes it independently from subword enumeration.

The Hasse graph carries the covers of the closure order, a flag marking
covers along which the ``alpha`` part fails to be Bruhat-monotone, and the
one-step edges generated by multiplying minimal coset representatives by a
single simple transposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .atlas import (
    Context,
    ENUMERATION_CAP,
    OrbitLabel,
    coset_of,
    coset_reps,
    dimension,
    enumerate_labels,
    label,
    label_of,
    label_perm,
)
from .perms import (
    WORD_LENGTH_CAP,
    Perm,
    bruhat_leq,
    compose,
    format_perm,
    length,
    lower_interval,
    parse_perm,
    simple,
)


def leq(ctx: Context, a: OrbitLabel, b: OrbitLabel) -> bool:
    """Closure order: is the orbit of ``a`` contained in the closure of ``b``?"""
    return leq_witness(ctx, a, b) is not None


def leq_witness(ctx: Context, a: OrbitLabel, b: OrbitLabel) -> Perm | None:
    """The lexicographically first member of ``a``'s coset lying below
    ``label_perm(b)``, or None; only the k! middle-sorted members are tried.

    Proof that they suffice.  Permuting the middle positions
    ``k+1..n-k`` is the standard parabolic subgroup ``W_J`` with
    ``J = {s_(k+1), ..., s_(n-k-1)}``, which lies in ``H``, so every coset
    member ``m`` has ``m W_J`` inside the coset.  Sorting the middle of
    ``m`` gives the minimal element of ``m W_J``, which is below ``m`` in
    Bruhat order and also lexicographically (it agrees with ``m`` before
    the middle and is the least arrangement of the middle values).  Hence
    some member lies below the target iff a middle-sorted one does, and
    the lexicographically first such member is itself middle-sorted:
    scanning ``coset_reps`` in order finds the witness the full coset
    would.
    """
    target = label_perm(b)
    for member in coset_reps(ctx, label_perm(a)):
        if bruhat_leq(member, target):
            return member
    return None


def leq_oracle(
    ctx: Context, a: OrbitLabel, b: OrbitLabel, word_cap: int = WORD_LENGTH_CAP
) -> bool:
    """Independent closure-order test via subword enumeration.

    Enumerates the full lower Bruhat interval of ``label_perm(b)`` and
    intersects it with the coset of ``a``.
    """
    interval = lower_interval(label_perm(b), word_cap)
    return any(m in interval for m in coset_of(ctx, label_perm(a)).members)


@dataclass(frozen=True)
class BruhatGraph:
    ctx: Context
    labels: tuple[OrbitLabel, ...]
    dims: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    alpha_descents: frozenset[tuple[int, int]]
    weak: tuple[tuple[int, int, int], ...]


def _alpha_prefix(ctx: Context, lbl: OrbitLabel) -> Perm:
    return lbl.alpha[: ctx.k]


def weak_edges(
    ctx: Context, cap: int = ENUMERATION_CAP
) -> tuple[tuple[OrbitLabel, OrbitLabel, int], ...]:
    """One-step edges: left-multiply a minimal coset member by a simple
    transposition and land in a coset of minimal length one higher.

    Every minimal member is middle-sorted (sorting the middle removes
    inversions), so the shortest ``coset_reps`` are all of them.  The label
    product is one of them, so its length is the coset's minimum: the
    inversions between blocks depend only on the coset, and two pairs add
    one inversion to the outer blocks if their first- and last-block values
    are ordered oppositely, else none or two; ordering the pairs by
    last-block value, as the label product does, attains one and none.
    """
    edges = set()
    for lbl in enumerate_labels(ctx, cap):
        product = label_perm(lbl)
        base_len = length(product)
        for member in coset_reps(ctx, product):
            if length(member) != base_len:
                continue
            for i in range(1, ctx.n):
                lifted = compose(simple(ctx.n, i), member)
                if length(lifted) != base_len + 1:
                    continue
                target = label_of(ctx, lifted)
                if target != lbl and length(label_perm(target)) == base_len + 1:
                    edges.add((lbl, target, i))
    return tuple(sorted(edges, key=lambda e: (e[0].sigma, e[0].alpha, e[1].sigma, e[1].alpha, e[2])))


@lru_cache(maxsize=None)
def hasse(ctx: Context, cap: int = ENUMERATION_CAP) -> BruhatGraph:
    """Hasse diagram of the closure order on all labels of the context."""
    labels = enumerate_labels(ctx, cap)
    dims = tuple(dimension(ctx, lbl) for lbl in labels)
    count = len(labels)

    below = [set() for _ in range(count)]  # strictly-below index sets
    for i in range(count):
        for j in range(count):
            if i != j and leq(ctx, labels[i], labels[j]):
                below[j].add(i)

    covers = []
    for j in range(count):
        for i in below[j]:
            if not any(i in below[c] for c in below[j]):
                covers.append((i, j))
    covers.sort()

    descents = frozenset(
        (i, j)
        for (i, j) in covers
        if not bruhat_leq(_alpha_prefix(ctx, labels[i]), _alpha_prefix(ctx, labels[j]))
    )

    index = {lbl: pos for pos, lbl in enumerate(labels)}
    weak = tuple(
        (index[a], index[b], s) for (a, b, s) in weak_edges(ctx, cap)
    )
    return BruhatGraph(ctx, labels, dims, tuple(covers), descents, weak)


def minimum(g: BruhatGraph) -> int:
    """Index of the unique minimal node (the base orbit)."""
    targets = {j for (_, j) in g.covers}
    (root,) = [i for i in range(len(g.labels)) if i not in targets]
    return root


def maximum(g: BruhatGraph) -> int:
    """Index of the unique maximal node (the dense orbit)."""
    sources = {i for (i, _) in g.covers}
    (top,) = [j for j in range(len(g.labels)) if j not in sources]
    return top


def export_dot(g: BruhatGraph, singular: frozenset[int] | set[int] = frozenset()) -> str:
    """Graphviz text: nodes ranked by dimension, dashed alpha-descent covers,
    singular nodes drawn red."""
    lines = [
        "digraph closure_order {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for i, lbl in enumerate(g.labels):
        text = f"{format_perm(label_perm(lbl))} | dim {g.dims[i]}"
        attrs = [f'label="{text}"']
        if i in singular:
            attrs.append("color=red")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for d in sorted(set(g.dims)):
        same = " ".join(f"n{i};" for i, dd in enumerate(g.dims) if dd == d)
        lines.append(f"  {{ rank=same; {same} }}")
    for (i, j) in g.covers:
        style = " [style=dashed]" if (i, j) in g.alpha_descents else ""
        lines.append(f"  n{i} -> n{j}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: BruhatGraph, singular: frozenset[int] | set[int] = frozenset()) -> str:
    data = {
        "n": g.ctx.n,
        "k": g.ctx.k,
        "nodes": [
            {
                "id": i,
                "sigma": format_perm(lbl.sigma),
                "alpha": format_perm(lbl.alpha),
                "dim": g.dims[i],
                "singular": i in singular,
            }
            for i, lbl in enumerate(g.labels)
        ],
        "covers": [
            [i, j, {"alpha_descent": (i, j) in g.alpha_descents}]
            for (i, j) in g.covers
        ],
        "weak": [list(edge) for edge in g.weak],
    }
    return json.dumps(data, indent=2) + "\n"


def graph_from_json(text: str) -> tuple[BruhatGraph, frozenset[int]]:
    """Rebuild a graph (and its singular-node set) from ``export_json`` text."""
    data = json.loads(text)
    ctx = Context(int(data["n"]), int(data["k"]))
    labels = tuple(
        label(ctx, parse_perm(node["sigma"], ctx.n), parse_perm(node["alpha"], ctx.n))
        for node in sorted(data["nodes"], key=lambda d: d["id"])
    )
    dims = tuple(int(node["dim"]) for node in sorted(data["nodes"], key=lambda d: d["id"]))
    covers = tuple((int(i), int(j)) for i, j, _ in data["covers"])
    descents = frozenset(
        (int(i), int(j)) for i, j, attrs in data["covers"] if attrs["alpha_descent"]
    )
    weak = tuple((int(i), int(j), int(s)) for i, j, s in data["weak"])
    singular = frozenset(
        int(node["id"]) for node in data["nodes"] if node["singular"]
    )
    return BruhatGraph(ctx, labels, dims, covers, descents, weak), singular
