"""The ``hasse`` command's text: the Hasse diagram of ``poset.hasse`` as
streamed DOT and JSON, and the reader of that JSON.  ``order`` never
writes a diagram, so it loads none of this.
"""

from __future__ import annotations

from typing import Iterator

from .atlas import Context, label_fields, label_from_fields, label_perm
from .perms import format_perm
from .poset import BruhatGraph


def export_dot(g: BruhatGraph, singular: frozenset[int] | set[int] = frozenset()) -> Iterator[str]:
    """Graphviz text, a line at a time: nodes ranked by dimension, dashed
    alpha-descent covers, singular nodes drawn red."""
    yield 'digraph closure_order {\n  rankdir=BT;\n  node [shape=box, fontname="monospace"];\n'
    for i, lbl in enumerate(g.labels):
        red = ", color=red" if i in singular else ""
        yield f'  n{i} [label="{format_perm(label_perm(lbl))} | dim {g.dims[i]}"{red}];\n'
    for d in sorted(set(g.dims)):
        yield f"  {{ rank=same; {' '.join(f'n{i};' for i, dd in enumerate(g.dims) if dd == d)} }}\n"
    for i, j in g.covers:
        yield f"  n{i} -> n{j}{' [style=dashed]' if (i, j) in g.alpha_descents else ''};\n"
    yield "}\n"


def export_json(g: BruhatGraph, singular: frozenset[int] | set[int] = frozenset()) -> Iterator[str]:
    """The text of ``json.dumps(document, indent=2) + "\\n"``, an item at a
    time, for the document that ``graph_from_json`` reads.  Every value is
    an integer, a boolean or digits and commas, so nothing needs escaping."""
    flag = ("false", "true")
    node = (
        '    {{\n      "id": {},\n      "sigma": "{sigma}",\n      "alpha": "{alpha}",\n'
        '      "dim": {},\n      "singular": {}\n    }}'
    )
    cover = '    [\n      {},\n      {},\n      {{\n        "alpha_descent": {}\n      }}\n    ]'
    arrays = {
        "nodes": (
            node.format(i, g.dims[i], flag[i in singular], **label_fields(lbl))
            for i, lbl in enumerate(g.labels)
        ),
        "covers": (cover.format(i, j, flag[(i, j) in g.alpha_descents]) for i, j in g.covers),
        "weak": (f"    [\n      {a},\n      {b},\n      {s}\n    ]" for a, b, s in g.weak),
    }
    yield f'{{\n  "n": {g.ctx.n},\n  "k": {g.ctx.k}'
    for key, items in arrays.items():
        head = f',\n  "{key}": [\n'
        for item in items:
            yield head + item
            head = ",\n"
        yield "\n  ]" if head == ",\n" else f',\n  "{key}": []'
    yield "\n}\n"


def graph_from_json(text: str) -> tuple[BruhatGraph, frozenset[int]]:
    """Rebuild a graph (and its singular-node set) from ``export_json`` text."""
    import json

    data = json.loads(text)
    ctx = Context(int(data["n"]), int(data["k"]))
    nodes = sorted(data["nodes"], key=lambda node: node["id"])
    labels = tuple(label_from_fields(ctx, node) for node in nodes)
    dims = tuple(int(node["dim"]) for node in nodes)
    covers = tuple((int(i), int(j)) for i, j, _ in data["covers"])
    descents = frozenset(
        (int(i), int(j)) for i, j, attrs in data["covers"] if attrs["alpha_descent"]
    )
    weak = tuple((int(i), int(j), int(s)) for i, j, s in data["weak"])
    singular = frozenset(
        int(node["id"]) for node in data["nodes"] if node["singular"]
    )
    return BruhatGraph(ctx, labels, dims, covers, descents, weak), singular
