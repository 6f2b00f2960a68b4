"""Closure order on labels, Hasse diagram, weak edges, graph exports."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from borbit.atlas import (
    Context,
    coset_of,
    descend,
    dimension,
    enumerate_labels,
    label,
    label_fields,
    label_of,
    label_perm,
    leq,
    leq_witness,
    min_length_reps,
)
from borbit.diagram import export_dot, export_json
from borbit.perms import bruhat_leq, compose, format_perm, identity, left_descents, length, simple
from borbit.poset import cover_table, hasse, leq_oracle, maximum, minimum, weak_edges
from borbit.tangent import verdict

CTX42 = Context(4, 2)
SRC = Path(__file__).resolve().parent.parent / "src"


def test_leq_is_a_partial_order():
    labels = enumerate_labels(CTX42)
    base = label(CTX42, identity(4), identity(4))
    top = label(CTX42, (3, 4, 1, 2), (2, 1, 3, 4))
    for a in labels:
        assert leq(CTX42, base, a)
        assert leq(CTX42, a, top)
        assert leq(CTX42, a, a)
        for b in labels:
            if leq(CTX42, a, b) and leq(CTX42, b, a):
                assert a == b
            if leq(CTX42, a, b) and a != b:
                assert dimension(CTX42, a) < dimension(CTX42, b)


def test_leq_transitivity():
    labels = enumerate_labels(CTX42)
    rel = {
        (a, b) for a in labels for b in labels if leq(CTX42, a, b)
    }
    for a, b in rel:
        for c in labels:
            if (b, c) in rel:
                assert (a, c) in rel


def test_leq_witness_is_a_coset_member_below_the_target():
    # a witness exists iff some member of the full coset lies below the
    # target, and then it is such a member
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 1), (6, 2), (6, 3)]:
        ctx = Context(n, k)
        labels = enumerate_labels(ctx)
        for a in labels:
            members = frozenset(coset_of(ctx, label_perm(a)).members)
            for b in labels:
                target = label_perm(b)
                witness = leq_witness(ctx, a, b)
                if witness is None:
                    assert not any(bruhat_leq(m, target) for m in members)
                else:
                    assert witness in members and bruhat_leq(witness, target)
                assert leq(ctx, a, b) == (witness is not None)


def test_descend_takes_any_reduced_word():
    # the recursion of leq_witness holds down every reduced word of the
    # target; here the one peeling the largest left descent first
    for n, k in [(5, 2), (6, 2), (6, 3)]:
        ctx = Context(n, k)
        labels = enumerate_labels(ctx)
        for b in labels:
            w, word = label_perm(b), []
            while w != identity(n):
                word.append(max(left_descents(w)))
                w = compose(simple(n, word[-1]), w)
            for a in labels:
                witness = descend(ctx, label_perm(a), tuple(word))
                assert (witness is None) == (leq_witness(ctx, a, b) is None)
                if witness is not None:
                    assert label_of(ctx, witness) == a
                    assert bruhat_leq(witness, label_perm(b))


def test_leq_is_the_order_the_covers_generate():
    contexts = [(n, k) for n in range(1, 7) for k in range(n // 2 + 1)] + [(7, 1), (7, 2)]
    for n, k in contexts:
        ctx = Context(n, k)
        g = hasse(ctx)
        generated = [{j} for j in range(len(g.labels))]
        for i, j in sorted(g.covers, key=lambda cover: g.dims[cover[1]]):
            generated[j] |= generated[i]
        for i, a in enumerate(g.labels):
            for j, b in enumerate(g.labels):
                assert leq(ctx, a, b) == (i in generated[j]), (n, k, a, b)


def middle_sorted_members(ctx, w):
    """The k! members of ``w H`` whose middle block increases: the first-
    and last-block values of the pairs permuted in step, the middle sorted.
    Some member of a coset lies below a target iff one of these does
    (sorting the middle is the minimal element of a parabolic coset of
    ``W_J``, ``J`` the middle transpositions, inside ``H``)."""
    n, k = ctx.n, ctx.k
    pairs = sorted((w[j], w[n - k + j]) for j in range(k))
    first, last = zip(*pairs) if pairs else ((), ())
    middle = tuple(sorted(w[k : n - k]))
    return (
        head + middle + tail
        for head, tail in zip(itertools.permutations(first), itertools.permutations(last))
    )


def test_leq_matches_the_middle_sorted_scan_at_large_n():
    rng = random.Random(9)
    answers = []
    for _ in range(1200):
        n = rng.randint(9, 12)
        ctx = Context(n, rng.randint(1, 4))
        a, b = (label_of(ctx, tuple(rng.sample(range(1, n + 1), n))) for _ in range(2))
        target = label_perm(b)
        scanned = any(bruhat_leq(m, target) for m in middle_sorted_members(ctx, label_perm(a)))
        assert leq(ctx, a, b) == scanned, (ctx, a, b)
        answers.append(scanned)
    assert 100 <= sum(answers) <= len(answers) - 100  # both answers are common


def test_leq_matches_subword_oracle():
    for n, k in [(4, 1), (4, 2)]:
        ctx = Context(n, k)
        labels = enumerate_labels(ctx)
        for a in labels:
            for b in labels:
                assert leq(ctx, a, b) == leq_oracle(ctx, a, b)


def test_hasse_figure_skeleton():
    g = hasse(CTX42)
    assert len(g.labels) == 12
    root = minimum(g)
    top = maximum(g)
    assert g.labels[root] == label(CTX42, identity(4), identity(4))
    assert g.dims[root] == 3
    assert g.labels[top] == label(CTX42, (3, 4, 1, 2), (2, 1, 3, 4))
    assert g.dims[top] == 8
    # all twelve dimensions lie between 3 and 8, every value attained
    assert set(g.dims) == {3, 4, 5, 6, 7, 8}


def test_covers_are_irreducible_relations():
    g = hasse(CTX42)
    labels = g.labels
    for i, j in g.covers:
        assert leq(CTX42, labels[i], labels[j])
        assert labels[i] != labels[j]
        # nothing strictly between
        for m in range(len(labels)):
            if m in (i, j):
                continue
            assert not (
                leq(CTX42, labels[i], labels[m]) and leq(CTX42, labels[m], labels[j])
            )
    # every strict relation is a chain of covers: reachability check
    adjacency = {i: set() for i in range(len(labels))}
    for i, j in g.covers:
        adjacency[i].add(j)
    for i in range(len(labels)):
        reachable = set()
        stack = [i]
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    stack.append(nxt)
        expected = {
            j
            for j in range(len(labels))
            if j != i and leq(CTX42, labels[i], labels[j])
        }
        assert reachable == expected


def test_alpha_descent_flags():
    g = hasse(CTX42)
    assert g.alpha_descents <= set(g.covers)
    for i, j in g.covers:
        flagged = (i, j) in g.alpha_descents
        drop = not bruhat_leq(g.labels[i].alpha, g.labels[j].alpha)
        assert flagged == drop
    # some cover of the (4,2) diagram does drop the alpha part
    assert g.alpha_descents


def test_covers_generate_the_subword_oracle_order(cached_intervals):
    for n, k in [(4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3), (7, 1)]:
        ctx = Context(n, k)
        g = hasse(ctx)
        generated = [{j} for j in range(len(g.labels))]
        for i, j in sorted(g.covers, key=lambda cover: g.dims[cover[1]]):
            generated[j] |= generated[i]
        for i, a in enumerate(g.labels):
            for j, b in enumerate(g.labels):
                assert (i in generated[j]) == leq_oracle(ctx, a, b), (n, k, a, b)


def hasse_by_down_sets(ctx):
    """The diagram as ``hasse`` built it before its level recursion: one
    down-set per label by the descent recursion, then a greedy scan of each
    down-set by decreasing dimension that keeps a label iff it is below no
    cover kept so far."""
    labels = enumerate_labels(ctx)
    dims = tuple(dimension(ctx, lbl) for lbl in labels)
    index = {lbl: pos for pos, lbl in enumerate(labels)}
    perms = [label_perm(lbl) for lbl in labels]
    act = {
        i: [index[label_of(ctx, compose(simple(ctx.n, i), w))] for w in perms]
        for i in range(1, ctx.n)
    }
    below = [{b} for b in range(len(labels))]
    for b in sorted(range(len(labels)), key=dims.__getitem__)[1:]:
        step = act[left_descents(perms[b])[0]]
        lower = below[step[b]]
        below[b] |= lower | {step[a] for a in lower}
    covers = []
    for b, closed in enumerate(below):
        reach = set()
        for a in sorted(closed - {b}, key=dims.__getitem__, reverse=True):
            if a not in reach:
                covers.append((a, b))
                reach |= below[a]
    prefix = [lbl.alpha[: ctx.k] for lbl in labels]
    descents = frozenset((i, j) for i, j in covers if not bruhat_leq(prefix[i], prefix[j]))
    weak = sorted(
        (a, c, i) for i, step in act.items() for a, c in enumerate(step) if dims[c] == dims[a] + 1
    )
    return (labels, dims, tuple(sorted(covers)), descents, tuple(weak))


def test_level_recursion_matches_the_down_set_scan_up_to_n_8():
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            ctx = Context(n, k)
            g = hasse(ctx)
            graph = (g.labels, g.dims, g.covers, g.alpha_descents, g.weak)
            assert graph == hasse_by_down_sets(ctx), (n, k)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_value_swap_is_left_multiplication(n):
    """``cover_table``'s ``act`` names the label of ``s_i w`` for every
    label and letter, ``k = 0`` included, and its dims are ``dimension``."""
    for k in range(n // 2 + 1):
        ctx = Context(n, k)
        table = cover_table(ctx)
        assert table.dims == tuple(dimension(ctx, lbl) for lbl in table.labels)
        for i, row in table.act.items():
            s = simple(n, i)
            expected = [label_of(ctx, compose(s, label_perm(lbl))) for lbl in table.labels]
            assert [table.labels[c] for c in row] == expected, (ctx, i)


@pytest.mark.parametrize("n", range(1, 9))
def test_a_descent_of_sigma_or_else_of_alpha_lowers_the_label_product(n):
    """``cover_table`` steps each label down by the first left descent of
    its ``sigma``, else of its ``alpha``: that letter lowers the length of
    the label product, and the label it reaches is the first cover."""
    for k in range(n // 2 + 1):
        ctx = Context(n, k)
        table = cover_table(ctx)
        for b, lbl in enumerate(table.labels):
            w = label_perm(lbl)
            if w == identity(n):
                continue
            i = (left_descents(lbl.sigma) or left_descents(lbl.alpha))[0]
            assert length(compose(simple(n, i), w)) == length(w) - 1, (ctx, lbl)
            assert table.covers[b][0] == table.act[i][b], (ctx, lbl)


def test_hasse_at_9_4_peaks_under_100_mb():
    """15,120 labels, 9!/(4!·1!): one tuple of covers per label, no
    down-sets, and writers that stream a line at a time keep a fresh
    interpreter small.  The peak is ``VmHWM``, the high-water mark of the
    interpreter's own address space: on Linux ``ru_maxrss`` also counts the
    address space the spawning test process held before ``exec``."""
    probe = (
        "import os, re\n"
        "from borbit import diagram, poset\n"
        "from borbit.atlas import Context\n"
        "g = poset.hasse(Context(9, 4))\n"
        "singular = frozenset(range(0, len(g.labels), 2))\n"
        "with open(os.devnull, 'w') as sink:\n"
        "    sink.writelines(diagram.export_dot(g, singular))\n"
        "    sink.writelines(diagram.export_json(g, singular))\n"
        "status = open('/proc/self/status').read()\n"
        "print(len(g.labels), re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    count, peak_kb = map(int, proc.stdout.split())
    assert count == 15120
    assert peak_kb < 100 * 1024


def test_weak_edges_step_by_one_and_refine_covers():
    for n, k in [(4, 2), (5, 2), (6, 2), (6, 3)]:
        ctx = Context(n, k)
        g = hasse(ctx)
        cover_set = set(g.covers)
        assert g.weak == weak_edges_by_coset_lifts(ctx)
        assert weak_edges(ctx) == tuple((g.labels[i], g.labels[j], s) for i, j, s in g.weak)
        for i, j, letter in g.weak:
            assert 1 <= letter <= n - 1
            assert (i, j) in cover_set
            assert g.dims[j] == g.dims[i] + 1


def weak_edges_by_coset_lifts(ctx):
    # independent definition on full cosets: lift each minimal member by a
    # simple transposition and keep the lifts gaining one in length that
    # land in a coset whose minimal length is one higher
    labels = enumerate_labels(ctx)
    label_index = {}
    minimal = []
    for pos, lbl in enumerate(labels):
        coset = coset_of(ctx, label_perm(lbl))
        label_index.update((m, pos) for m in coset.members)
        minimal.append(min_length_reps(coset))
    edges = set()
    for a, reps in enumerate(minimal):
        for m in reps:
            for i in range(1, ctx.n):
                lifted = compose(simple(ctx.n, i), m)
                if length(lifted) != length(m) + 1:
                    continue
                b = label_index[lifted]
                if length(minimal[b][0]) == length(m) + 1:
                    edges.add((a, b, i))
    return tuple(sorted(edges))


def test_hasse_at_7_3_without_pair_queries():
    # 840 labels; the counts agree with the all-pairs closure order and its
    # transitive reduction
    start = time.perf_counter()
    g = hasse(Context(7, 3))
    assert time.perf_counter() - start < 5.0
    assert len(g.labels) == 840
    assert len(g.covers) == 4494
    assert len(g.weak) == 2520


def test_weak_edges_from_the_base_orbit():
    # multiplying the identity by the simple transposition that crosses the
    # first block boundary reaches the coset of that transposition
    g = hasse(CTX42)
    root = minimum(g)
    targets = {(j, letter) for i, j, letter in g.weak if i == root}
    idx = {lbl: pos for pos, lbl in enumerate(g.labels)}
    swap_alpha = idx[label(CTX42, identity(4), (2, 1, 3, 4))]
    middle = idx[label(CTX42, (1, 3, 2, 4), identity(4))]
    assert (swap_alpha, 1) in targets
    assert (middle, 2) in targets
    assert (swap_alpha, 3) in targets


def test_unique_extrema_requires_connected_poset():
    g = hasse(Context(4, 1))
    assert g.dims[minimum(g)] == 1
    assert g.dims[maximum(g)] == 6
    assert len(g.labels) == 12


def test_export_dot():
    g = hasse(CTX42)
    text = "".join(export_dot(g, singular={0, 3}))
    assert text.startswith("digraph closure_order {")
    assert "rankdir=BT" in text
    assert "rank=same" in text
    assert "color=red" in text
    assert "style=dashed" in text
    assert text.count(" -> ") == len(g.covers)


def json_reference(g, singular) -> str:
    """The whole document, built as dicts and lists, through ``json.dumps``:
    how ``export_json`` wrote it before it streamed."""
    data = {
        "n": g.ctx.n,
        "k": g.ctx.k,
        "nodes": [
            {"id": i, **label_fields(lbl), "dim": g.dims[i], "singular": i in singular}
            for i, lbl in enumerate(g.labels)
        ],
        "covers": [[i, j, {"alpha_descent": (i, j) in g.alpha_descents}] for i, j in g.covers],
        "weak": [list(edge) for edge in g.weak],
    }
    return json.dumps(data, indent=2) + "\n"


def dot_reference(g, singular) -> str:
    """The line builder ``export_dot`` used before it streamed."""
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


WRITER_CONTEXTS = [(n, k) for n in range(1, 8) for k in range(n // 2 + 1)] + [(8, 3)]

#: Contexts whose verdict-singular set is one more input of the writers.
VERDICT_CONTEXTS = [(4, 2), (5, 2), (6, 3)]


@pytest.mark.parametrize("n,k", WRITER_CONTEXTS)
def test_streamed_exports_match_the_whole_document_writers(n, k):
    g = hasse(Context(n, k))
    singulars = [frozenset(), frozenset(range(0, len(g.labels), 3))]
    if (n, k) in VERDICT_CONTEXTS:
        singulars.append(
            frozenset(
                i for i, lbl in enumerate(g.labels) if verdict(g.ctx, lbl).status == "singular"
            )
        )
    for singular in singulars:
        assert "".join(export_json(g, singular)) == json_reference(g, singular)
        assert "".join(export_dot(g, singular)) == dot_reference(g, singular)


def test_the_reference_contexts_include_empty_covers_and_weak_edges():
    empty = [(n, k) for n, k in WRITER_CONTEXTS if not hasse(Context(n, k)).covers]
    assert empty == [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0)]
    g = hasse(Context(1, 0))
    assert g.weak == ()
    assert '"covers": [],\n  "weak": []\n}' in "".join(export_json(g))
