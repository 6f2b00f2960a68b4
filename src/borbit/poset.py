"""The closure order of a whole context: its cover table, Hasse diagram,
verdict sweep and subword oracle.

``atlas.leq`` follows for one pair the left-descent recursion that
``hasse`` runs for all, with a witness from its chain; ``leq_oracle``
recomputes the order independently from the subword enumeration
``perms.lower_interval``.

``cover_table`` holds once per context what every sweep reads: the left
action of the simple transpositions on cosets, the covers of the closure
order and each label's ``t_k``.  ``hasse`` takes all of its edges from it,
and ``diagram`` writes them out; ``verdicts`` decides every label from it,
and ``smooth_table`` writes the verdicts.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .atlas import (
    Context, OrbitLabel, coset_of, dim_y0, enumerate_labels, join_fields, label_fields, label_perm,
)
from .perms import (
    WORD_LENGTH_CAP, bruhat_leq, compose, left_descents, length, lower_interval, simple,
)
from .tangent import Root, Verdict, phi_plus, root_coset_label, verdict


def leq_oracle(
    ctx: Context, a: OrbitLabel, b: OrbitLabel, word_cap: int = WORD_LENGTH_CAP
) -> bool:
    """Independent closure-order test via subword enumeration.

    Enumerates the full lower Bruhat interval of ``label_perm(b)`` and
    intersects it with the coset of ``a``.
    """
    interval = lower_interval(label_perm(b), word_cap)
    return any(m in interval for m in coset_of(ctx, label_perm(a)).members)


class BruhatGraph(NamedTuple):
    ctx: Context
    labels: tuple[OrbitLabel, ...]
    dims: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]
    alpha_descents: frozenset[tuple[int, int]]
    weak: tuple[tuple[int, int, int], ...]


class CoverTable(NamedTuple):
    """What every sweep of one context reads, by index into ``labels``
    (``enumerate_labels``): the dimensions, ``act[i][a]``, the label of
    ``s_i w_a``, ``covers[b]``, the labels that ``b`` covers, and
    ``masks[b]``, bit ``r`` set iff root ``r`` of ``phi_plus`` is in ``t_k(b)``."""

    labels: tuple[OrbitLabel, ...]
    dims: tuple[int, ...]
    act: dict[int, tuple[int, ...]]
    covers: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]


@lru_cache(maxsize=None)
def cover_table(ctx: Context) -> CoverTable:
    """The table of ``ctx``: ``act`` by the value swap and the covers by
    the level step, both proved in ``hasse``.  The labels list every
    alpha, in one order, for each sigma in turn, so the swap runs once per
    sigma and letter on a block of ``k!`` indices, each index one shared
    int object.  The level step lowers ``w_b = sigma alpha`` by a left
    descent of ``sigma``, else of ``alpha`` (``w_b = alpha`` if ``sigma =
    e``): one of ``sigma`` puts ``i+1`` before ``i`` in two blocks, as each
    block of ``sigma`` increases, and ``alpha`` keeps the blocks in order.

    Bit ``r`` of the masks starts on the label ``c`` of root ``r``'s
    reflection coset; by increasing dimension each label ORs in its
    covers' masks.  The covers generate the order, so ``masks[b]`` holds
    the bits of exactly the ``c <= b``: root ``r`` is in ``t_k(b)`` iff
    ``c <= b``."""
    labels = enumerate_labels(ctx)
    n, k, last = ctx.n, ctx.k, ctx.n - ctx.k
    size = factorial(k)
    alphas = {lbl.alpha: a for a, lbl in enumerate(labels[:size])}
    sigmas = {labels[start].sigma: start for start in range(0, len(labels), size)}
    index = list(range(len(labels)))
    swaps = {}  # the position of i in sigma -> each alpha's index after the swap
    for p in range(1, k):
        s = simple(n, p)
        swaps[p] = [alphas[compose(s, alpha)] for alpha in alphas]
        swaps[p + last] = [alphas[compose(alpha, s)] for alpha in alphas]
    act = {}
    for i in range(1, n):
        row: list[int] = []
        for sigma, start in sigmas.items():
            p, q = sigma.index(i) + 1, sigma.index(i + 1) + 1
            if k < p <= last and k < q <= last:
                row += index[start : start + size]
            elif q == p + 1 and p in swaps:  # both in the first or both in the last block
                row += [index[start + a] for a in swaps[p]]
            else:
                moved = list(sigma)
                moved[p - 1], moved[q - 1] = i + 1, i
                start = sigmas[tuple(moved)]
                row += index[start : start + size]
        act[i] = tuple(row)
    lengths = [length(alpha) for alpha in alphas]
    dims = tuple(d + e for d in [dim_y0(ctx) + length(sigma) for sigma in sigmas] for e in lengths)

    sigma_descents = [left_descents(sigma) for sigma in sigmas]
    alpha_descents = [left_descents(alpha) for alpha in alphas]
    masks = [0] * len(labels)
    for bit, rt in enumerate(phi_plus(ctx)):  # ``labels`` is sorted: ``enumerate_labels``
        masks[bisect_left(labels, root_coset_label(ctx, rt))] |= 1 << bit
    covers: list[tuple[int, ...]] = [()] * len(labels)
    for b in sorted(range(len(labels)), key=dims.__getitem__)[1:]:  # all but the base
        step = act[(sigma_descents[b // size] or alpha_descents[b % size])[0]]
        low = step[b]
        covers[b] = (low, *(step[c] for c in covers[low] if dims[step[c]] == dims[c] + 1))
        for a in covers[b]:
            masks[b] |= masks[a]
    return CoverTable(labels, dims, act, tuple(covers), tuple(masks))


def verdicts(ctx: Context, table: CoverTable) -> Iterator[Verdict]:
    """Each label's ``tangent.verdict``, in ``table.labels`` order, off the
    table's dims and masks; labels with one mask share one tuple of roots."""
    phi = phi_plus(ctx)
    seen: dict[int, tuple[Root, ...]] = {}
    for lbl, dim, mask in zip(table.labels, table.dims, table.masks):
        roots = seen.get(mask)
        if roots is None:
            roots = seen[mask] = tuple(rt for bit, rt in enumerate(phi) if mask >> bit & 1)
        yield verdict(ctx, lbl, roots, dim)


def smooth_table(ctx: Context, table: CoverTable) -> Iterator[str]:
    """The ``smooth`` table, a line at a time: one verdict line per label,
    then the totals.  The labels run through every alpha, in one order, for
    each sigma in turn (``enumerate_labels``), so each sigma is written once
    per block of ``k!`` labels and each alpha once."""
    yield f"# verdicts for n={ctx.n} k={ctx.k}\n"
    counts = dict.fromkeys(("smooth", "singular", "unknown"), 0)
    size = factorial(ctx.k)
    alphas = [label_fields(lbl)["alpha"] for lbl in table.labels[:size]]
    for b, (dim, v) in enumerate(zip(table.dims, verdicts(ctx, table))):
        if b % size == 0:
            sigma = label_fields(table.labels[b])["sigma"]
        yield (
            f"  {join_fields(sigma, alphas[b % size])}  dim={dim}  "
            f"verdict={v.status:<8} rule={v.rule or '-':<2} witness={v.witness}\n"
        )
        counts[v.status] += 1
    yield "# totals: " + " ".join(f"{status}={count}" for status, count in counts.items()) + "\n"


def hasse(ctx: Context) -> BruhatGraph:
    """Hasse diagram of the closure order, read off the left action of the
    simple transpositions: ``act[i][a]`` is the label of ``s_i w_a``,
    ``w_a = label_perm(a)``.  Left multiplication commutes with the right
    action of ``H``, so ``s_i`` permutes the cosets; any member names one.

    The value swap: ``s_i`` exchanges the values ``i``, ``i+1`` of ``sigma``,
    say at positions ``p``, ``q``.  In one block ``s_i sigma = sigma (p q)``,
    and ``alpha`` moves only ``1..k``: in the middle ``(p q)`` lies in ``H``
    and commutes with ``alpha``, so the label stays; in the first block
    ``sigma (p q) alpha`` is ``sigma`` times ``alpha`` with its values ``p``,
    ``q = p + 1`` exchanged; in the last, ``(p q)`` commutes with ``alpha``
    and times the paired ``(p-m q-m)``, ``m = n - k``, lies in ``H``, so the
    coset is that of ``sigma`` times ``alpha`` with its positions ``p-m``,
    ``q-m`` exchanged.  In two blocks, exchanging consecutive values keeps
    each block increasing: ``sigma`` with ``i``, ``i+1`` exchanged, and the
    same ``alpha``.

    Closure: ``a <= b`` iff the coset of ``a`` meets ``[e, w_b]``; only the
    base has ``w_b = e``.  Else let ``s = s_i`` be a left descent of
    ``w = w_b``, ``b' = act[s][b]``: the down-sets obey ``D_b = D_b' u s·D_b'``.
    For the subword property on a reduced word starting with ``s`` gives
    ``[e, w] = [e, sw] u s[e, sw]``, the coset of ``a`` meets ``s[e, sw]``
    iff that of ``act[s][a]`` meets ``[e, sw]``, and ``sw`` is the label
    product of ``b'``, one dimension lower: the values ``i+1, i`` appear in
    that order in ``w``, so not both in its increasing middle or last block,
    and they compare alike with every other value.

    Graded: a cover ``a`` of ``b`` is one dimension lower.  The ideal of the
    boundary of ``Z_b``, the closure of ``O_b``, in ``C[Z_b]`` is nonzero and
    ``B``-stable, so holds a ``B``-eigenvector ``f`` (Lie-Kolchin); ``V(f)``
    is ``B``-stable, holds the boundary and misses ``O_b``, so is the
    boundary, and its components are orbit closures of codimension one
    (Krull's principal ideal theorem).  By semicontinuity of rank the one
    holding ``O_a`` has rank ``k``: a label ``c``, ``a <= c < b``, so ``c = a``.
    Level step: so the covers of ``b``, the members of ``D_b`` one dimension
    down, are ``b'`` and each ``s·c`` with ``c`` a cover of ``b'`` that ``s``
    raises, and no ``D_b`` is stored: ``s`` moves ``c`` in ``D_b'`` by at
    most one dimension, only ``b'`` there has its dimension, ``s·b' = b``.
    ``cover_table`` holds ``act`` and the covers; the covers generate the
    order, as in any finite poset.

    Weak edges are the ``(a, act[i][a], i)`` raising the dimension by one;
    the label product has the coset's minimal length: the inversions
    between blocks depend only on the coset, and two pairs add one
    inversion to the outer blocks if their first- and last-block values
    are ordered oppositely, else none or two; ordering the pairs by
    last-block value, as the label product does, attains one and none.
    No member of the target coset is shorter than its minimum, so ``s_i``
    lifts every minimal member of ``a`` by exactly one step.
    """
    table = cover_table(ctx)
    labels, dims, act = table.labels, table.dims, table.act
    covers = sorted((a, b) for b, below in enumerate(table.covers) for a in below)
    prefix = [lbl.alpha[: ctx.k] for lbl in labels]
    descents = frozenset((i, j) for i, j in covers if not bruhat_leq(prefix[i], prefix[j]))
    weak = sorted(
        (a, c, i) for i, step in act.items() for a, c in enumerate(step) if dims[c] == dims[a] + 1
    )
    return BruhatGraph(ctx, labels, dims, tuple(covers), descents, tuple(weak))


def weak_edges(ctx: Context) -> tuple[tuple[OrbitLabel, OrbitLabel, int], ...]:
    """The weak edges of ``hasse`` as label triples."""
    g = hasse(ctx)
    return tuple((g.labels[a], g.labels[b], s) for a, b, s in g.weak)


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
