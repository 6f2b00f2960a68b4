"""Closure order on labelled orbits, its cover table and Hasse diagram.

One orbit closure contains another exactly when some member of the smaller
label's coset lies below the bigger label's product permutation in Bruhat
order.  ``leq`` follows for one pair the left-descent recursion that
``hasse`` runs for all, with a witness from its chain; ``leq_oracle``
recomputes it independently from subword enumeration.

The Hasse graph takes all of its edges from the left action of the simple
transpositions on cosets, held once per context by ``cover_table``: the
covers of the closure order, each flagged if the ``alpha`` part fails to be
Bruhat-monotone along it, and the weak edges.  ``diagram`` writes it out.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .atlas import (
    Context, OrbitLabel, coset_of, dim_y0, enumerate_labels, label_perm,
)
from .perms import (
    WORD_LENGTH_CAP, Perm, Word, bruhat_leq, compose, evaluate_word, left_descents, length,
    lower_interval, reduced_word, simple,
)


def leq(ctx: Context, a: OrbitLabel, b: OrbitLabel) -> bool:
    """Closure order: is the orbit of ``a`` contained in the closure of ``b``?"""
    return leq_witness(ctx, a, b) is not None


def leq_witness(ctx: Context, a: OrbitLabel, b: OrbitLabel) -> Perm | None:
    """A member of ``a``'s coset below ``w_b = label_perm(b)``, or None: the
    descent recursion of ``hasse``, followed for one pair by ``descend``.

    With ``s = s_i`` the first letter of a reduced word of ``w_b``,
    ``hasse`` proves ``a <= b`` iff ``a <= b'`` or ``s·a <= b'``, where
    ``s w_b`` is the label product of ``b'``.  The label product ``u`` of
    ``a`` is of minimal length in its coset, and ``s`` changes only the
    comparison of the values ``i`` and ``i+1``, so ``s·a = a`` if both lie
    in the middle block; else the minimal length moves by one, through
    their inversion across blocks or the opposition of their pairs inside
    one.  ``s·a`` is lower exactly when ``i+1`` precedes ``i`` in ``u``
    (then ``s u < u`` is the label product of ``s·a``) or both lie in the
    last block at pairs ``(x, i)``, ``(x', i+1)`` with ``x > x'`` (swapping
    ``x`` and ``x'`` in ``u`` removes one inversion and gives that label
    product).  So the lower coset ``c`` of ``a``, ``s·a`` has a member
    below the label product of the higher (for ``c = a`` read the cases
    from ``s·a``), hence ``c`` lies below both, and ``a <= b`` iff
    ``c <= b'``.  At ``w_b = e`` only the base, of product ``e``, is below.
    Witness: ``sw < w`` and ``m <= sw`` give ``s m <= w`` (lifting
    property, Bjoerner-Brenti Prop. 2.2.7), so walking back from ``e``
    multiplies by each ``s`` at which ``c`` moved, in order.

    Any reduced word of ``w_b`` will do: each letter is a left descent of
    what the letters before it leave, and ``s w`` is a label product
    whenever ``s`` is a left descent of one, as ``hasse`` shows.
    """
    return descend(ctx, label_perm(a), reduced_word(label_perm(b)))


def descend(ctx: Context, u: Perm, word: Word) -> Perm | None:
    """Walk the coset of label product ``u`` down ``word``, a reduced word
    of some label product ``w``: a member of the coset below ``w``, or None
    (the recursion of ``leq_witness``)."""
    n, last = ctx.n, ctx.n - ctx.k
    u = list(u)
    upos = [0] * (n + 1)
    for p, v in enumerate(u):
        upos[v] = p
    moved = []
    for i in word:
        p, q = upos[i], upos[i + 1]
        if p >= last and q >= last:
            x, y = u[p - last], u[q - last]
            if x > y:
                u[p - last], u[q - last] = y, x
                upos[x], upos[y] = q - last, p - last
                moved.append(i)
        elif q < p:
            u[p], u[q] = i + 1, i
            upos[i], upos[i + 1] = q, p
            moved.append(i)
    return evaluate_word(n, moved) if u == list(range(1, n + 1)) else None


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
    ``s_i w_a``, and ``covers[b]``, the labels that ``b`` covers."""

    labels: tuple[OrbitLabel, ...]
    dims: tuple[int, ...]
    act: dict[int, tuple[int, ...]]
    covers: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def cover_table(ctx: Context) -> CoverTable:
    """The table of ``ctx``: ``act`` by the value swap and the covers by
    the level step, both proved in ``hasse``.  The labels list every
    alpha, in one order, for each sigma in turn, so the swap runs once per
    sigma and letter on a block of ``k!`` indices, each index one shared
    int object."""
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

    covers: list[tuple[int, ...]] = [()] * len(labels)
    for b in sorted(range(len(labels)), key=dims.__getitem__)[1:]:  # all but the base
        step = act[left_descents(label_perm(labels[b]))[0]]
        low = step[b]
        covers[b] = (low, *(step[c] for c in covers[low] if dims[step[c]] == dims[c] + 1))
    return CoverTable(labels, dims, act, tuple(covers))


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
    base has ``w_b = e``.  Else let ``s = s_i`` be the first left descent of
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
