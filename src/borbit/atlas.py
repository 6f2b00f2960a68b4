"""Orbit labels for Borel orbits of 2-nilpotent matrices.

Fix ``n`` and ``0 <= k <= n/2``.  The rank-``k`` orbits of square-zero
``n x n`` matrices under the Borel group of upper-triangular matrices are
labelled by pairs ``(sigma, alpha)`` where ``sigma`` is increasing on each
of the blocks ``{1..k}``, ``{k+1..n-k}``, ``{n-k+1..n}`` and ``alpha``
permutes ``{1..k}`` fixing everything else.  Labels correspond one-to-one
with cosets ``w H`` of the subgroup ``H`` of permutations that preserve
the middle block and move the first and last blocks in parallel
(``w(j + n - k) = w(j) + n - k`` for ``j <= k``).

Each label owns a representative matrix ``sum_j E_{sigma alpha(j),
sigma(n-k+j)}``; ``springer`` reads its tableau and link pattern.

One orbit closure contains another exactly when some member of the smaller
label's coset lies below the bigger label's product permutation in Bruhat
order.  ``leq`` decides that for one pair by walking the coset down one
reduced word (``descend``), with a witness from the walk; ``poset`` holds
the order of a whole context and its independent oracle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .perms import Perm, Word, check_perm, compose, evaluate_word, format_perm, length, reduced_word

#: Largest ``n`` accepted for pointwise operations.
POINTWISE_CAP = 64


class _ContextFields(NamedTuple):
    n: int
    k: int


class Context(_ContextFields):
    """The pair (matrix size n, orbit rank k)."""

    __slots__ = ()

    def __new__(cls, n: int, k: int):
        if not 1 <= n <= POINTWISE_CAP:
            raise ValueError(f"n out of range: {n}")
        if not 0 <= 2 * k <= n:
            raise ValueError(f"k out of range for n={n}: {k}")
        return super().__new__(cls, n, k)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


class OrbitLabel(NamedTuple):
    sigma: Perm
    alpha: Perm


class OrbitCoset(NamedTuple):
    """A coset of the paired-action subgroup; ``members`` is sorted
    lexicographically."""

    members: tuple[Perm, ...]


def in_Zk(ctx: Context, p: Perm) -> bool:
    """Is ``p`` increasing on each of the three blocks?"""
    if len(p) != ctx.n:
        raise ValueError(f"size mismatch: got {len(p)}, context has n={ctx.n}")
    return all(p[i - 1] < p[i] for i in range(1, ctx.n) if i not in (ctx.k, ctx.n - ctx.k))


def in_Wk(ctx: Context, p: Perm) -> bool:
    """Does ``p`` fix k+1, ..., n pointwise?"""
    if len(p) != ctx.n:
        raise ValueError(f"size mismatch: got {len(p)}, context has n={ctx.n}")
    return all(p[i] == i + 1 for i in range(ctx.k, ctx.n))


def label(ctx: Context, sigma: Perm, alpha: Perm) -> OrbitLabel:
    sigma = check_perm(sigma)
    alpha = check_perm(alpha)
    if not in_Zk(ctx, sigma):
        raise ValueError(f"sigma not block-increasing: {sigma}")
    if not in_Wk(ctx, alpha):
        raise ValueError(f"alpha moves a point beyond k={ctx.k}: {alpha}")
    return OrbitLabel(sigma, alpha)


def label_perm(lbl: OrbitLabel) -> Perm:
    """The product permutation ``sigma alpha``."""
    sigma = lbl.sigma
    return tuple([sigma[v - 1] for v in lbl.alpha])


@lru_cache(maxsize=None)
def paired_subgroup(ctx: Context) -> tuple[Perm, ...]:
    """Members of the subgroup H: middle block preserved, outer blocks paired.

    ``w in H`` iff ``w(j + n - k) = w(j) + n - k`` for all ``j <= k`` (which
    forces ``w{1..k} = {1..k}``) and ``w`` permutes the middle block.  Size
    ``k! * (n - 2k)!``.
    """
    n, k = ctx.n, ctx.k
    return tuple(sorted(
        a + b + tuple(v + n - k for v in a)
        for a in itertools.permutations(range(1, k + 1))
        for b in itertools.permutations(range(k + 1, n - k + 1))
    ))


def coset_of(ctx: Context, w: Perm) -> OrbitCoset:
    """All k!(n-2k)! members of ``w H``: the independent oracle for
    ``label_of``."""
    if len(w) != ctx.n:
        raise ValueError(f"size mismatch: got {len(w)}, context has n={ctx.n}")
    return OrbitCoset(tuple(sorted(compose(w, h) for h in paired_subgroup(ctx))))


def label_of(ctx: Context, w: Perm) -> OrbitLabel:
    """The unique label whose product lies in the coset ``w H``.

    Right multiplication by ``H`` permutes the value pairs
    ``(w(j), w(n-k+j))`` among the outer positions and the middle values
    among the middle positions, so these two sets determine the coset.
    The member with the pairs ordered by last-block value and the middle
    sorted is increasing on the last two blocks, so it is ``sigma alpha``
    for the ``sigma`` that sorts its first block as well.
    """
    if len(w) != ctx.n:
        raise ValueError(f"size mismatch: got {len(w)}, context has n={ctx.n}")
    n, k = ctx.n, ctx.k
    pairs = sorted(zip(w[n - k :], w[:k]))  # (last-block value, its partner); no two tie
    low = sorted(a for _, a in pairs)
    rank = {a: r for r, a in enumerate(low, 1)}
    sigma = tuple(low) + tuple(sorted(w[k : n - k])) + tuple([b for b, _ in pairs])
    alpha = tuple([rank[a] for _, a in pairs]) + tuple(range(k + 1, n + 1))
    return OrbitLabel(sigma, alpha)


def enumerate_labels(ctx: Context) -> tuple[OrbitLabel, ...]:
    """All labels, sorted by (sigma, alpha); there are n!/(k!(n-2k)!), so
    callers bound their own work."""
    n, k = ctx.n, ctx.k
    values = range(1, n + 1)
    sigmas = []
    for first in itertools.combinations(values, k):
        rest = [v for v in values if v not in first]
        for last in itertools.combinations(rest, k):
            mid = [v for v in rest if v not in last]
            sigmas.append(first + tuple(mid) + last)
    alphas = sorted(a + tuple(range(k + 1, n + 1)) for a in itertools.permutations(range(1, k + 1)))
    return tuple(OrbitLabel(s, a) for s in sorted(sigmas) for a in alphas)


def leq(ctx: Context, a: OrbitLabel, b: OrbitLabel) -> bool:
    """Closure order: is the orbit of ``a`` contained in the closure of ``b``?"""
    return leq_witness(ctx, a, b) is not None


def leq_witness(ctx: Context, a: OrbitLabel, b: OrbitLabel) -> Perm | None:
    """A member of ``a``'s coset below ``w_b = label_perm(b)``, or None: the
    descent recursion of ``poset.hasse``, followed for one pair by ``descend``.

    With ``s = s_i`` a left descent of ``w_b``, the first letter of a
    reduced word of it, ``poset.hasse`` proves ``a <= b`` iff ``a <= b'`` or ``s·a <= b'``, where
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
    whenever ``s`` is a left descent of one, as ``poset.hasse`` shows.
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


def dim_y0(ctx: Context) -> int:
    """Dimension of the base orbit (the invertible upper-triangular corner)."""
    return ctx.k * (ctx.k + 1) // 2


def dim_orbit(ctx: Context) -> int:
    """Dimension of the full rank-k square-zero conjugacy class."""
    n, k = ctx.n, ctx.k
    stabiliser = 2 * k * k + (n - 2 * k) ** 2 + 2 * k * (n - 2 * k)
    assert n * n - stabiliser == 2 * k * (n - k)
    return 2 * k * (n - k)


def dimension(ctx: Context, lbl: OrbitLabel) -> int:
    """Dimension of the labelled orbit: l(sigma) + l(alpha) + k(k+1)/2."""
    return length(lbl.sigma) + length(lbl.alpha) + dim_y0(ctx)


def rep_matrix(ctx: Context, lbl: OrbitLabel) -> dict[tuple[int, int], int]:
    """The representative ``sum_j E_{sigma alpha(j), sigma(n-k+j)}``, as the
    sparse integer dict of its entries, keyed by 1-indexed ``(row,
    column)`` like ``tangent.SparseMatrix``."""
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    return {(tau[j], lbl.sigma[n - k + j]): 1 for j in range(k)}


def is_upper_label(ctx: Context, lbl: OrbitLabel) -> bool:
    """Labels whose representative matrix is strictly upper triangular: its
    entry in column ``tau(n-k+j)`` sits in row ``tau(j)``, ``tau = sigma alpha``
    (the paired rows of ``springer.tableau`` increase)."""
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    return all(tau[j] < tau[n - k + j] for j in range(k))


def label_fields(lbl: OrbitLabel) -> dict[str, str]:
    """The written form of a label, ``sigma`` and ``alpha`` in one-line
    notation: every encoder writes labels through it."""
    return {"sigma": format_perm(lbl.sigma), "alpha": format_perm(lbl.alpha)}


def format_label(lbl: OrbitLabel) -> str:
    """One-line ``sigma=... alpha=...`` text that ``cli.parse_label_arg``
    reads back."""
    return join_fields(**label_fields(lbl))


def join_fields(sigma: str, alpha: str) -> str:
    """The one-line text of a label from its written fields, for a writer
    that formats each sigma and each alpha once."""
    return f"sigma={sigma} alpha={alpha}"
