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
sigma(n-k+j)}``, equivalently an oriented link pattern with arcs
``sigma(n-k+j) -> sigma alpha(j)``, equivalently a two-column tableau.
Labels whose representative matrix is strictly upper triangular biject
with the involutions having exactly ``k`` two-cycles.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .perms import (
    CapExceeded,
    Perm,
    check_perm,
    compose,
    format_perm,
    identity,
    length,
    parse_perm,
)

if TYPE_CHECKING:
    from .ratmat import RationalMatrix

#: Largest ``n`` for which full enumerations run by default.
ENUMERATION_CAP = 8

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


class OrientedLinkPattern(NamedTuple):
    """Arcs ``(source, target)``: the matrix sends e_source to e_target."""

    n: int
    arcs: tuple[tuple[int, int], ...]


class TwoColumnTableau(NamedTuple):
    """Left column of length n-k, right column of length k, paired rows."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def table_rows(self) -> tuple[tuple[int, ...], ...]:
        paired = tuple(
            (a, self.right[i]) if i < len(self.right) else (a,)
            for i, a in enumerate(self.left)
        )
        return paired


def blocks(ctx: Context) -> tuple[range, range, range]:
    n, k = ctx.n, ctx.k
    return range(1, k + 1), range(k + 1, n - k + 1), range(n - k + 1, n + 1)


def in_Zk(ctx: Context, p: Perm) -> bool:
    """Is ``p`` increasing on each of the three blocks?"""
    if len(p) != ctx.n:
        raise ValueError(f"size mismatch: got {len(p)}, context has n={ctx.n}")
    return all(
        p[i - 2] < p[i - 1]
        for block in blocks(ctx)
        for i in list(block)[1:]
    )


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
    mid = list(range(k + 1, n - k + 1))
    out = []
    for a in itertools.permutations(range(1, k + 1)):
        for b in itertools.permutations(mid):
            w = list(range(1, n + 1))
            for j in range(k):
                w[j] = a[j]
                w[n - k + j] = a[j] + n - k
            for j, v in enumerate(b):
                w[k + j] = v
            out.append(tuple(w))
    return tuple(sorted(out))


def coset_of(ctx: Context, w: Perm) -> OrbitCoset:
    """All k!(n-2k)! members of ``w H``: the independent oracle for
    ``label_of``."""
    if len(w) != ctx.n:
        raise ValueError(f"size mismatch: got {len(w)}, context has n={ctx.n}")
    return OrbitCoset(tuple(sorted(compose(w, h) for h in paired_subgroup(ctx))))


def min_length_reps(coset: OrbitCoset) -> tuple[Perm, ...]:
    lengths = [length(m) for m in coset.members]
    shortest = min(lengths)
    return tuple(m for m, ell in zip(coset.members, lengths) if ell == shortest)


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
    pairs = sorted(((w[j], w[n - k + j]) for j in range(k)), key=lambda pair: pair[1])
    first = [a for a, _ in pairs]
    low = sorted(first)
    sigma = tuple(low) + tuple(sorted(w[k : n - k])) + tuple(b for _, b in pairs)
    alpha = tuple(low.index(a) + 1 for a in first) + tuple(range(k + 1, n + 1))
    return OrbitLabel(sigma, alpha)


@lru_cache(maxsize=None)
def enumerate_labels(ctx: Context, cap: int = ENUMERATION_CAP) -> tuple[OrbitLabel, ...]:
    """All labels, sorted by (sigma, alpha); there are n!/(k!(n-2k)!)."""
    if ctx.n > cap:
        raise CapExceeded(f"enumeration needs n <= {cap}, got n={ctx.n}")
    n, k = ctx.n, ctx.k
    values = range(1, n + 1)
    sigmas = []
    for first in itertools.combinations(values, k):
        rest = [v for v in values if v not in first]
        for last in itertools.combinations(rest, k):
            mid = [v for v in rest if v not in last]
            sigmas.append(tuple(first) + tuple(mid) + tuple(last))
    alphas = [
        a + tuple(range(k + 1, n + 1))
        for a in itertools.permutations(range(1, k + 1))
    ]
    return tuple(
        OrbitLabel(s, a)
        for s in sorted(sigmas)
        for a in sorted(alphas)
    )


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


def rep_matrix(ctx: Context, lbl: OrbitLabel) -> RationalMatrix:
    """The representative ``sum_j E_{sigma alpha(j), sigma(n-k+j)}``."""
    from .ratmat import RationalMatrix  # only callers of rep_matrix need matrices

    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    return RationalMatrix.from_entries(n, {(tau[j], lbl.sigma[n - k + j]): 1 for j in range(k)})


def link_pattern(ctx: Context, lbl: OrbitLabel) -> OrientedLinkPattern:
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    arcs = tuple(
        (lbl.sigma[n - k + j - 1], tau[j - 1]) for j in range(1, k + 1)
    )
    return OrientedLinkPattern(n, arcs)


def tableau(ctx: Context, lbl: OrbitLabel) -> TwoColumnTableau:
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    return TwoColumnTableau(left=tau[: n - k], right=tau[n - k :])


def is_row_standard(t: TwoColumnTableau) -> bool:
    """Do all paired rows increase left to right?"""
    return all(a < b for a, b in zip(t.left, t.right))


def is_upper_label(ctx: Context, lbl: OrbitLabel) -> bool:
    """Labels whose representative matrix is strictly upper triangular."""
    return is_row_standard(tableau(ctx, lbl))


def involution_tau(ctx: Context, lbl: OrbitLabel) -> Perm:
    """The involution with two-cycles (sigma alpha(i), sigma(n-k+i)).

    Defined for upper labels only, where it is a bijection onto the
    involutions of S_n with exactly k two-cycles.
    """
    if not is_upper_label(ctx, lbl):
        raise ValueError(f"label is not upper-triangular: {lbl}")
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    out = list(range(1, n + 1))
    for i in range(1, k + 1):
        a, b = tau[i - 1], lbl.sigma[n - k + i - 1]
        out[a - 1], out[b - 1] = b, a
    return tuple(out)


def count_involutions(n: int, k: int) -> int:
    """Brute-force count of involutions of S_n with exactly k two-cycles."""
    ident = identity(n)
    count = 0
    for p in itertools.permutations(range(1, n + 1)):
        if compose(p, p) == ident:
            fixed = sum(1 for i in range(n) if p[i] == i + 1)
            if fixed == n - 2 * k:
                count += 1
    return count


def is_orbital_variety(ctx: Context, lbl: OrbitLabel) -> bool:
    """Top-dimensional upper labels: the irreducible components of the
    intersection of the orbit closure with the upper-triangular matrices."""
    n, k = ctx.n, ctx.k
    top = k * (n - k) - dim_y0(ctx)
    return is_upper_label(ctx, lbl) and length(lbl.sigma) + length(lbl.alpha) == top


def springer_component_dim(ctx: Context) -> int:
    """Common dimension of the components of the associated Springer fiber."""
    n, k = ctx.n, ctx.k
    return (k * (k - 1) + (n - k) * (n - k - 1)) // 2


def count_standard_tableaux(ctx: Context) -> int:
    """Hook-length count of standard fillings of the two-column shape.

    The shape has column lengths (n-k, k): k rows of width 2 above
    n-2k rows of width 1.
    """
    n, k = ctx.n, ctx.k
    row_widths = [2] * k + [1] * (n - 2 * k)
    hooks = 1
    for i, width in enumerate(row_widths):
        for j in range(width):
            arm = width - (j + 1)
            leg = sum(1 for w in row_widths[i + 1 :] if w >= j + 1)
            hooks *= arm + leg + 1
    return math.factorial(n) // hooks


def count_standard_tableaux_bruteforce(ctx: Context) -> int:
    """Independent count: enumerate right-column value sets directly.

    A standard filling is determined by the set of right-column values R:
    both columns are then sorted, and the filling is valid iff each paired
    row increases.
    """
    n, k = ctx.n, ctx.k
    count = 0
    for right in itertools.combinations(range(1, n + 1), k):
        left = sorted(set(range(1, n + 1)) - set(right))
        if all(left[i] < right[i] for i in range(k)):
            count += 1
    return count


def label_fields(lbl: OrbitLabel) -> dict[str, str]:
    """The written form of a label, ``sigma`` and ``alpha`` in one-line
    notation: every encoder writes labels through it."""
    return {"sigma": format_perm(lbl.sigma), "alpha": format_perm(lbl.alpha)}


def label_from_fields(ctx: Context, fields: Mapping[str, str]) -> OrbitLabel:
    """Inverse of ``label_fields``, validated by ``label``."""
    return label(ctx, parse_perm(fields["sigma"], ctx.n), parse_perm(fields["alpha"], ctx.n))
