"""Springer-fibre combinatorics of the labels, and the listings of the
``enumerate`` and ``springer`` commands.

Each label's representative matrix ``sum_j E_{sigma alpha(j),
sigma(n-k+j)}`` is equivalently an oriented link pattern with arcs
``sigma(n-k+j) -> sigma alpha(j)``, equivalently a two-column tableau.
Labels whose representative matrix is strictly upper triangular biject
with the involutions having exactly ``k`` two-cycles; the top-dimensional
ones are the orbital varieties, counted by standard two-column tableaux.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .atlas import (
    Context, OrbitLabel, dimension, enumerate_labels, format_label, is_upper_label,
    label_fields, label_perm,
)
from .perms import Perm


class TwoColumnTableau(NamedTuple):
    """Left column of length n-k, right column of length k, paired rows."""

    left: tuple[int, ...]
    right: tuple[int, ...]


def link_pattern(ctx: Context, lbl: OrbitLabel) -> tuple[tuple[int, int], ...]:
    """The oriented link pattern's arcs ``(source, target)``: the matrix
    sends e_source to e_target."""
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    return tuple((lbl.sigma[n - k + j - 1], tau[j - 1]) for j in range(1, k + 1))


def tableau(ctx: Context, lbl: OrbitLabel) -> TwoColumnTableau:
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    return TwoColumnTableau(left=tau[: n - k], right=tau[n - k :])


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
    """Involutions of S_n with exactly k two-cycles: ``n! / (2^k k! (n-2k)!)``.

    Such an involution is its set of n-2k fixed points, ``C(n, 2k)``
    choices, and a perfect matching of the other 2k values, ``(2k)! /
    (2^k k!)`` of them: pair the least unmatched value with any of the
    rest, ``(2k-1)(2k-3)...1`` in all.
    """
    return math.factorial(n) // (2**k * math.factorial(k) * math.factorial(n - 2 * k))


def is_orbital_variety(ctx: Context, lbl: OrbitLabel) -> bool:
    """Top-dimensional upper labels: the irreducible components of the
    intersection of the orbit closure with the upper-triangular matrices."""
    return is_upper_label(ctx, lbl) and dimension(ctx, lbl) == ctx.k * (ctx.n - ctx.k)


def springer_component_dim(ctx: Context) -> int:
    """Common dimension of the components of the associated Springer fiber."""
    n, k = ctx.n, ctx.k
    return (k * (k - 1) + (n - k) * (n - k - 1)) // 2


def count_standard_tableaux(ctx: Context) -> int:
    """Hook-length count of standard fillings of the two-column shape.

    The shape has column lengths (n-k, k): k rows of width 2 above n-2k
    rows of width 1.  Its hook lengths multiply to
    ``(n-k+1)! k! / (n-2k+1)``, so the count is
    ``C(n,k) (n-2k+1) / (n-k+1) = C(n,k) - C(n,k-1)``.
    """
    n, k = ctx.n, ctx.k
    return math.comb(n, k) * (n - 2 * k + 1) // (n - k + 1)


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


def label_rows(ctx: Context) -> list[dict]:
    """The ``enumerate`` rows: every label with its dimension, upper flag,
    tableau and link-pattern arcs."""
    rows = []
    for lbl in enumerate_labels(ctx):
        t = tableau(ctx, lbl)
        rows.append(
            {
                **label_fields(lbl),
                "dim": dimension(ctx, lbl),
                "upper": is_upper_label(ctx, lbl),
                "tableau": [list(t.left), list(t.right)],
                "arcs": [list(a) for a in link_pattern(ctx, lbl)],
            }
        )
    return rows


def label_table(ctx: Context, rows: list[dict]) -> str:
    """The table form of ``label_rows``."""
    lines = [f"# {len(rows)} labels for n={ctx.n} k={ctx.k}"]
    for row in rows:
        left, right = row["tableau"]
        lines.append(
            f"sigma={row['sigma']}  alpha={row['alpha']}  dim={row['dim']}  "
            f"upper={'y' if row['upper'] else 'n'}  tableau={left}|{right}  arcs={row['arcs']}"
        )
    return "\n".join(lines) + "\n"


def report(ctx: Context) -> str:
    """The ``springer`` listing: each orbital variety with its tableau and
    verdict, then the component counts."""
    from . import tangent  # for the verdicts; ``enumerate`` runs without it

    orbital = [lbl for lbl in enumerate_labels(ctx) if is_orbital_variety(ctx, lbl)]
    lines = [f"# orbital varieties for n={ctx.n} k={ctx.k}"]
    for lbl in orbital:
        v = tangent.verdict(ctx, lbl)
        t = tableau(ctx, lbl)
        lines.append(
            f"  {format_label(lbl)}  tableau={list(t.left)}|{list(t.right)}  verdict={v.status}"
        )
    lines.append(f"# count = {len(orbital)}")
    lines.append(f"# standard tableaux (hook formula) = {count_standard_tableaux(ctx)}")
    lines.append(f"# springer component dimension = {springer_component_dim(ctx)}")
    return "\n".join(lines) + "\n"
