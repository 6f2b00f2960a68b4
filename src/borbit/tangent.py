"""Tangent-space bookkeeping and the smoothness verdict rules, in integers.

For each positive root of the stabiliser of the base point there is an
explicit curve through the base point inside the orbit closure; its tangent
vector, together with the tangent space of the base orbit, spans the full
tangent space of the ambient conjugacy class.  Which curve tangents survive
inside a given labelled closure is controlled by the closure order on the
reflections' cosets; counting them gives exact tangent dimensions for
upper labels and lower bounds in general.  One label walks that order down
once per root (``t_k_table``); a sweep reads every label's roots off the
covers of ``poset.cover_table`` (``t_k_masks``).  A Lie-bracket closure
under the base-point Borel stabiliser sharpens the lower bound.

All of this is integer data: roots, the pairs ``(i, j)``; ``t_k``
counts; and sparse integer matrices with entries 0 and +-1 for the curve
tangents ``[E_ji, x]`` at the base point ``x`` and for the bracket span.
The curves themselves, and the identities over ``Z[t]`` that certify
their tangents, live in ``geometry``.

The verdict engine applies six rules in order: a pattern criterion for
rank one, fibration criteria when ``alpha`` is longest or ``sigma`` is
trivial, the exact tangent count for upper labels, and the two
tangent-versus-dimension bounds.  ``verdict`` decides one label;
``verdicts`` sweeps a cover table, reading each label's dimension and
``t_k`` off it.  The ``tangent`` report and the ``smooth`` table are
rendered here.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Mapping
from math import factorial, gcd
from typing import TYPE_CHECKING, Literal, NamedTuple, TypeVar

from .atlas import (
    Context, OrbitLabel, descend, dim_y0, dimension, format_label, is_upper_label, join_fields,
    label_fields, label_of, label_perm,
)
from .perms import (
    Perm, compose, format_perm, identity, pattern_positions, reduced_word, transposition,
)

if TYPE_CHECKING:  # an annotation only: the one-label commands load no ``poset``
    from .poset import CoverTable

INSIDE_GLK = "INSIDE_GLK"
DELTA = "DELTA"
CROSS_FAR = "CROSS_FAR"
TOP_MIDDLE = "TOP_MIDDLE"
MIDDLE_BOTTOM = "MIDDLE_BOTTOM"

#: Patterns whose presence makes a Schubert variety singular.
SINGULAR_PATTERNS: tuple[Perm, ...] = ((4, 2, 3, 1), (3, 4, 1, 2))

#: Pattern controlling rank-one singularity.
RANK_ONE_PATTERN: Perm = (3, 1, 4, 2)

#: A sparse exact integer n x n matrix: 1-indexed ``(row, column)`` to a
#: nonzero entry.  The tangent algebra lives here: its generators (matrix
#: units, curve tangents, the stabiliser basis) have entries 0 and +-1.
SparseMatrix = dict[tuple[int, int], int]
Key = TypeVar("Key")  # an ordered key of ``_insert``: a position, or a column of a matrix row


class Root(NamedTuple):
    """A positive stabiliser root ``i < j``; ``classify_root`` gives its family."""

    i: int
    j: int


def classify_root(ctx: Context, i: int, j: int) -> str | None:
    """Family of ``(i, j)`` in the stabiliser root system, or None."""
    n, k = ctx.n, ctx.k
    if not (1 <= i < j <= n):
        return None
    if j <= k:
        return INSIDE_GLK
    if i <= k and j == i + n - k:
        return DELTA
    if i <= k and j > n - k:
        return CROSS_FAR
    if i <= k < j <= n - k:
        return TOP_MIDDLE
    if k < i <= n - k < j:
        return MIDDLE_BOTTOM
    return None


def phi_plus(ctx: Context) -> tuple[Root, ...]:
    """All positive stabiliser roots; count 2k(n-k) - k(k+1)/2."""
    n, k = ctx.n, ctx.k
    roots = tuple(
        Root(i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if classify_root(ctx, i, j) is not None
    )
    assert len(roots) == 2 * k * (n - k) - k * (k + 1) // 2
    return roots


def phi_plus_restricted(ctx: Context) -> tuple[Root, ...]:
    """Roots kept by the upper-label theory: drop pairings of the first block
    with the last block unless ``j > i + n - k``."""
    n, k = ctx.n, ctx.k
    return tuple(
        r
        for r in phi_plus(ctx)
        if not (r.i <= k and r.j > n - k and r.i + n - k >= r.j)
    )


def root_tangent(ctx: Context, rt: Root) -> SparseMatrix:
    """Tangent vector at the base point ``x`` of the curve of a stabiliser
    root: the linear term of ``(I + t E_ji) x (I - t E_ji)``, which is
    ``[E_ji, x]``.

    With ``x = sum_{r<=k} E_{r,r+m}`` and ``m = n - k``, ``E_ji x`` is
    ``E_{j,i+m}`` when ``i <= k`` and ``x E_ji`` is ``E_{j-m,i}`` when
    ``j > m``; the two never meet, since ``m >= 1``.  It is the one
    definition of the curve tangents: ``geometry.verify_curve`` checks it
    as the curve's linear coefficient and ``bk_span`` brackets it.
    """
    i, j, m = rt.i, rt.j, ctx.n - ctx.k
    if classify_root(ctx, i, j) is None:
        raise ValueError(f"root does not belong to {ctx}: {rt}")
    out: SparseMatrix = {}
    if i <= ctx.k:
        out[(j, i + m)] = 1
    if j > m:
        out[(j - m, i)] = -1
    return out


def root_coset_label(ctx: Context, rt: Root) -> OrbitLabel:
    """Label of the coset of the reflection ``r_(i,j)``."""
    return label_of(ctx, transposition(ctx.n, rt.i, rt.j))


def t_k_table(ctx: Context, lbl: OrbitLabel) -> tuple[tuple[Root, Perm | None], ...]:
    """Each root with a member of its reflection coset below the label
    product, or None: one reduced word of the product, walked down from
    every root's coset (``atlas.leq_witness``)."""
    word = reduced_word(label_perm(lbl))
    return tuple(
        (rt, descend(ctx, label_perm(root_coset_label(ctx, rt)), word)) for rt in phi_plus(ctx)
    )


def t_k_set(ctx: Context, lbl: OrbitLabel) -> tuple[Root, ...]:
    """Roots whose reflection coset lies below the label in closure order."""
    return tuple(rt for rt, witness in t_k_table(ctx, lbl) if witness is not None)


def t_k_masks(ctx: Context, table: CoverTable) -> list[int]:
    """Every label's ``t_k`` at once: bit ``r`` of ``masks[b]`` is set iff
    root ``r`` of ``phi_plus`` lies in ``t_k_set`` of label ``b``.

    Each root's bit starts on the label ``c`` of its reflection coset;
    then, by increasing dimension, each label ORs in the masks of its
    covers.  The root is in ``t_k(b)`` iff ``c <= b``, and the covers
    generate the closure order, as in any finite poset: ``c < b`` iff
    ``c <= a`` for some cover ``a`` of ``b``.  So ``masks[b]`` collects the
    bits of exactly the labels ``c <= b``.
    """
    labels, covers = table.labels, table.covers
    masks = [0] * len(labels)
    for bit, rt in enumerate(phi_plus(ctx)):  # ``labels`` is sorted: ``enumerate_labels``
        masks[bisect_left(labels, root_coset_label(ctx, rt))] |= 1 << bit
    for b in sorted(range(len(labels)), key=table.dims.__getitem__):
        for a in covers[b]:
            masks[b] |= masks[a]
    return masks


def tangent_lower_bound(
    ctx: Context, lbl: OrbitLabel, roots: tuple[Root, ...] | None = None
) -> int:
    """k(k+1)/2 + |t_k|: a lower bound for the tangent dimension at the
    base point of the labelled closure.  ``roots``, when given, is the
    label's ``t_k_set``."""
    return dim_y0(ctx) + len(t_k_set(ctx, lbl) if roots is None else roots)


def base_orbit_tangent_positions(ctx: Context) -> tuple[tuple[int, int], ...]:
    """Positions E_{r,s} spanning the base orbit's tangent space: the
    upper-triangular part of the corner block (r <= s - (n-k))."""
    n, k = ctx.n, ctx.k
    return tuple(
        (r, s)
        for r in range(1, k + 1)
        for s in range(n - k + 1, n + 1)
        if r <= s - (n - k)
    )


def full_corner_positions(ctx: Context) -> tuple[tuple[int, int], ...]:
    """All k^2 positions of the corner block {1..k} x {n-k+1..n}."""
    n, k = ctx.n, ctx.k
    return tuple(
        (r, s) for r in range(1, k + 1) for s in range(n - k + 1, n + 1)
    )


def borel_stabiliser_basis(ctx: Context) -> tuple[SparseMatrix, ...]:
    """Basis of the upper-triangular part of the base point's stabiliser
    algebra: paired corner blocks plus every block strictly above the
    diagonal of the (k, n-2k, k) block structure."""
    n, k = ctx.n, ctx.k
    m = n - k
    out = [
        {(a, b): 1, (a + m, b + m): 1}
        for a in range(1, k + 1)
        for b in range(a, k + 1)
    ]
    out += [{(a, b): 1} for a in range(k + 1, m + 1) for b in range(a, m + 1)]
    out += [{(a, b): 1} for a in range(1, k + 1) for b in range(k + 1, n + 1)]
    out += [{(a, b): 1} for a in range(k + 1, m + 1) for b in range(m + 1, n + 1)]
    return tuple(out)


def bracket(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    """The commutator ``xy - yx``, expanded bilinearly over matrix units by
    ``[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb``."""
    out: SparseMatrix = {}
    for (a, b), u in x.items():
        for (c, d), v in y.items():
            if b == c:
                out[(a, d)] = out.get((a, d), 0) + u * v
            if d == a:
                out[(c, b)] = out.get((c, b), 0) - u * v
    return {pos: val for pos, val in out.items() if val}


def _insert(pivots: dict[Key, dict[Key, int]], vec: Mapping[Key, int]) -> bool:
    """Add ``vec`` to the row echelon ``pivots``, whose rows are keyed by
    their leading (smallest) key; True if it was independent.  The one
    integer echelon: ``bracket_span``, ``geometry.tangent_stack_rank`` and
    the ``verify`` suite that ranks the representative matrices, row by
    row, all run on it.

    Each step cancels the leading entry of ``vec`` against the row with the
    same leading position, using integer multipliers; entries after it may
    change but none before it appear, so the leading position strictly
    increases.  A remainder that survives is stored divided by its content,
    which keeps the integers small.
    """
    while vec:
        lead = min(vec)
        row = pivots.get(lead)
        if row is None:
            content = gcd(*vec.values())
            pivots[lead] = {pos: val // content for pos, val in vec.items()}
            return True
        g = gcd(vec[lead], row[lead])
        a, b = vec[lead] // g, row[lead] // g
        out = {pos: b * val for pos, val in vec.items()}
        for pos, val in row.items():
            out[pos] = out.get(pos, 0) - a * val
        vec = {pos: val for pos, val in out.items() if val}
    return False


def bk_span(ctx: Context, lbl: OrbitLabel) -> int:
    """Dimension of the bracket closure, under the Borel stabiliser
    algebra, of the base-orbit tangent space plus the label's curve
    tangents.  Always a lower bound for the tangent dimension.

    Exact over the integers, which gives the rank over the rationals; a
    rank modulo a prime could fall short of it."""
    return bracket_span(ctx, t_k_set(ctx, lbl))


def bracket_span(ctx: Context, roots: tuple[Root, ...]) -> int:
    """``bk_span`` of the label whose ``t_k_set`` is ``roots``, for callers
    that already hold those roots."""
    seeds = [{pos: 1} for pos in base_orbit_tangent_positions(ctx)]
    seeds += [root_tangent(ctx, rt) for rt in roots]
    pivots: dict[tuple[int, int], SparseMatrix] = {}
    queue = [m for m in seeds if _insert(pivots, m)]
    borel = borel_stabiliser_basis(ctx)
    # [E_ab, E_cd] = 0 unless b = c or d = a: only the basis elements with a
    # column among v's rows or a row among v's columns bracket v to nonzero
    in_row = [set() for _ in range(ctx.n + 1)]
    in_col = [set() for _ in range(ctx.n + 1)]
    for pos, b in enumerate(borel):
        for r, c in b:
            in_row[r].add(pos)
            in_col[c].add(pos)
    while queue:
        v = queue.pop()
        for pos in sorted(set().union(*(in_col[r] | in_row[c] for r, c in v))):
            w = bracket(borel[pos], v)
            if _insert(pivots, w):
                queue.append(w)
    return len(pivots)


def omega_k(ctx: Context) -> Perm:
    """Longest element among the label ``alpha`` parts."""
    return tuple(range(ctx.k, 0, -1)) + tuple(range(ctx.k + 1, ctx.n + 1))


def o_k(ctx: Context) -> Perm:
    """Longest element of the block-diagonal Levi: each block reversed."""
    n, k = ctx.n, ctx.k
    return (
        tuple(range(k, 0, -1))
        + tuple(range(n - k, k, -1))
        + tuple(range(n, n - k, -1))
    )


Status = Literal["smooth", "singular", "unknown"]


class Verdict(NamedTuple):
    status: Status
    rule: str | None
    witness: dict


def _pattern_verdict(rule: str, w: Perm, patterns: tuple[Perm, ...]) -> Verdict:
    for pattern in patterns:
        positions = pattern_positions(w, pattern)
        if positions is not None:
            return Verdict(
                "singular",
                rule,
                {"pattern": list(pattern), "positions": list(positions)},
            )
    return Verdict(
        "smooth",
        rule,
        {"avoids": [list(p) for p in patterns], "tested": list(w)},
    )


def verdict(
    ctx: Context, lbl: OrbitLabel, roots: tuple[Root, ...] | None = None, dim: int | None = None
) -> Verdict:
    """First matching rule decides; falls through to ``unknown``.  A sweep
    (``verdicts``) passes the label's ``t_k_set`` as ``roots`` and its
    ``dimension`` as ``dim``; without them R4-R6 compute them.

    R1: rank one - singular exactly on one pattern in sigma.
    R2: alpha longest - smoothness of a Grassmannian Schubert variety.
    R3: sigma trivial - smoothness of a rank-k flag Schubert variety.
    R4: upper label - exact tangent count versus dimension.
    R5: tangent lower bound exceeds dimension.
    R6: bracket-closure span exceeds dimension.
    """
    if ctx.k == 1:
        return _pattern_verdict("R1", lbl.sigma, (RANK_ONE_PATTERN,))
    if lbl.alpha == omega_k(ctx):
        return _pattern_verdict(
            "R2", compose(lbl.sigma, o_k(ctx)), SINGULAR_PATTERNS
        )
    if lbl.sigma == identity(ctx.n):
        return _pattern_verdict("R3", lbl.alpha[: ctx.k], SINGULAR_PATTERNS)
    if dim is None:
        dim = dimension(ctx, lbl)
    if roots is None:
        roots = t_k_set(ctx, lbl)
    count = len(roots)
    moved = dim - dim_y0(ctx)  # length(sigma) + length(alpha)
    if is_upper_label(ctx, lbl):
        status = "smooth" if count == moved else "singular"
        return Verdict(status, "R4", {"t_k": count, "length": moved})
    bound = tangent_lower_bound(ctx, lbl, roots)
    if bound > dim:
        return Verdict(
            "singular", "R5", {"tangent_lower_bound": bound, "dimension": dim}
        )
    span = bracket_span(ctx, roots)
    if span > dim:
        return Verdict("singular", "R6", {"bk_span": span, "dimension": dim})
    return Verdict("unknown", None, {"tangent_lower_bound": bound, "bk_span": span, "dimension": dim})


def verdicts(ctx: Context, table: CoverTable) -> Iterator[Verdict]:
    """Each label's ``verdict``, in ``table.labels`` order: the dimension
    comes from ``table.dims`` and ``t_k`` from ``t_k_masks``, and labels
    with one mask share one tuple of roots."""
    phi = phi_plus(ctx)
    seen: dict[int, tuple[Root, ...]] = {}
    for lbl, dim, mask in zip(table.labels, table.dims, t_k_masks(ctx, table)):
        roots = seen.get(mask)
        if roots is None:
            roots = seen[mask] = tuple(rt for bit, rt in enumerate(phi) if mask >> bit & 1)
        yield verdict(ctx, lbl, roots, dim)


def verdict_json(ctx: Context, lbl: OrbitLabel, v: Verdict) -> dict:
    """The JSON record of label ``lbl`` with its verdict ``v``."""
    return {
        "label": {"n": ctx.n, "k": ctx.k, **label_fields(lbl)},
        "verdict": v.status,
        "rule": v.rule,
        "witness": v.witness,
    }


def report(ctx: Context, lbl: OrbitLabel) -> str:
    """The ``tangent`` text: the per-root table, ``t_k`` and the bounds."""
    lines = [f"# tangent data for {format_label(lbl)}  (n={ctx.n} k={ctx.k})"]
    table = t_k_table(ctx, lbl)
    kept = set(phi_plus_restricted(ctx))
    for (i, j), witness in table:
        status, wit = ("out", "-") if witness is None else ("in ", format_perm(witness))
        phi_n = "yes" if (i, j) in kept else "no "
        lines.append(
            f"  ({i},{j})  {classify_root(ctx, i, j):<13} phi_n={phi_n} t_k={status}  witness={wit}"
        )
    roots = tuple(rt for rt, witness in table if witness is not None)
    bound = tangent_lower_bound(ctx, lbl, roots)
    lines.append(f"  |t_k| = {len(roots)} of {len(table)} roots")
    lines.append(f"  tangent lower bound = {bound}")
    lines.append(f"  dimension = {dimension(ctx, lbl)}")
    if is_upper_label(ctx, lbl):
        lines.append(f"  tangent dimension (upper label) = {bound}")
    lines.append(f"  bracket-closure span = {bracket_span(ctx, roots)}")
    return "\n".join(lines) + "\n"


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
