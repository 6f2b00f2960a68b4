"""Exact curve geometry: identity verification and resolution blueprints.

The explicit curve of each stabiliser root, checked as identities between
matrices over ``Z[t]``, and the stacked tangent rank, which together
certify ``tangent``'s integer bookkeeping; and blueprints for the
Bott-Samelson-style resolutions read off a reduced word, with the
``blueprint`` command's text.
"""

from __future__ import annotations

from typing import NamedTuple

from .atlas import Context, OrbitLabel, format_label, label_perm
from .perms import evaluate_word, format_word, length, transposition
from .tangent import (
    DELTA, Root, SparseMatrix, _insert, classify_root, full_corner_positions, phi_plus, root_tangent,
)

#: A matrix over ``Z[t]``: 1-indexed ``(row, column, degree)`` to a nonzero
#: integer coefficient.
PolyMatrix = dict[tuple[int, int, int], int]


def _at(m: SparseMatrix, degree: int) -> PolyMatrix:
    """``t^degree * m``."""
    return {(r, c, degree): v for (r, c), v in m.items()}


def _add(*terms: PolyMatrix) -> PolyMatrix:
    out: PolyMatrix = {}
    for m in terms:
        for key, v in m.items():
            out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def _mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """The product, pairing each term ``(r, m, d)`` of ``a`` with the
    terms of row ``m`` of ``b``."""
    by_row: dict[int, list[tuple[int, int, int]]] = {}
    for (r, c, e), v in b.items():
        by_row.setdefault(r, []).append((c, e, v))
    out: PolyMatrix = {}
    for (r, m, d), u in a.items():
        for c, e, v in by_row.get(m, ()):
            out[(r, c, d + e)] = out.get((r, c, d + e), 0) + u * v
    return {key: v for key, v in out.items() if v}


def verify_curve(ctx: Context, rt: Root) -> tuple[str, ...]:
    """The curve identities of a root that fail, by name; none = pass.  Each
    is checked over ``Z[t]``, coefficient by coefficient, so that it holds
    for every ``t``.

    With ``x`` the base point, ``g = I + t E_{j,i}`` and the curve
    ``x + t root_tangent + t^2 Q``, where ``Q = -E_{i+n-k,i}`` for a DELTA
    root and 0 otherwise:
      * ``g (I - t E_{j,i}) = I``;
      * ``g x g^{-1}`` is the curve, so each of its points is conjugate to
        ``x``: square-zero of rank k, with tangent ``root_tangent`` at 0;
      * the curve squares to zero;
      * ``t^2 g = (tU) R (t I + E_{i,j})``, with ``R`` the reflection's
        permutation matrix and ``tU`` upper triangular with one monomial
        on each diagonal entry.  For ``t != 0``, ``U`` and
        ``I + t^{-1} E_{i,j}`` are invertible upper triangular, so ``g``
        lies in the Borel double coset of the reflection.
    """
    n, k = ctx.n, ctx.k
    i, j = rt.i, rt.j
    one = {(d, d): 1 for d in range(1, n + 1)}
    x = _at({(r, r + n - k): 1 for r in range(1, k + 1)}, 0)
    g = _add(_at(one, 0), _at({(j, i): 1}, 1))
    g_inv = _add(_at(one, 0), _at({(j, i): -1}, 1))
    quadratic = {(i + n - k, i): -1} if classify_root(ctx, i, j) == DELTA else {}
    point = _add(x, _at(root_tangent(ctx, rt), 1), _at(quadratic, 2))
    refl = {(v, c): 1 for c, v in enumerate(transposition(n, i, j), 1)}
    # tU = t R + t^2 E_jj - E_ii - t E_ji: the last term cancels R's entry
    # (j, i), and the diagonal reads t but -1 at i and t^2 at j
    borel = _add(_at(refl, 1), _at({(j, j): 1}, 2), _at({(i, i): -1}, 0), _at({(j, i): -1}, 1))
    diagonal = sorted(r for r, c, _ in borel if r == c)
    right = _add(_at(one, 1), _at({(i, j): 1}, 0))
    identities = {
        "inverse": _mul(g, g_inv) == _at(one, 0),
        "conjugation": _mul(_mul(g, x), g_inv) == point,
        "square-zero": not _mul(point, point),
        "factor-not-borel": all(r <= c for r, c, _ in borel) and diagonal == list(range(1, n + 1)),
        "factorisation": _mul(_mul(borel, _at(refl, 0)), right) == _mul(_at(one, 2), g),
    }
    return tuple(name for name, holds in identities.items() if not holds)


def tangent_stack_rank(ctx: Context) -> int:
    """Rank of all corner-block positions stacked with all curve tangents,
    on ``tangent``'s integer echelon: the curve tangents are integral."""
    stack = [{pos: 1} for pos in full_corner_positions(ctx)]
    stack += [root_tangent(ctx, rt) for rt in phi_plus(ctx)]
    pivots: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    return sum(_insert(pivots, vec) for vec in stack)


class ResolutionBlueprint(NamedTuple):
    """Flag-chain data for a Bott-Samelson-style resolution.

    Row ``s`` lists the subspace symbols of the s-th flag; flag ``s``
    agrees with flag ``s-1`` (row 0 being the standard flag ``K1..Kn``)
    everywhere except position ``moves[s-1]``.  Symbols surviving into the
    final flag are named ``W<dim>``; transient ones ``U<dim>`` (primed on
    reuse).  ``relations`` are the compatibility constraints tying the
    matrix to the final flag.
    """

    moves: tuple[int, ...]
    flags: tuple[tuple[str, ...], ...]
    relations: tuple[str, ...]


def resolution_blueprint(
    ctx: Context, lbl: OrbitLabel, word: tuple[int, ...]
) -> ResolutionBlueprint:
    """Blueprint from a reduced word for the label's product permutation."""
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    if evaluate_word(n, word) != tau:
        raise ValueError(
            f"word does not evaluate to the label product {tau}"
        )
    if len(word) != length(tau):  # a word for tau is reduced iff it has tau's length
        raise ValueError("word is not reduced")

    names = []
    dead_seen: dict[int, int] = {}
    for s, pos in enumerate(word):
        if any(later == pos for later in word[s + 1 :]):
            primes = "'" * dead_seen.get(pos, 0)
            dead_seen[pos] = dead_seen.get(pos, 0) + 1
            names.append(f"U{pos}{primes}")
        else:
            names.append(f"W{pos}")

    current = [f"K{m}" for m in range(1, n + 1)]
    rows = []
    for s, pos in enumerate(word):
        current[pos - 1] = names[s]
        rows.append(tuple(current))

    relations = [f"{current[n - k - 1]} <= Ker(u)"]
    for i in range(n - k + 1, n + 1):
        relations.append(f"u({current[i - 1]}) <= {current[i - (n - k) - 1]}")

    return ResolutionBlueprint(tuple(word), tuple(rows), tuple(relations))


def blueprint_text(ctx: Context, lbl: OrbitLabel, bp: ResolutionBlueprint) -> str:
    """The table form of a blueprint: one line per flag, then the relations."""
    lines = [
        f"# blueprint for {format_label(lbl)} via word {format_word(bp.moves)}",
        f"  flags: {len(bp.moves)}",
    ]
    standard = tuple(f"K{m}" for m in range(1, ctx.n + 1))
    lines.append("  V0: " + " < ".join(standard) + "   (standard flag)")
    for s, row in enumerate(bp.flags, start=1):
        lines.append(f"  V{s}: " + " < ".join(row) + f"   (changed at {bp.moves[s - 1]})")
    lines.append("  matrix constraints:")
    for rel in bp.relations:
        lines.append(f"    {rel}")
    return "\n".join(lines) + "\n"


def blueprint_json(ctx: Context, bp: ResolutionBlueprint) -> dict:
    """The JSON document of a blueprint."""
    return {
        "flags": len(bp.moves),
        "moves": list(bp.moves),
        "compat": f"2-nilpotent rank <= {ctx.k}, V_r-compatible",
        "chain": [" < ".join(row) for row in bp.flags],
        "relations": list(bp.relations),
    }
