"""Exact curve geometry: identity verification and resolution blueprints.

The explicit rational curves of the stabiliser roots, with the curve and
factorisation identities and the stacked tangent rank that certify
``tangent``'s integer bookkeeping, and blueprints for the
Bott-Samelson-style resolutions read off a reduced word, with the
``blueprint`` command's text.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .atlas import Context, OrbitLabel, format_label, label_perm
from .perms import evaluate_word, format_word, length, transposition
from .ratmat import RationalMatrix, exact
from .tangent import DELTA, Root, _insert, full_corner_positions, phi_plus, root_tangent


class CurveSpec(NamedTuple):
    """A curve ``t -> constant + t*linear + t^2*quadratic`` in the closure."""

    root: Root
    constant: RationalMatrix
    linear: RationalMatrix
    quadratic: RationalMatrix

    def point(self, t: Fraction | int) -> RationalMatrix:
        t = exact(t)
        return self.constant + t * self.linear + (t * t) * self.quadratic


def base_point(ctx: Context) -> RationalMatrix:
    """The base matrix ``sum_{r<=k} E_{r, r+n-k}``."""
    n, k = ctx.n, ctx.k
    return RationalMatrix.from_entries(n, {(r, r + n - k): 1 for r in range(1, k + 1)})


def curve(ctx: Context, rt: Root) -> CurveSpec:
    """The explicit curve attached to a stabiliser root: linear coefficient
    from ``tangent.root_tangent``, plus a quadratic term for the DELTA
    family."""
    n, k = ctx.n, ctx.k
    linear = RationalMatrix.from_entries(n, root_tangent(ctx, rt))
    quadratic = RationalMatrix.zero(n)
    if rt.family == DELTA:
        quadratic = -RationalMatrix.elementary(n, rt.i + n - k, rt.i)
    return CurveSpec(rt, base_point(ctx), linear, quadratic)


def is_two_nilpotent_of_rank(m: RationalMatrix, k: int) -> bool:
    return (m * m).is_zero() and m.rank() == k


class CurveReport(NamedTuple):
    """Outcome of the per-sample curve identities; empty failures = pass."""

    root: Root
    samples: tuple[Fraction, ...]
    failures: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


#: The curve samples of ``verify`` when ``--samples`` is not given.
DEFAULT_SAMPLES: tuple[Fraction, ...] = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3))


def verify_curve(
    ctx: Context, rt: Root, samples: tuple[Fraction, ...] = DEFAULT_SAMPLES
) -> CurveReport:
    """Check the curve of a root pointwise, with exact arithmetic.

    Per sample t != 0:
      * the curve point is square-zero of rank k;
      * it equals the conjugate of the base point by I + t E_{j,i};
      * I + t E_{j,i} factors as (upper triangular, invertible) *
        (reflection permutation matrix) * (I + t^{-1} E_{i,j}), certifying
        which Borel double coset the conjugator lives in;
      * subtracting the base point and the quadratic term leaves exactly
        t times the tabulated tangent vector.
    """
    n, k = ctx.n, ctx.k
    spec = curve(ctx, rt)
    E = RationalMatrix.elementary
    ident = RationalMatrix.matrix_identity(n)
    i, j = rt.i, rt.j
    x = base_point(ctx)
    failures: list[tuple[str, str]] = []

    if spec.point(0) != x:
        failures.append(("0", "constant-term"))

    for t in samples:
        t = exact(t)  # an integral sample keeps every product in ints
        tag = str(t)
        p = spec.point(t)
        if not (p * p).is_zero() or p.rank() != k:
            failures.append((tag, "square-zero-rank"))
        lower = ident + t * E(n, j, i)
        lower_inv = ident - t * E(n, j, i)
        if p != lower * x * lower_inv:
            failures.append((tag, "conjugation"))
        reconstructed = p - x - (t * t) * spec.quadratic
        if reconstructed != t * spec.linear:
            failures.append((tag, "linear-coefficient"))
        if t == 0:
            continue
        inv = Fraction(1, t)
        refl = RationalMatrix.permutation(transposition(n, i, j))
        upper = refl + t * E(n, j, j) - inv * E(n, i, i) - E(n, j, i)
        if not upper.is_upper_triangular() or any(
            upper.entry(d, d) == 0 for d in range(1, n + 1)
        ):
            failures.append((tag, "factor-not-borel"))
        if upper * refl * (ident + inv * E(n, i, j)) != lower:
            failures.append((tag, "factorisation"))
    return CurveReport(rt, tuple(Fraction(t) for t in samples), tuple(failures))


def tangent_stack_rank(ctx: Context) -> int:
    """Rank of all corner-block positions stacked with all curve tangents,
    on ``tangent``'s integer echelon: the curve tangents are integral."""
    stack = [{pos: 1} for pos in full_corner_positions(ctx)]
    stack += [curve(ctx, rt).linear.entries for rt in phi_plus(ctx)]
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

    n: int
    k: int
    moves: tuple[int, ...]
    flags: tuple[tuple[str, ...], ...]
    final: tuple[str, ...]
    relations: tuple[str, ...]


def resolution_blueprint(
    ctx: Context, lbl: OrbitLabel, word: tuple[int, ...]
) -> ResolutionBlueprint:
    """Blueprint from a reduced word for the label's product permutation."""
    n, k = ctx.n, ctx.k
    tau = label_perm(lbl)
    for letter in word:
        if not 1 <= letter <= n - 1:
            raise ValueError(f"letter out of range: s_{letter}")
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
    final = rows[-1] if rows else tuple(current)

    relations = [f"{final[n - k - 1]} <= Ker(u)"]
    for i in range(n - k + 1, n + 1):
        relations.append(f"u({final[i - 1]}) <= {final[i - (n - k) - 1]}")

    return ResolutionBlueprint(
        n, k, tuple(word), tuple(rows), final, tuple(relations)
    )


def blueprint_text(lbl: OrbitLabel, bp: ResolutionBlueprint) -> str:
    """The table form of a blueprint: one line per flag, then the relations."""
    lines = [
        f"# blueprint for {format_label(lbl)} via word {format_word(bp.moves)}",
        f"  flags: {len(bp.moves)}",
    ]
    standard = tuple(f"K{m}" for m in range(1, bp.n + 1))
    lines.append("  V0: " + " < ".join(standard) + "   (standard flag)")
    for s, row in enumerate(bp.flags, start=1):
        lines.append(f"  V{s}: " + " < ".join(row) + f"   (changed at {bp.moves[s - 1]})")
    lines.append("  matrix constraints:")
    for rel in bp.relations:
        lines.append(f"    {rel}")
    return "\n".join(lines) + "\n"


def blueprint_to_json(bp: ResolutionBlueprint) -> str:
    import json  # only JSON output loads it

    return json.dumps(
        {
            "flags": len(bp.moves),
            "moves": list(bp.moves),
            "compat": f"2-nilpotent rank <= {bp.k}, V_r-compatible",
            "chain": [" < ".join(row) for row in bp.flags],
            "relations": list(bp.relations),
        },
        indent=2,
    )
