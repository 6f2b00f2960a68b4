"""Self-check suites for one context: each fast path against its
independent oracle, every counting law, and the curve and tangent-span
identities, and the ``verify`` command's text.
"""

from __future__ import annotations

import itertools
import math

from . import atlas, geometry, poset, springer, tangent
from .atlas import Context, OrbitCoset, OrbitLabel
from .perms import Perm, length, lower_interval, reduced_word, transposition

#: One suite's outcome: its name, whether it passed, and what it checked.
Suite = tuple[str, bool, str]


def min_length_reps(coset: OrbitCoset) -> tuple[Perm, ...]:
    """The members of ``coset`` of minimal length: each label product is one of them."""
    lengths = [length(m) for m in coset.members]
    shortest = min(lengths)
    return tuple(m for m, ell in zip(coset.members, lengths) if ell == shortest)


def run_suites(ctx: Context) -> tuple[list[Suite], list[OrbitLabel]]:
    """The suites in their fixed order, and the orbital varieties whose
    verdict is singular."""
    suites: list[Suite] = []
    table = poset.cover_table(ctx)
    labels = table.labels

    expected = math.factorial(ctx.n) // (
        math.factorial(ctx.k) * math.factorial(ctx.n - 2 * ctx.k)
    )
    # one sweep of S_n: ``owner`` maps each permutation, swept ``p`` too, to its coset
    cosets: list[OrbitCoset] = []
    owner: dict[Perm, int] = {}
    for p in itertools.permutations(range(1, ctx.n + 1)):
        if p not in owner:
            cosets.append(atlas.coset_of(ctx, p))
            owner.update(dict.fromkeys((p, *cosets[-1].members), len(cosets) - 1))
    suites.append((
        "label-count",
        len(labels) == expected == len(cosets),
        f"{len(labels)} labels, {len(cosets)} cosets, formula {expected}",
    ))

    products = [atlas.label_perm(lbl) for lbl in labels]
    ok = True
    for lbl, w in zip(labels, products):
        coset = cosets[owner[w]]
        if w not in min_length_reps(coset):
            ok = False
        if length(w) != length(lbl.sigma) + length(lbl.alpha):
            ok = False
        if any(atlas.label_of(ctx, m) != lbl for m in coset.members):
            ok = False
    suites.append(("minimal-representatives", ok, f"{len(labels)} labels checked"))

    ok = True
    for lbl in labels:
        m = atlas.rep_matrix(ctx, lbl)
        square = geometry._mul(geometry._at(m, 0), geometry._at(m, 0))  # over Z[t], in degree 0
        rows: dict[int, dict[int, int]] = {}
        for (r, c), v in m.items():
            rows.setdefault(r, {})[c] = v
        pivots: dict[int, dict[int, int]] = {}
        rank = sum(tangent._insert(pivots, row) for row in rows.values())
        if square or rank != ctx.k:
            ok = False
        if atlas.is_upper_label(ctx, lbl) != all(r < c for r, c in m):
            ok = False
    suites.append(("representative-matrices", ok, f"{len(labels)} labels checked"))

    upper = [lbl for lbl in labels if atlas.is_upper_label(ctx, lbl)]
    invol = springer.count_involutions(ctx.n, ctx.k)
    images = {springer.involution_tau(ctx, lbl) for lbl in upper}
    suites.append((
        "involution-bijection",
        len(upper) == invol == len(images),
        f"{len(upper)} upper labels, {invol} involutions",
    ))

    hook = springer.count_standard_tableaux(ctx)
    brute = springer.count_standard_tableaux_bruteforce(ctx)
    orbital = [lbl for lbl in labels if springer.is_orbital_variety(ctx, lbl)]
    suites.append((
        "orbital-varieties",
        hook == brute == len(orbital),
        f"{len(orbital)} components, hook {hook}, direct {brute}",
    ))

    g = poset.hasse(ctx)
    generated = [1 << j for j in range(len(labels))]  # bit i of j: i <= j, as the covers generate
    for i, j in sorted(g.covers, key=lambda cover: g.dims[cover[1]]):
        generated[j] |= generated[i]
    roots = tangent.phi_plus(ctx)
    root_bits: dict[int, int] = {}  # a reflection's coset in ``cosets`` -> the bits of its roots
    for bit, rt in enumerate(roots):
        reflection = owner[transposition(ctx.n, rt.i, rt.j)]
        root_bits[reflection] = root_bits.get(reflection, 0) | 1 << bit
    ok = True
    for j, w in enumerate(products):
        # ``met``: the cosets meeting target ``j``'s subword interval (at most
        # n(n-1)/2 letters), ``poset.leq_oracle`` for every source at once;
        # ``below``: the roots whose reflection coset descends to ``j``
        interval = lower_interval(w, ctx.n * (ctx.n - 1) // 2)
        met = {owner[m] for m in interval}
        word = reduced_word(w)
        below = 0
        for i, u in enumerate(products):
            witness, inside = atlas.descend(ctx, u, word), generated[j] >> i & 1
            if witness is None:
                ok = ok and owner[u] not in met and not inside
            else:
                ok = ok and witness in interval and owner[witness] == owner[u] and inside == 1
                below |= root_bits.get(owner[u], 0)
        ok = ok and table.masks[j] == below
    suites.append(("closure-order-oracle", ok, f"{len(labels)}^2 ordered pairs"))

    suites.append((
        "curves",
        not any(geometry.verify_curve(ctx, rt) for rt in roots),
        f"{len(roots)} roots, identities in Z[t]",
    ))

    stack_rank = geometry.tangent_stack_rank(ctx)
    suites.append((
        "tangent-span",
        stack_rank == atlas.dim_orbit(ctx),
        f"rank {stack_rank}, orbit dimension {atlas.dim_orbit(ctx)}",
    ))

    try:
        poset.minimum(g), poset.maximum(g)
        ok = all(g.dims[j] == g.dims[i] + 1 for i, j in g.covers)  # graded: see poset.hasse
    except ValueError:
        ok = False
    ok = ok and {(i, j) for i, j, _ in g.weak} <= set(g.covers)
    suites.append(("hasse", ok, f"{len(g.covers)} covers, {len(g.weak)} weak edges"))

    # each swept verdict, read off the masks and ``table.dims``, against the
    # one-label verdict, read off descent walks and lengths; on an upper
    # label R4 makes |t_k| exact, so the bracket span, a lower bound that
    # contains the counted tangents, must equal the count
    statuses, ok = {}, True
    for lbl, v in zip(labels, poset.verdicts(ctx, table)):
        statuses[lbl] = v.status
        ok = ok and v == tangent.verdict(ctx, lbl)
        if atlas.is_upper_label(ctx, lbl):
            t_k = tangent.t_k_set(ctx, lbl)
            ok = ok and tangent.bracket_span(ctx, t_k) == tangent.tangent_lower_bound(ctx, lbl, t_k)
    singular_orbital = [lbl for lbl in orbital if statuses[lbl] == "singular"]
    suites.append(("verdicts", ok, f"{len(singular_orbital)} singular orbital varieties"))
    return suites, singular_orbital


def report(ctx: Context) -> tuple[bool, str]:
    """Whether every suite passed, and the ``verify`` text: one line per
    suite, then the tangent report of each singular orbital variety."""
    suites, singular_orbital = run_suites(ctx)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in suites]
    lines += [tangent.report(ctx, lbl).rstrip("\n") for lbl in singular_orbital]
    return all(ok for _, ok, _ in suites), "\n".join(lines) + "\n"
