"""Stabiliser roots, curve tangents, t_k counting, bracket spans, verdicts."""

import random

import pytest

from borbit import geometry, tangent
from borbit.atlas import (
    Context,
    dim_orbit,
    dimension,
    enumerate_labels,
    is_upper_label,
    label,
    label_of,
    label_perm,
    leq,
    leq_witness,
    rep_matrix,
)
from borbit.perms import bruhat_leq, identity
from borbit.poset import cover_table
from borbit.tangent import (
    CROSS_FAR,
    DELTA,
    INSIDE_GLK,
    MIDDLE_BOTTOM,
    TOP_MIDDLE,
    Root,
    _insert,
    base_orbit_tangent_positions,
    bk_span,
    borel_stabiliser_basis,
    bracket,
    classify_root,
    full_corner_positions,
    o_k,
    omega_k,
    phi_plus,
    phi_plus_restricted,
    root_coset_label,
    root_tangent,
    t_k_masks,
    t_k_set,
    t_k_table,
    tangent_lower_bound,
    verdict,
    verdict_json,
    verdicts,
)
from dense import add, dense, flat, gauss_rank, mul, permutation

CTX42 = Context(4, 2)
CTX41 = Context(4, 1)
CTX62 = Context(6, 2)
ID4 = identity(4)
ID6 = identity(6)


def pairs(roots):
    return sorted((r.i, r.j) for r in roots)


def test_root_families_partition_phi_plus():
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3)]:
        ctx = Context(n, k)
        roots = phi_plus(ctx)
        assert len(roots) == 2 * k * (n - k) - k * (k + 1) // 2
        assert len({(r.i, r.j) for r in roots}) == len(roots)
        assert all(classify_root(ctx, r.i, r.j) is not None for r in roots)
        # pairs inside the middle block never stabilise the base point
        for i in range(k + 1, n - k + 1):
            for j in range(i + 1, n - k + 1):
                assert classify_root(ctx, i, j) is None
        assert classify_root(ctx, 1, 1) is None


def test_phi_plus_41():
    assert pairs(phi_plus(CTX41)) == [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
    families = {r: classify_root(CTX41, *r) for r in phi_plus(CTX41)}
    assert families[(1, 4)] == DELTA
    assert families[(1, 2)] == TOP_MIDDLE
    assert families[(3, 4)] == MIDDLE_BOTTOM


def test_phi_plus_42():
    families = {r: classify_root(CTX42, *r) for r in phi_plus(CTX42)}
    assert families == {
        (1, 2): INSIDE_GLK,
        (1, 3): DELTA,
        (1, 4): CROSS_FAR,
        (2, 3): CROSS_FAR,
        (2, 4): DELTA,
    }


def test_restricted_roots_62():
    kept = {(r.i, r.j) for r in phi_plus_restricted(CTX62)}
    dropped = {(r.i, r.j) for r in phi_plus(CTX62)} - kept
    assert dropped == {(1, 5), (2, 5), (2, 6)}
    assert (1, 6) in kept
    assert len(phi_plus(CTX62)) == 13


def test_root_constructor_rejects_non_roots():
    assert Root._fields == ("i", "j")
    assert classify_root(CTX42, 3, 4) is None  # inside the last block
    assert classify_root(CTX42, 2, 2) is None
    for foreign in (Root(3, 4), Root(1, 5)):  # inside the last block; beyond n
        with pytest.raises(ValueError):
            root_tangent(CTX42, foreign)


def base_point(ctx):
    """The representative of the base label ``sigma = alpha = id``, as a
    dense reference matrix."""
    ident = identity(ctx.n)
    return dense(rep_matrix(ctx, label(ctx, ident, ident)), ctx.n)


def conjugated_base_point(ctx, rt, t):
    """``g x g^-1`` for ``g = I + t E_ji``, whose inverse is ``I - t E_ji``."""
    n = ctx.n
    ident, e_ji = permutation(identity(n)), dense({(rt.j, rt.i): 1}, n)
    return mul(mul(add(ident, e_ji, t), base_point(ctx)), add(ident, e_ji, -t))


def curve_point(ctx, rt, t):
    """``x + t root_tangent + t^2 Q``, with ``Q = -E_{i+n-k,i}`` for a
    DELTA root and 0 otherwise."""
    n, k = ctx.n, ctx.k
    point = add(base_point(ctx), dense(root_tangent(ctx, rt), n), t)
    if classify_root(ctx, rt.i, rt.j) == DELTA:
        point = add(point, dense({(rt.i + n - k, rt.i): 1}, n), -t * t)
    return point


def test_base_point():
    assert rep_matrix(CTX42, label(CTX42, ID4, ID4)) == {(1, 3): 1, (2, 4): 1}
    x = base_point(CTX42)
    assert x == dense({(1, 3): 1, (2, 4): 1}, 4)
    assert not any(flat(mul(x, x)))
    assert gauss_rank(x) == 2


def test_curve_coefficients_by_family():
    # frozen linear and quadratic coefficients; both sides of the curve
    # identity have degree at most 2 in t, so three values of t prove it
    cases = [
        (CTX41, 1, 4, {(4, 4): 1, (1, 1): -1}, {(4, 1): -1}),  # delta family
        (CTX41, 1, 2, {(2, 4): 1}, {}),  # top-middle
        (CTX41, 2, 4, {(1, 2): -1}, {}),  # middle-bottom
        (CTX42, 1, 2, {(2, 3): 1}, {}),  # inside the invertible corner
        (CTX42, 1, 4, {(4, 3): 1, (2, 1): -1}, {}),  # cross pairing far blocks
    ]
    for ctx, i, j, linear, quadratic in cases:
        rt = Root(i, j)
        linear, quadratic = dense(linear, 4), dense(quadratic, 4)
        assert dense(root_tangent(ctx, rt), 4) == linear
        for t in (1, -1, 2):
            expected = add(add(base_point(ctx), linear, t), quadratic, t * t)
            assert conjugated_base_point(ctx, rt, t) == expected


def test_root_tangent_is_the_bracket_with_the_base_point():
    # [E_ji, x] = E_ji x - x E_ji, multiplied out densely, for every root
    for n in range(1, 9):
        for k in range(n // 2 + 1):
            ctx = Context(n, k)
            x = base_point(ctx)
            for rt in phi_plus(ctx):
                e_ji = dense({(rt.j, rt.i): 1}, n)
                expected = add(mul(e_ji, x), mul(x, e_ji), -1)
                assert dense(root_tangent(ctx, rt), n) == expected, (n, k, rt)


def test_curve_points_stay_in_the_closure():
    # every sampled point is square-zero of rank exactly k (conjugate to
    # the base point for t != 0, equal to it for t == 0)
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 2)]:
        ctx = Context(n, k)
        for rt in phi_plus(ctx):
            for t in (0, 1, -1, 2):
                p = curve_point(ctx, rt, t)
                assert not any(flat(mul(p, p)))
                assert gauss_rank(p) == k


def test_root_coset_labels():
    lbl = root_coset_label(CTX42, Root(1, 2))
    assert lbl == label(CTX42, ID4, (2, 1, 3, 4))
    lbl = root_coset_label(CTX42, Root(2, 3))
    assert lbl == label(CTX42, (1, 3, 2, 4), ID4)
    assert label_perm(lbl) == (1, 3, 2, 4)


def test_t_k_frozen_values_42():
    assert pairs(t_k_set(CTX42, label(CTX42, (2, 4, 1, 3), ID4))) == [
        (1, 2),
        (1, 4),
        (2, 3),
    ]
    assert pairs(t_k_set(CTX42, label(CTX42, (3, 4, 1, 2), ID4))) == [
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
    ]
    assert pairs(t_k_set(CTX42, label(CTX42, ID4, ID4))) == []
    assert pairs(t_k_set(CTX42, label(CTX42, ID4, (2, 1, 3, 4)))) == [(1, 2)]


def test_t_k_frozen_values_62():
    lbl = label(CTX62, (2, 4, 1, 6, 3, 5), ID6)
    assert pairs(t_k_set(CTX62, lbl)) == [
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 5),
        (3, 6),
        (4, 5),
        (4, 6),
    ]
    kept = set(phi_plus_restricted(CTX62))
    table = {
        (rt.i, rt.j): (witness is not None, rt in kept, witness)
        for rt, witness in t_k_table(CTX62, lbl)
    }
    assert len(table) == 13
    assert table[(1, 2)][0] and table[(1, 2)][1]
    assert table[(1, 5)] == (False, False, None)
    assert table[(2, 5)][1] is False and table[(2, 6)][1] is False
    assert table[(1, 6)] == (False, True, None)
    assert table[(4, 6)][0] and table[(4, 6)][1]
    assert table[(1, 3)][2] == (2, 3, 1, 4, 6, 5)


@pytest.mark.parametrize("n, k", [(64, 32), (64, 16)])
def test_t_k_table_matches_the_pairwise_query_at_64(n, k):
    # one walk per root down one shared word answers what one pairwise
    # query per root answers, witness for witness
    ctx = Context(n, k)
    rng = random.Random(n * k)
    for _ in range(3):
        lbl = label_of(ctx, tuple(rng.sample(range(1, n + 1), n)))
        table = t_k_table(ctx, lbl)
        assert [rt for rt, _ in table] == list(phi_plus(ctx))
        for rt, witness in table:
            coset = root_coset_label(ctx, rt)
            assert witness == leq_witness(ctx, coset, lbl)
            if witness is not None:
                assert label_of(ctx, witness) == coset
                assert bruhat_leq(witness, label_perm(lbl))


@pytest.mark.parametrize("n", range(1, 9))
def test_the_cover_masks_give_t_k_set(n):
    """Each root's bit, ORed up the covers, gives ``t_k_set`` on every label,
    and the sweep that reads the masks and ``table.dims`` gives every
    label's one-label verdict."""
    for k in range(n // 2 + 1):
        ctx = Context(n, k)
        table = cover_table(ctx)
        phi = phi_plus(ctx)
        decoded = [
            tuple(rt for bit, rt in enumerate(phi) if mask >> bit & 1)
            for mask in t_k_masks(ctx, table)
        ]
        assert decoded == [t_k_set(ctx, lbl) for lbl in table.labels], ctx
        assert list(verdicts(ctx, table)) == [verdict(ctx, lbl) for lbl in table.labels], ctx


@pytest.mark.parametrize("n, k", [(5, 2), (6, 3)])
def test_the_sweep_reads_every_dimension_off_the_table(monkeypatch, n, k):
    ctx = Context(n, k)
    table = cover_table(ctx)

    def refuse(ctx, lbl):
        raise AssertionError(f"the sweep recomputed the dimension of {lbl}")

    monkeypatch.setattr(tangent, "dimension", refuse)
    assert len(list(verdicts(ctx, table))) == len(table.labels)


def test_t_k_is_monotone_in_the_closure_order():
    labels = enumerate_labels(CTX42)
    tk = {lbl: set(pairs(t_k_set(CTX42, lbl))) for lbl in labels}
    for a in labels:
        for b in labels:
            if leq(CTX42, a, b):
                assert tk[a] <= tk[b]


def s_set(ctx, lbl):
    """The t_k roots that survive the upper-label restriction."""
    restricted = set(phi_plus_restricted(ctx))
    return tuple(rt for rt in t_k_set(ctx, lbl) if rt in restricted)


def test_s_set_keeps_only_restricted_roots():
    # on the worked size-6 example the restriction drops nothing from t_k
    lbl = label(CTX62, (2, 4, 1, 6, 3, 5), ID6)
    assert pairs(s_set(CTX62, lbl)) == pairs(t_k_set(CTX62, lbl))
    # in general s_set is exactly the intersection of t_k with the kept roots
    for n, k in [(4, 2), (5, 2), (6, 2)]:
        ctx = Context(n, k)
        kept = {(r.i, r.j) for r in phi_plus_restricted(ctx)}
        for lab in enumerate_labels(ctx):
            tk = {(r.i, r.j) for r in t_k_set(ctx, lab)}
            assert {(r.i, r.j) for r in s_set(ctx, lab)} == tk & kept


def test_tangent_bounds():
    assert tangent_lower_bound(CTX42, label(CTX42, (3, 4, 1, 2), ID4)) == 8
    assert tangent_lower_bound(CTX42, label(CTX42, (2, 4, 1, 3), ID4)) == 6
    l41 = label(CTX41, (3, 1, 4, 2), ID4)
    assert pairs(t_k_set(CTX41, l41)) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert tangent_lower_bound(CTX41, l41) == 5
    assert dimension(CTX41, l41) == 4
    lbl62 = label(CTX62, (2, 4, 1, 6, 3, 5), ID6)
    assert is_upper_label(CTX62, lbl62)
    assert tangent_lower_bound(CTX62, lbl62) == 12


def test_tangent_positions():
    assert base_orbit_tangent_positions(CTX42) == ((1, 3), (1, 4), (2, 4))
    assert full_corner_positions(CTX42) == ((1, 3), (1, 4), (2, 3), (2, 4))
    assert len(base_orbit_tangent_positions(Context(6, 3))) == 6
    assert len(full_corner_positions(Context(6, 3))) == 9


def test_sparse_bracket_matches_dense_commutators():
    units = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    for a, b in units:
        for c, d in units:
            x, y = dense({(a, b): 1}, 4), dense({(c, d): 1}, 4)
            sparse = bracket({(a, b): 1}, {(c, d): 1})
            assert dense(sparse, 4) == add(mul(x, y), mul(y, x), -1)
            assert 0 not in sparse.values()


def test_borel_stabiliser_basis_spans_the_upper_centraliser():
    # The centraliser of x among upper-triangular matrices is the kernel of
    # X -> Xx - xX on the upper matrix units; its dimension comes from an
    # independent dense rank.
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 3)]:
        ctx = Context(n, k)
        x = base_point(ctx)
        basis = [dense(b, n) for b in borel_stabiliser_basis(ctx)]
        for b in basis:
            assert not any(any(row[:r]) for r, row in enumerate(b))  # upper triangular
            assert mul(b, x) == mul(x, b)
        assert gauss_rank([flat(b) for b in basis]) == len(basis)
        units = [dense({(a, c): 1}, n) for a in range(1, n + 1) for c in range(a, n + 1)]
        images = [flat(add(mul(e, x), mul(x, e), -1)) for e in units]
        assert len(basis) == len(units) - gauss_rank(images)


def dense_bracket_span(ctx, lbl):
    """Reference for ``bk_span``: the same closure with dense commutators,
    a candidate kept when it raises the ``gauss_rank`` (Gaussian
    elimination over the rationals) of the kept ones."""
    n = ctx.n
    borel = [dense(b, n) for b in borel_stabiliser_basis(ctx)]
    seeds = [dense({pos: 1}, n) for pos in base_orbit_tangent_positions(ctx)]
    seeds += [dense(root_tangent(ctx, rt), n) for rt in t_k_set(ctx, lbl)]
    kept = []

    def keep(m):
        if gauss_rank([flat(v) for v in kept + [m]]) > len(kept):
            kept.append(m)
            return True
        return False

    queue = [m for m in seeds if keep(m)]
    while queue:
        v = queue.pop()
        for b in borel:
            w = add(mul(b, v), mul(v, b), -1)
            if keep(w):
                queue.append(w)
    return len(kept)


def test_bk_span_matches_the_dense_reference():
    for lbl in enumerate_labels(CTX42):
        assert bk_span(CTX42, lbl) == dense_bracket_span(CTX42, lbl)
    ctx = Context(5, 2)
    checked = 0
    for lbl in enumerate_labels(ctx):
        if verdict(ctx, lbl).rule in ("R6", None):
            assert bk_span(ctx, lbl) == dense_bracket_span(ctx, lbl)
            checked += 1
    assert checked == 8


def dense_stack_rank(ctx):
    """Reference for ``geometry.tangent_stack_rank``: the ``gauss_rank`` of
    the corner-block units stacked with the curve tangents, as dense rows."""
    stack = [{pos: 1} for pos in full_corner_positions(ctx)]
    stack += [root_tangent(ctx, rt) for rt in phi_plus(ctx)]
    return gauss_rank([flat(dense(m, ctx.n)) for m in stack])


def test_a_dependent_vector_taken_as_independent_misses_the_dense_references(monkeypatch):
    """A planted fault in the integer echelon: in each echelon, the first
    nonzero vector that ``_insert`` finds dependent goes in as a pivot of
    its own.  ``bk_span`` and ``tangent_stack_rank`` then rise by one, and
    their dense references, whose rank shares no code with ``_insert``,
    do not."""
    lbl = label(CTX42, (2, 4, 1, 3), ID4)
    assert bk_span(CTX42, lbl) == dense_bracket_span(CTX42, lbl) == 7
    assert geometry.tangent_stack_rank(CTX42) == dense_stack_rank(CTX42) == dim_orbit(CTX42) == 8
    planted = object()  # a key that no vector leads with

    def faulty(pivots, vec):
        if _insert(pivots, vec):
            return True
        if vec and planted not in pivots:
            pivots[planted] = dict(vec)
            return True
        return False

    monkeypatch.setattr(tangent, "_insert", faulty)
    monkeypatch.setattr(geometry, "_insert", faulty)  # ``geometry`` holds a copied binding
    assert bk_span(CTX42, lbl) == 8 != dense_bracket_span(CTX42, lbl)
    assert geometry.tangent_stack_rank(CTX42) == 9 != dense_stack_rank(CTX42)


def unindexed_bracket_span(ctx, lbl):
    """Reference for the basis index of ``bk_span``: the same integer
    closure, bracketing each queued vector with every basis element; the
    span and the nonzero brackets in the order they arose."""
    seeds = [{pos: 1} for pos in base_orbit_tangent_positions(ctx)]
    seeds += [root_tangent(ctx, rt) for rt in t_k_set(ctx, lbl)]
    pivots, nonzero = {}, []
    queue = [m for m in seeds if _insert(pivots, m)]
    borel = borel_stabiliser_basis(ctx)
    while queue:
        v = queue.pop()
        for b in borel:
            w = bracket(b, v)
            nonzero += [w] if w else []
            if _insert(pivots, w):
                queue.append(w)
    return len(pivots), nonzero


def test_indexed_bk_span_matches_the_unindexed_closure(monkeypatch):
    # the index may skip only zero brackets, so the same nonzero brackets
    # arise in the same order, not just the same span
    nonzero = []

    def recording(x, y):
        w = bracket(x, y)
        nonzero.extend([w] if w else [])
        return w

    monkeypatch.setattr(tangent, "bracket", recording)

    def agrees(ctx, lbl):
        nonzero.clear()
        return (bk_span(ctx, lbl), nonzero) == unindexed_bracket_span(ctx, lbl)

    for n in range(1, 7):
        for k in range(n // 2 + 1):
            ctx = Context(n, k)
            assert all(agrees(ctx, lbl) for lbl in enumerate_labels(ctx)), ctx
    ctx, rng = Context(16, 4), random.Random(16)
    for _ in range(4):
        lbl = label_of(ctx, tuple(rng.sample(range(1, 17), 16)))
        assert agrees(ctx, lbl), lbl


def test_bk_span_frozen_values():
    assert bk_span(CTX42, label(CTX42, ID4, ID4)) == 3
    assert bk_span(CTX42, label(CTX42, (2, 4, 1, 3), ID4)) == 7
    assert bk_span(CTX42, label(CTX42, (3, 4, 1, 2), ID4)) == 8


def test_bk_span_dominates_the_counting_bound():
    for n, k in [(4, 2), (5, 2), (6, 2), (6, 3)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            span = bk_span(ctx, lbl)
            assert tangent_lower_bound(ctx, lbl) <= span <= dim_orbit(ctx)


def weight_decomposition(ctx):
    """Group the 2k(n-k) tangent basis vectors (base-orbit positions and
    curve tangents) by stabiliser-torus character.  The first and last
    blocks share torus coordinates 0..k-1, the middle block gets
    k..n-k-1; each vector must be a torus eigenvector."""
    n, k = ctx.n, ctx.k

    def coordinate(m):
        return m - 1 if m <= n - k else m - (n - k) - 1

    def character(vec):
        chars = set()
        for r, s in vec:
            char = [0] * (n - k)
            char[coordinate(r)] += 1
            char[coordinate(s)] -= 1
            chars.add(tuple(char))
        assert len(chars) == 1, "not a torus eigenvector"
        return chars.pop()

    out = {}
    for pos in base_orbit_tangent_positions(ctx):
        out.setdefault(character({pos: 1}), []).append(("base", pos))
    for rt in phi_plus(ctx):
        out.setdefault(character(root_tangent(ctx, rt)), []).append(("curve", (rt.i, rt.j)))
    return out


def test_weight_decomposition_block_sizes():
    for n, k in [(4, 2), (5, 2), (6, 2), (6, 3)]:
        ctx = Context(n, k)
        decomposition = weight_decomposition(ctx)
        total = sum(len(tags) for tags in decomposition.values())
        assert total == 2 * k * (n - k)
        for char, tags in decomposition.items():
            trivial = all(c == 0 for c in char)
            corner_supported = all(c == 0 for c in char[k:])
            if trivial:
                assert len(tags) == 2 * k
            elif corner_supported:
                assert len(tags) == 2
            else:
                assert len(tags) == 1


def test_special_elements():
    assert omega_k(CTX42) == (2, 1, 3, 4)
    assert o_k(CTX42) == (2, 1, 4, 3)
    assert omega_k(CTX62) == (2, 1, 3, 4, 5, 6)
    assert o_k(CTX62) == (2, 1, 4, 3, 6, 5)
    assert o_k(Context(6, 3)) == (3, 2, 1, 6, 5, 4)


FROZEN_42_SWEEP = {
    ((1, 2, 3, 4), (1, 2, 3, 4)): ("smooth", "R3"),
    ((1, 2, 3, 4), (2, 1, 3, 4)): ("smooth", "R2"),
    ((1, 3, 2, 4), (1, 2, 3, 4)): ("smooth", "R4"),
    ((1, 3, 2, 4), (2, 1, 3, 4)): ("smooth", "R2"),
    ((1, 4, 2, 3), (1, 2, 3, 4)): ("unknown", None),
    ((1, 4, 2, 3), (2, 1, 3, 4)): ("smooth", "R2"),
    ((2, 3, 1, 4), (1, 2, 3, 4)): ("unknown", None),
    ((2, 3, 1, 4), (2, 1, 3, 4)): ("smooth", "R2"),
    ((2, 4, 1, 3), (1, 2, 3, 4)): ("singular", "R6"),
    ((2, 4, 1, 3), (2, 1, 3, 4)): ("singular", "R2"),
    ((3, 4, 1, 2), (1, 2, 3, 4)): ("singular", "R5"),
    ((3, 4, 1, 2), (2, 1, 3, 4)): ("smooth", "R2"),
}


def test_verdict_sweep_42():
    labels = enumerate_labels(CTX42)
    assert len(labels) == len(FROZEN_42_SWEEP)
    for lbl in labels:
        v = verdict(CTX42, lbl)
        assert (v.status, v.rule) == FROZEN_42_SWEEP[(lbl.sigma, lbl.alpha)]
    # witnesses for the three singular verdicts
    v = verdict(CTX42, label(CTX42, (2, 4, 1, 3), (2, 1, 3, 4)))
    assert v.witness == {"pattern": [4, 2, 3, 1], "positions": [1, 2, 3, 4]}
    v = verdict(CTX42, label(CTX42, (3, 4, 1, 2), ID4))
    assert v.witness == {"tangent_lower_bound": 8, "dimension": 7}
    v = verdict(CTX42, label(CTX42, (2, 4, 1, 3), ID4))
    assert v.witness == {"bk_span": 7, "dimension": 6}


def test_verdict_rank_one():
    v = verdict(CTX41, label(CTX41, (3, 1, 4, 2), ID4))
    assert v.status == "singular"
    assert v.rule == "R1"
    assert v.witness["positions"] == [1, 2, 3, 4]
    assert verdict(CTX41, label(CTX41, (2, 3, 4, 1), ID4)).status == "smooth"


def applicable_statuses(ctx, lbl):
    """Every decisive rule evaluated independently of the dispatch order."""
    from borbit.perms import compose, pattern_positions
    from borbit.tangent import RANK_ONE_PATTERN, SINGULAR_PATTERNS

    def pattern_status(w, patterns):
        hit = any(pattern_positions(w, p) is not None for p in patterns)
        return "singular" if hit else "smooth"

    statuses = []
    if ctx.k == 1:
        statuses.append(pattern_status(lbl.sigma, (RANK_ONE_PATTERN,)))
    if lbl.alpha == omega_k(ctx):
        statuses.append(
            pattern_status(compose(lbl.sigma, o_k(ctx)), SINGULAR_PATTERNS)
        )
    if lbl.sigma == identity(ctx.n):
        statuses.append(pattern_status(lbl.alpha[: ctx.k], SINGULAR_PATTERNS))
    if is_upper_label(ctx, lbl):
        exact = tangent_lower_bound(ctx, lbl)
        statuses.append(
            "smooth" if exact == dimension(ctx, lbl) else "singular"
        )
    if tangent_lower_bound(ctx, lbl) > dimension(ctx, lbl):
        statuses.append("singular")
    if bk_span(ctx, lbl) > dimension(ctx, lbl):
        statuses.append("singular")
    return statuses


def test_rules_never_contradict_each_other():
    for n, k in [(4, 1), (4, 2), (5, 1), (5, 2)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            statuses = set(applicable_statuses(ctx, lbl))
            assert not ({"smooth", "singular"} <= statuses), (lbl, statuses)
            v = verdict(ctx, lbl)
            if v.status != "unknown":
                assert v.status in statuses


def test_verdict_json_shape():
    lbl = label(CTX42, (3, 4, 1, 2), ID4)
    data = verdict_json(CTX42, lbl, verdict(CTX42, lbl))
    assert data["label"] == {"n": 4, "k": 2, "sigma": "3,4,1,2", "alpha": "1,2,3,4"}
    assert data["verdict"] == "singular"
    assert data["rule"] == "R5"
    assert data["witness"]["dimension"] == 7
