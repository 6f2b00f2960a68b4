"""Orbit labels, cosets, representative matrices, tableaux, involutions."""

import math

import pytest

from borbit.atlas import (
    Context,
    coset_of,
    dim_orbit,
    dim_y0,
    dimension,
    enumerate_labels,
    in_Wk,
    in_Zk,
    is_upper_label,
    label,
    label_of,
    label_perm,
    paired_subgroup,
    rep_matrix,
)
from borbit.checks import min_length_reps
from borbit.perms import compose, identity, length
from borbit.springer import (
    TwoColumnTableau,
    count_involutions,
    count_standard_tableaux,
    count_standard_tableaux_bruteforce,
    involution_tau,
    is_orbital_variety,
    link_pattern,
    springer_component_dim,
    tableau,
)
from dense import all_perms, dense, flat, gauss_rank, mul


def is_row_standard(t: TwoColumnTableau) -> bool:
    """Do all paired rows increase left to right?"""
    return all(a < b for a, b in zip(t.left, t.right))


def test_context_validation():
    with pytest.raises(ValueError):
        Context(4, 3)
    with pytest.raises(ValueError):
        Context(0, 0)
    with pytest.raises(ValueError):
        Context(65, 1)
    with pytest.raises(ValueError):
        Context(n=5, k=3)
    with pytest.raises(ValueError):
        Context(4, 2)._replace(k=3)
    assert Context(4, 2).n == 4
    assert Context(k=2, n=4) == Context(4, 2) == (4, 2)


def test_block_increasing_predicate():
    ctx = Context(4, 2)
    matching = [p for p in all_perms(4) if in_Zk(ctx, p)]
    # choose two values for the first block and two for the last: C(4,2)=6
    assert len(matching) == 6
    assert (2, 4, 1, 3) in matching
    assert (4, 2, 1, 3) not in matching
    ctx61 = Context(6, 1)
    assert in_Zk(ctx61, (3, 1, 2, 4, 5, 6))
    assert not in_Zk(ctx61, (3, 2, 1, 4, 5, 6))


def test_alpha_predicate():
    ctx = Context(4, 2)
    assert in_Wk(ctx, (2, 1, 3, 4))
    assert not in_Wk(ctx, (1, 3, 2, 4))
    with pytest.raises(ValueError):
        in_Wk(ctx, (1, 2, 3))


def test_label_validation():
    ctx = Context(4, 2)
    lbl = label(ctx, (2, 4, 1, 3), (2, 1, 3, 4))
    assert label_perm(lbl) == (4, 2, 1, 3)
    with pytest.raises(ValueError):
        label(ctx, (4, 2, 1, 3), identity(4))
    with pytest.raises(ValueError):
        label(ctx, identity(4), (1, 3, 2, 4))


def test_paired_subgroup_structure():
    ctx = Context(4, 2)
    h = paired_subgroup(ctx)
    assert h == ((1, 2, 3, 4), (2, 1, 4, 3))
    for n, k in [(4, 1), (5, 2), (6, 2), (6, 3), (7, 3)]:
        ctx = Context(n, k)
        members = set(paired_subgroup(ctx))
        assert len(members) == math.factorial(k) * math.factorial(n - 2 * k)
        # closed under composition and inverse: a genuine subgroup
        for a in members:
            assert tuple(sorted(a)) == tuple(range(1, n + 1))
            for b in members:
                assert compose(a, b) in members
        # the defining pairing property
        for w in members:
            for j in range(1, k + 1):
                assert w[n - k + j - 1] == w[j - 1] + n - k
            assert all(k + 1 <= w[i - 1] <= n - k for i in range(k + 1, n - k + 1))


def test_cosets_partition_the_symmetric_group():
    for n, k in [(4, 2), (5, 2)]:
        ctx = Context(n, k)
        seen = {}
        for w in all_perms(n):
            seen.setdefault(coset_of(ctx, w).members, []).append(w)
        order = len(paired_subgroup(ctx))
        assert all(len(v) == order for v in seen.values())
        assert len(seen) * order == len(list(all_perms(n)))
        # the label product is in the coset and has minimal length
        for members in seen:
            product = label_perm(label_of(ctx, members[0]))
            assert product in members
            assert length(product) == min(length(m) for m in members)
            assert product in min_length_reps(coset_of(ctx, members[0]))


def test_coset_example():
    ctx = Context(4, 2)
    coset = coset_of(ctx, (2, 1, 3, 4))
    assert coset.members == ((1, 2, 4, 3), (2, 1, 3, 4))
    assert label_of(ctx, (1, 2, 4, 3)) == label(ctx, identity(4), (2, 1, 3, 4))
    assert label_perm(label_of(ctx, (1, 2, 4, 3))) in min_length_reps(coset)


def test_label_counts_against_coset_oracle():
    # label count must equal the brute-forced number of subgroup cosets
    expected = {(2, 1): 2, (4, 1): 12, (4, 2): 12, (5, 2): 60, (6, 2): 180}
    for (n, k), count in expected.items():
        ctx = Context(n, k)
        labels = enumerate_labels(ctx)
        assert len(labels) == count
        cosets = {coset_of(ctx, w).members for w in all_perms(n)}
        assert len(cosets) == count
        recovered = {label_of(ctx, members[0]) for members in cosets}
        assert recovered == set(labels)
    assert len(enumerate_labels(Context(6, 3))) == 120


def test_labels_and_cosets_are_inverse_bijections():
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 1), (6, 3)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            coset = coset_of(ctx, label_perm(lbl))
            assert all(label_of(ctx, m) == lbl for m in coset.members)
            # the product sigma.alpha is a member of minimal length
            assert label_perm(lbl) in min_length_reps(coset)
            assert length(label_perm(lbl)) == length(lbl.sigma) + length(lbl.alpha)


def test_dimensions():
    ctx = Context(4, 2)
    assert dim_y0(ctx) == 3
    assert dim_orbit(ctx) == 8
    assert dimension(ctx, label(ctx, identity(4), identity(4))) == 3
    top = label(ctx, (3, 4, 1, 2), identity(4))
    assert dimension(ctx, top) == 7
    full = label(ctx, (3, 4, 1, 2), (2, 1, 3, 4))
    assert dimension(ctx, full) == 8
    assert dim_orbit(Context(6, 2)) == 16
    assert dim_y0(Context(6, 3)) == 6
    # dimension never exceeds the ambient orbit dimension
    for n, k in [(4, 1), (4, 2), (5, 2)]:
        c = Context(n, k)
        dims = [dimension(c, lbl) for lbl in enumerate_labels(c)]
        assert max(dims) == dim_orbit(c)
        assert min(dims) == dim_y0(c)


def test_rep_matrix_values():
    ctx = Context(6, 2)
    lbl = label(ctx, (2, 4, 1, 6, 3, 5), identity(6))
    assert rep_matrix(ctx, lbl) == {(2, 3): 1, (4, 5): 1}

    ctx4 = Context(4, 2)
    base = rep_matrix(ctx4, label(ctx4, identity(4), identity(4)))
    assert base == {(1, 3): 1, (2, 4): 1}
    low = rep_matrix(ctx4, label(ctx4, (3, 4, 1, 2), identity(4)))
    assert low == {(3, 1): 1, (4, 2): 1}


def test_rep_matrices_are_square_zero_of_the_right_rank():
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 3)]:
        ctx = Context(n, k)
        seen = set()
        for lbl in enumerate_labels(ctx):
            m = dense(rep_matrix(ctx, lbl), n)
            assert not any(flat(mul(m, m)))
            assert gauss_rank(m) == k
            seen.add(tuple(map(tuple, m)))
        # distinct labels give distinct representatives
        assert len(seen) == len(enumerate_labels(ctx))


def test_link_pattern_matches_matrix():
    for n, k in [(4, 2), (5, 2)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            arcs = link_pattern(ctx, lbl)
            m = rep_matrix(ctx, lbl)
            assert len(arcs) == k
            endpoints = [v for arc in arcs for v in arc]
            assert len(set(endpoints)) == 2 * k
            for source, target in arcs:
                assert m.get((target, source)) == 1


def test_tableau_values():
    ctx = Context(6, 2)
    lbl = label(ctx, (2, 4, 1, 6, 3, 5), identity(6))
    t = tableau(ctx, lbl)
    assert t.left == (2, 4, 1, 6)
    assert t.right == (3, 5)
    assert is_row_standard(t)
    assert not is_row_standard(TwoColumnTableau(left=(3, 1, 2), right=(2,)))


def test_upper_labels_are_the_strictly_upper_representatives():
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 2)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            upper = all(r < c for r, c in rep_matrix(ctx, lbl))
            assert is_upper_label(ctx, lbl) == upper


def test_is_upper_label_reads_the_tableau_rows():
    # the direct product test against the tableau it replaced as the definition
    for n in range(1, 8):
        for k in range(n // 2 + 1):
            ctx = Context(n, k)
            for lbl in enumerate_labels(ctx):
                assert is_upper_label(ctx, lbl) == is_row_standard(tableau(ctx, lbl)), (ctx, lbl)


def test_involution_bijection():
    for n in range(2, 7):
        for k in range(0, n // 2 + 1):
            ctx = Context(n, k)
            uppers = [
                lbl for lbl in enumerate_labels(ctx) if is_upper_label(ctx, lbl)
            ]
            images = {involution_tau(ctx, lbl) for lbl in uppers}
            assert len(images) == len(uppers)
            for p in images:
                assert compose(p, p) == identity(n)
                assert sum(1 for i in range(n) if p[i] != i + 1) == 2 * k
            assert len(uppers) == count_involutions(n, k)


def test_involution_rejects_non_upper_labels():
    ctx = Context(4, 2)
    with pytest.raises(ValueError):
        involution_tau(ctx, label(ctx, (3, 4, 1, 2), identity(4)))


def test_involution_counts():
    assert count_involutions(4, 2) == 3
    assert count_involutions(6, 2) == 45
    assert count_involutions(6, 3) == 15


def test_involution_counts_against_bruteforce():
    """The closed form against every ``p`` of S_n with ``p p = id``,
    counted by its ``n - 2k`` fixed points."""
    for n in range(1, 8):
        fixed = [0] * (n + 1)
        for p in all_perms(n):
            if compose(p, p) == identity(n):
                fixed[sum(p[i] == i + 1 for i in range(n))] += 1
        for k in range(n // 2 + 1):
            assert count_involutions(n, k) == fixed[n - 2 * k], (n, k)


def test_standard_tableau_counts_hook_vs_bruteforce():
    for n in range(1, 8):
        for k in range(0, n // 2 + 1):
            ctx = Context(n, k)
            assert count_standard_tableaux(ctx) == count_standard_tableaux_bruteforce(ctx)
    assert count_standard_tableaux(Context(4, 2)) == 2
    assert count_standard_tableaux(Context(6, 2)) == 9
    assert count_standard_tableaux(Context(6, 3)) == 5


def test_orbital_varieties_are_counted_by_standard_tableaux():
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 3)]:
        ctx = Context(n, k)
        count = sum(
            1 for lbl in enumerate_labels(ctx) if is_orbital_variety(ctx, lbl)
        )
        assert count == count_standard_tableaux(ctx)


def test_springer_component_dim():
    assert springer_component_dim(Context(6, 2)) == 7
    # matches the partition-transpose count C(n-k, 2) + C(k, 2)
    assert springer_component_dim(Context(4, 2)) == 2
    assert springer_component_dim(Context(6, 3)) == 6
    # orbital varieties sit inside the upper-triangular matrices and have
    # exactly half the ambient orbit dimension
    for n, k in [(4, 2), (6, 2), (6, 3)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            if is_orbital_variety(ctx, lbl):
                assert dimension(ctx, lbl) == k * (n - k)
                assert 2 * dimension(ctx, lbl) == dim_orbit(ctx)
