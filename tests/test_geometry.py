"""Flag geometry: stabiliser, compatibility, rank conditions, blueprints."""

from fractions import Fraction

import pytest

from borbit.atlas import (
    Context,
    dim_orbit,
    enumerate_labels,
    label,
    label_perm,
    paired_subgroup,
    rep_matrix,
)
from borbit.geometry import (
    DEFAULT_SAMPLES,
    Flag,
    base_point,
    blueprint_to_json,
    compatible,
    flag_in_schubert,
    in_Ck,
    incidence_member,
    permutation_flag,
    resolution_blueprint,
    schubert_conditions,
    standard_flag,
    tangent_stack_rank,
    verify_curve,
    witness_flag,
)
from borbit.perms import all_perms, bruhat_leq, identity, reduced_word
from borbit.ratmat import RationalMatrix, parse_matrix
from borbit.tangent import Root, DELTA, phi_plus, root

CTX42 = Context(4, 2)
ID4 = identity(4)


def test_base_matrix():
    assert base_point(CTX42) == parse_matrix("0,0,1,0;0,0,0,1;0,0,0,0;0,0,0,0")
    x62 = base_point(Context(6, 2))
    assert (x62 * x62).is_zero()
    assert x62.rank() == 2


def test_stabiliser_membership():
    ident = RationalMatrix.matrix_identity(4)
    assert in_Ck(CTX42, ident)
    # permutation matrices of the paired subgroup stabilise the base point
    for h in paired_subgroup(CTX42):
        assert in_Ck(CTX42, RationalMatrix.permutation(h))
    # a paired upper unipotent is in the stabiliser
    assert in_Ck(CTX42, parse_matrix("1,1,0,0;0,1,0,0;0,0,1,1;0,0,0,1"))
    # the unpaired variant is not
    assert not in_Ck(CTX42, parse_matrix("1,1,0,0;0,1,0,0;0,0,1,0;0,0,0,1"))
    # a simple swap inside the first block only is not a member
    assert not in_Ck(CTX42, RationalMatrix.permutation((2, 1, 3, 4)))
    # lower unipotent touching the forbidden block is not a member
    assert not in_Ck(CTX42, ident + RationalMatrix.elementary(4, 3, 1))
    # every elementary unipotent, in contexts with a middle block: in_Ck
    # raises if the block shape and the commutation test disagree
    for n, k in [(5, 2), (6, 2), (6, 3)]:
        ctx, ident_n = Context(n, k), RationalMatrix.matrix_identity(n)
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                if r != s:
                    in_Ck(ctx, ident_n + RationalMatrix.elementary(n, r, s))
    assert not in_Ck(Context(6, 2), RationalMatrix.matrix_identity(6) + RationalMatrix.elementary(6, 5, 3))
    with pytest.raises(ValueError):
        in_Ck(CTX42, RationalMatrix.zero(4))
    with pytest.raises(ValueError):
        in_Ck(CTX42, RationalMatrix.matrix_identity(5))


def test_stabiliser_is_closed_under_product_and_scaling():
    members = [
        RationalMatrix.permutation(h) for h in paired_subgroup(Context(5, 2))
    ]
    ctx = Context(5, 2)
    for a in members:
        for b in members:
            assert in_Ck(ctx, a * b)
        assert in_Ck(ctx, 3 * a)


def test_flag_validation():
    with pytest.raises(ValueError):
        Flag(RationalMatrix.zero(3))
    with pytest.raises(ValueError):
        Flag(RationalMatrix.zero(2, 3))
    with pytest.raises(ValueError):
        Flag(basis=RationalMatrix([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        standard_flag(2)._replace(basis=RationalMatrix([[1, 2], [2, 4]]))
    f = standard_flag(4)
    assert f.subspace(2) == RationalMatrix.matrix_identity(4).take_columns(2)
    assert f.n == 4


def test_compatibility_with_the_standard_flag():
    assert compatible(CTX42, base_point(CTX42), standard_flag(4))
    low = rep_matrix(CTX42, label(CTX42, (3, 4, 1, 2), ID4))
    assert not compatible(CTX42, low, standard_flag(4))
    with pytest.raises(ValueError):
        compatible(CTX42, base_point(CTX42), standard_flag(5))


def test_witness_flags_give_incidence_members():
    for n, k in [(4, 1), (4, 2), (5, 2)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            u = rep_matrix(ctx, lbl)
            f = witness_flag(lbl)
            assert compatible(ctx, u, f)
            assert flag_in_schubert(f, label_perm(lbl))
            assert incidence_member(ctx, u, f, lbl)


def test_schubert_condition_bounds():
    conds = dict(
        ((i, j), bound)
        for i, j, bound in schubert_conditions((2, 4, 1, 3)).conditions
    )
    assert conds[(1, 2)] == 2  # forces V^1 inside K^2
    assert conds[(3, 2)] == 3  # forces K^2 inside V^3
    conds = dict(
        ((i, j), bound)
        for i, j, bound in schubert_conditions((3, 4, 1, 2)).conditions
    )
    assert conds[(1, 3)] == 3  # forces V^1 inside K^3
    assert conds[(3, 1)] == 3  # forces K^1 inside V^3


def test_permutation_flag_membership_is_bruhat_order():
    # the flag of tau' lies in the Schubert variety of tau exactly when
    # tau' is below tau - checked exhaustively in S_3 and S_4
    for n in (3, 4):
        for tau in all_perms(n):
            for other in all_perms(n):
                assert flag_in_schubert(permutation_flag(other), tau) == (
                    bruhat_leq(other, tau)
                )


def test_verify_curve_all_roots_small_contexts():
    for n, k in [(4, 1), (4, 2), (5, 2)]:
        ctx = Context(n, k)
        for rt in phi_plus(ctx):
            report = verify_curve(ctx, rt)
            assert report.ok, report.failures
            assert report.samples == DEFAULT_SAMPLES
    # t = 0 is a legal sample: the factorisation step is skipped
    report = verify_curve(CTX42, root(CTX42, 1, 3), samples=(Fraction(0),))
    assert report.ok


def test_verify_curve_rejects_foreign_roots():
    foreign = root(Context(6, 2), 1, 5)
    with pytest.raises(ValueError):
        verify_curve(CTX42, foreign)
    with pytest.raises(ValueError):
        verify_curve(CTX42, Root(1, 2, DELTA))


def test_tangent_stack_spans_the_orbit_tangent_space():
    for n in range(2, 9):
        for k in range(0, n // 2 + 1):
            ctx = Context(n, k)
            assert tangent_stack_rank(ctx) == 2 * k * (n - k) == dim_orbit(ctx)


def test_blueprint_worked_example():
    lbl = label(CTX42, (3, 4, 1, 2), ID4)
    bp = resolution_blueprint(CTX42, lbl, (2, 1, 3, 2))
    assert bp.moves == (2, 1, 3, 2)
    assert bp.flags == (
        ("K1", "U2", "K3", "K4"),
        ("W1", "U2", "K3", "K4"),
        ("W1", "U2", "W3", "K4"),
        ("W1", "W2", "W3", "K4"),
    )
    assert bp.final == ("W1", "W2", "W3", "K4")
    assert bp.relations == ("W2 <= Ker(u)", "u(W3) <= W1", "u(K4) <= W2")


def test_blueprint_accepts_the_canonical_reduced_word():
    for n, k in [(4, 2), (5, 2)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            word = reduced_word(label_perm(lbl))
            bp = resolution_blueprint(ctx, lbl, word)
            assert len(bp.flags) == len(word)
            assert len(bp.relations) == 1 + k
            # transient symbols never appear in the final flag
            assert all(not s.startswith("U") for s in bp.final)


def test_blueprint_repeated_letters_get_primes():
    ctx = Context(5, 2)
    lbl = label(ctx, (3, 4, 1, 2, 5), ID4 + (5,))
    # (3,4,1,2,5) = s2 s1 s3 s2: letter 2 occurs twice, first pass transient
    bp = resolution_blueprint(ctx, lbl, (2, 1, 3, 2))
    assert bp.flags[0][1] == "U2"
    assert bp.final == ("W1", "W2", "W3", "K4", "K5")
    # the top (5,2) label: letters 1 and 2 occur three times, so their
    # second transient pass gets a prime
    top = label(ctx, (4, 5, 3, 1, 2), (2, 1, 3, 4, 5))
    word = reduced_word(label_perm(top))
    assert word == (2, 1, 3, 2, 1, 4, 3, 2, 1)
    bp = resolution_blueprint(ctx, top, word)
    names = [bp.flags[s][word[s] - 1] for s in range(len(word))]
    assert names == ["U2", "U1", "U3", "U2'", "U1'", "W4", "W3", "W2", "W1"]
    assert bp.relations == ("W3 <= Ker(u)", "u(W4) <= W1", "u(K5) <= W2")


def test_blueprint_rejects_bad_words():
    lbl = label(CTX42, (3, 4, 1, 2), ID4)
    with pytest.raises(ValueError):
        resolution_blueprint(CTX42, lbl, (2, 1, 3))  # wrong product
    with pytest.raises(ValueError, match="not reduced"):
        resolution_blueprint(CTX42, lbl, (2, 2, 2, 1, 3, 2))  # right product, not reduced
    with pytest.raises(ValueError):
        resolution_blueprint(CTX42, lbl, (2, 1, 4, 2))  # letter out of range


def test_blueprint_json():
    lbl = label(CTX42, (3, 4, 1, 2), ID4)
    import json

    data = json.loads(blueprint_to_json(resolution_blueprint(CTX42, lbl, (2, 1, 3, 2))))
    assert data["flags"] == 4
    assert data["moves"] == [2, 1, 3, 2]
    assert data["chain"][-1] == "W1 < W2 < W3 < K4"
    assert data["relations"] == ["W2 <= Ker(u)", "u(W3) <= W1", "u(K4) <= W2"]
    assert "rank <= 2" in data["compat"]
