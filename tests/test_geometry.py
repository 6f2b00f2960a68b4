"""Curve geometry, the incidence of representatives and label flags, blueprints."""

import pytest

from borbit.atlas import Context, dim_orbit, enumerate_labels, label, label_perm, rep_matrix
from borbit.geometry import (
    blueprint_json,
    resolution_blueprint,
    tangent_stack_rank,
    verify_curve,
)
from borbit.perms import bruhat_leq, identity, reduced_word
from borbit.tangent import Root, phi_plus
from dense import all_perms, dense, flat, gauss_rank, mul, permutation

CTX42 = Context(4, 2)
ID4 = identity(4)


def base_point(ctx):
    """The representative of the base label ``sigma = alpha = id``."""
    ident = identity(ctx.n)
    return rep_matrix(ctx, label(ctx, ident, ident))


def test_base_matrix():
    assert base_point(CTX42) == {(1, 3): 1, (2, 4): 1}
    x62 = dense(base_point(Context(6, 2)), 6)
    assert not any(flat(mul(x62, x62)))
    assert gauss_rank(x62) == 2


def compatible_with_permutation_flag(ctx, u, tau):
    """Is ``u`` compatible with the flag V^i = span(e_tau(1), ..., e_tau(i)):
    does it kill V^(n-k) and send each later V^i into V^(i-(n-k))?  Each
    V^i is a coordinate subspace and e_c enters it at ``pos(c)``, the
    position of c in tau, so a stored entry (r, c) needs pos(c) > n-k and
    pos(r) <= pos(c) - (n-k)."""
    m = ctx.n - ctx.k
    pos = {value: a for a, value in enumerate(tau, 1)}
    return all(pos[c] > m and pos[r] <= pos[c] - m for r, c in u)


def test_witness_flags_give_incidence_members():
    # the representative of a label is compatible with the permutation flag
    # of the label's product, which lies in that product's Schubert variety
    for n, k in [(4, 1), (4, 2), (5, 2)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            assert compatible_with_permutation_flag(ctx, rep_matrix(ctx, lbl), label_perm(lbl)), lbl
    # and the check is not vacuous: the standard flag fits the base point,
    # not the representative of another orbit
    assert compatible_with_permutation_flag(CTX42, base_point(CTX42), ID4)
    low = rep_matrix(CTX42, label(CTX42, (3, 4, 1, 2), ID4))
    assert not compatible_with_permutation_flag(CTX42, low, ID4)


def permutation_flag_in_schubert(other, tau):
    """Is the flag V^i = span(e_other(1), ..., e_other(i)) in the Schubert
    variety of ``tau``: is dim(V^i + K^j) <= i + j - #{a <= i : tau(a) <= j}
    for all i, j, with K^j spanned by e_1, ..., e_j?  Each dimension is the
    rank of the unit vectors that span the sum."""
    n = len(tau)
    ident = permutation(identity(n))  # row c - 1 is the unit vector e_c
    return all(
        gauss_rank([ident[c - 1] for c in other[:i]] + ident[:j])
        <= i + j - sum(1 for a in range(i) if tau[a] <= j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def test_permutation_flag_membership_is_bruhat_order():
    # the flag of tau' lies in the Schubert variety of tau exactly when
    # tau' is below tau - checked exhaustively in S_3 and S_4
    for n in (3, 4):
        for tau in all_perms(n):
            for other in all_perms(n):
                assert permutation_flag_in_schubert(other, tau) == bruhat_leq(other, tau), (tau, other)


def test_verify_curve_all_roots_small_contexts():
    for n, k in [(4, 1), (4, 2), (5, 2)]:
        ctx = Context(n, k)
        for rt in phi_plus(ctx):
            assert verify_curve(ctx, rt) == (), rt


def test_verify_curve_rejects_foreign_roots():
    with pytest.raises(ValueError):
        verify_curve(CTX42, Root(1, 5))  # a root of (6,2)


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
    assert bp.flags[-1] == ("W1", "W2", "W3", "K4")
    assert bp.relations == ("W2 <= Ker(u)", "u(W3) <= W1", "u(K4) <= W2")


def test_blueprint_accepts_the_canonical_reduced_word():
    for n, k in [(4, 2), (5, 2)]:
        ctx = Context(n, k)
        for lbl in enumerate_labels(ctx):
            word = reduced_word(label_perm(lbl))
            bp = resolution_blueprint(ctx, lbl, word)
            assert len(bp.flags) == len(word)
            assert len(bp.relations) == 1 + k
            # transient symbols never appear in the final flag (the
            # standard flag when the word is empty)
            assert all(not s.startswith("U") for row in bp.flags[-1:] for s in row)


def test_blueprint_repeated_letters_get_primes():
    ctx = Context(5, 2)
    lbl = label(ctx, (3, 4, 1, 2, 5), ID4 + (5,))
    # (3,4,1,2,5) = s2 s1 s3 s2: letter 2 occurs twice, first pass transient
    bp = resolution_blueprint(ctx, lbl, (2, 1, 3, 2))
    assert bp.flags[0][1] == "U2"
    assert bp.flags[-1] == ("W1", "W2", "W3", "K4", "K5")
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
    data = blueprint_json(CTX42, resolution_blueprint(CTX42, lbl, (2, 1, 3, 2)))
    assert data["flags"] == 4
    assert data["moves"] == [2, 1, 3, 2]
    assert data["chain"][-1] == "W1 < W2 < W3 < K4"
    assert data["relations"] == ["W2 <= Ker(u)", "u(W3) <= W1", "u(K4) <= W2"]
    assert "rank <= 2" in data["compat"]
