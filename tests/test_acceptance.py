"""Acceptance suite: eight end-to-end criteria, one test and one line each.

Each test prints ``criterion N: PASS`` with timing on success; assertion
failures name the criterion.  Expected values are frozen from independent
recomputation (brute-force coset partitions, subword enumeration, direct
rank checks), never from the implementation under test alone.
"""

import random
import time
from fractions import Fraction

from borbit.atlas import (
    Context,
    dim_orbit,
    dim_y0,
    dimension,
    enumerate_labels,
    is_upper_label,
    label,
    leq,
)
from borbit.geometry import tangent_stack_rank, verify_curve
from borbit.perms import (
    bruhat_leq,
    evaluate_word,
    identity,
    length,
    lower_interval,
)
from borbit.poset import hasse, leq_oracle, maximum, minimum
from borbit.springer import (
    count_involutions,
    count_standard_tableaux,
    count_standard_tableaux_bruteforce,
    is_orbital_variety,
    tableau,
)
from borbit.tangent import (
    bk_span,
    phi_plus,
    phi_plus_restricted,
    root_coset_label,
    t_k_set,
    t_k_table,
    tangent_lower_bound,
    verdict,
)
from dense import all_perms, columns, mul, permutation, span_rank

ID4 = identity(4)
ID6 = identity(6)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"{self.name}: PASS ({self.elapsed:.2f}s)")
        return False


def test_criterion_1_figure_reproduction():
    with Budget("criterion 1 (rank-2 size-4 diagram)", 1.0):
        ctx = Context(4, 2)
        labels = enumerate_labels(ctx)
        assert len(labels) == 12

        g = hasse(ctx)
        bottom = minimum(g)
        top = maximum(g)
        assert g.labels[bottom] == label(ctx, ID4, ID4)
        assert g.dims[bottom] == 3
        assert g.dims[top] == 8

        s1s3s2 = evaluate_word(4, (1, 3, 2))
        s2s1s3s2 = evaluate_word(4, (2, 1, 3, 2))
        assert s1s3s2 == (2, 4, 1, 3) and s2s1s3s2 == (3, 4, 1, 2)
        expected_singular = {
            label(ctx, s1s3s2, (2, 1, 3, 4)),
            label(ctx, s2s1s3s2, ID4),
            label(ctx, s1s3s2, ID4),
        }
        singular = {
            lbl for lbl in labels if verdict(ctx, lbl).status == "singular"
        }
        assert singular == expected_singular
        for lbl in set(labels) - expected_singular:
            assert verdict(ctx, lbl).status != "singular"


# the full 13-row root table for the size-6 rank-2 worked example:
# (root, lies in t_k, survives the upper-label restriction)
EXAMPLE_62_TABLE = {
    (1, 2): (True, True),
    (1, 3): (True, True),
    (1, 4): (True, True),
    (1, 5): (False, False),
    (1, 6): (False, True),
    (2, 3): (True, True),
    (2, 4): (True, True),
    (2, 5): (False, False),
    (2, 6): (False, False),
    (3, 5): (True, True),
    (3, 6): (True, True),
    (4, 5): (True, True),
    (4, 6): (True, True),
}


def test_criterion_2_rank_two_worked_example():
    with Budget("criterion 2 (size-6 rank-2 example)", 1.0):
        ctx = Context(6, 2)
        sigma = evaluate_word(6, (1, 3, 2, 5, 4))
        assert sigma == (2, 4, 1, 6, 3, 5)
        lbl = label(ctx, sigma, ID6)

        assert len(phi_plus(ctx)) == 13
        kept = set(phi_plus_restricted(ctx))
        assert {
            (rt.i, rt.j): (witness is not None, rt in kept)
            for rt, witness in t_k_table(ctx, lbl)
        } == EXAMPLE_62_TABLE

        count = len(t_k_set(ctx, lbl))
        assert count == 9
        assert length(sigma) == 5
        assert count > length(sigma)
        v = verdict(ctx, lbl)
        assert v.status == "singular"
        assert v.rule == "R4"

        t = tableau(ctx, lbl)
        assert (t.left, t.right) == ((2, 4, 1, 6), (3, 5))


def test_criterion_3_rank_one_worked_example():
    with Budget("criterion 3 (size-4 rank-1 example)", 1.0):
        ctx = Context(4, 1)
        lbl = label(ctx, (3, 1, 4, 2), ID4)

        v = verdict(ctx, lbl)
        assert v.status == "singular"
        assert v.rule == "R1"

        assert dimension(ctx, lbl) == 4
        assert sorted((r.i, r.j) for r in phi_plus(ctx)) == [
            (1, 2),
            (1, 3),
            (1, 4),
            (2, 4),
            (3, 4),
        ]

        # tangent bound recomputed through the independent subword oracle
        oracle_count = sum(
            1
            for rt in phi_plus(ctx)
            if leq_oracle(ctx, root_coset_label(ctx, rt), lbl)
        )
        bound = tangent_lower_bound(ctx, lbl)
        assert bound == dim_y0(ctx) + oracle_count == 5
        assert bound > dimension(ctx, lbl)


def test_criterion_4_tangent_formulas():
    with Budget("criterion 4 (tangent formulas, rank 2 size 4)", 1.0):
        ctx = Context(4, 2)
        assert tangent_lower_bound(ctx, label(ctx, (3, 4, 1, 2), ID4)) == 8
        assert bk_span(ctx, label(ctx, (2, 4, 1, 3), ID4)) == 7

        non_singular = [
            lbl
            for lbl in enumerate_labels(ctx)
            if verdict(ctx, lbl).status != "singular"
        ]
        assert len(non_singular) == 9
        for lbl in non_singular:
            assert dim_y0(ctx) + len(t_k_set(ctx, lbl)) == dimension(ctx, lbl)


def test_criterion_5_order_oracle_equivalence(cached_intervals):
    with Budget("criterion 5 (order oracle equivalence)", 30.0):
        for n in (4, 5):
            for w in all_perms(n):
                below = lower_interval(w)
                for u in all_perms(n):
                    assert bruhat_leq(u, w) == (u in below)

        for n, k in [(4, 1), (4, 2), (5, 1), (5, 2), (6, 2)]:
            ctx = Context(n, k)
            labels = enumerate_labels(ctx)
            for a in labels:
                for b in labels:
                    assert leq(ctx, a, b) == leq_oracle(ctx, a, b)


def test_criterion_6_curve_and_span_identities():
    with Budget("criterion 6 (curve and span identities)", 30.0):
        for n in range(1, 11):
            for k in range(0, n // 2 + 1):
                ctx = Context(n, k)
                for rt in phi_plus(ctx):
                    assert verify_curve(ctx, rt) == (), (n, k, rt)
        for n in range(1, 9):
            for k in range(0, n // 2 + 1):
                ctx = Context(n, k)
                assert tangent_stack_rank(ctx) == dim_orbit(ctx), (n, k)


def subspace_leq(inner: list[list], outer: list[list]) -> bool:
    """Column-span containment via one exact rank comparison."""
    return span_rank(outer, inner) == span_rank(outer)


def schubert_bound(tau, i: int, j: int) -> int:
    """The Schubert bound on dim(V^i + K^j): i + j - #{a <= i : tau(a) <= j}."""
    return i + j - sum(1 for a in range(i) if tau[a] <= j)


def flag_in_schubert(basis: list[list], tau) -> bool:
    """Is the flag whose V^i spans the first i columns of the square
    ``basis`` in the Schubert variety of ``tau``?  K^j spans the first j
    standard basis vectors."""
    n = len(tau)
    ident = permutation(identity(n))
    return all(
        span_rank(columns(basis, i), columns(ident, j)) <= schubert_bound(tau, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def random_borel_flag(rng: random.Random, w) -> list[list]:
    """The basis of a random point of the cell of ``w``: unit
    upper-triangular times the permutation basis."""
    n = len(w)
    rows = tuple(
        tuple(
            Fraction(1)
            if r == c
            else (
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                if r < c
                else Fraction(0)
            )
            for c in range(n)
        )
        for r in range(n)
    )
    return mul(rows, permutation(w))


def test_criterion_7_rank_condition_reduction():
    with Budget("criterion 7 (rank-condition reduction)", 5.0):
        ident = permutation(identity(4))

        def direct_2413(f):
            return subspace_leq(columns(f, 1), columns(ident, 2)) and (
                subspace_leq(columns(ident, 2), columns(f, 3))
            )

        def direct_3412(f):
            return subspace_leq(columns(f, 1), columns(ident, 3)) and (
                subspace_leq(columns(ident, 1), columns(f, 3))
            )

        cases = [((2, 4, 1, 3), direct_2413), ((3, 4, 1, 2), direct_3412)]

        perms4 = list(all_perms(4))
        for tau, direct in cases:
            accepted = set()
            for other in perms4:
                f = permutation(other)
                member = flag_in_schubert(f, tau)
                assert member == direct(f), (tau, other)
                assert member == bruhat_leq(other, tau)
                if member:
                    accepted.add(other)
            assert identity(4) in accepted
            assert (4, 3, 2, 1) not in accepted

        rng = random.Random(20260814)
        flags = []
        for _ in range(100):
            w = rng.choice(perms4)
            flags.append((w, random_borel_flag(rng, w)))
        for tau, direct in cases:
            for w, f in flags:
                member = flag_in_schubert(f, tau)
                assert member == direct(f), (tau, w)
                assert member == bruhat_leq(w, tau)


def test_criterion_8_component_bookkeeping():
    with Budget("criterion 8 (component bookkeeping)", 10.0):
        for n in range(1, 7):
            for k in range(0, n // 2 + 1):
                ctx = Context(n, k)
                uppers = [
                    lbl
                    for lbl in enumerate_labels(ctx)
                    if is_upper_label(ctx, lbl)
                ]
                assert len(uppers) == count_involutions(n, k), (n, k)

        for n, k in [(4, 1), (4, 2), (5, 2), (6, 2), (6, 3)]:
            ctx = Context(n, k)
            components = [
                lbl
                for lbl in enumerate_labels(ctx)
                if is_orbital_variety(ctx, lbl)
            ]
            expected = count_standard_tableaux(ctx)
            assert expected == count_standard_tableaux_bruteforce(ctx)
            assert len(components) == expected, (n, k)

        ctx = Context(6, 2)
        singular_components = [
            lbl
            for lbl in enumerate_labels(ctx)
            if is_orbital_variety(ctx, lbl)
            and verdict(ctx, lbl).status == "singular"
        ]
        assert len(singular_components) == 1
        assert singular_components[0] == label(ctx, (2, 4, 1, 6, 3, 5), ID6)
