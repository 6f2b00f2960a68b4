"""Exact rational matrices: arithmetic conventions and fraction-free rank."""

import doctest
import random
from fractions import Fraction

import pytest

from borbit import ratmat
from borbit.perms import all_perms, compose
from borbit.ratmat import RationalMatrix


def gauss_rank(rows):
    """Plain fraction Gaussian elimination, used as an independent check."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        for r in range(nrows):
            if r != rank and m[r][col]:
                factor = m[r][col] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_doctests():
    assert doctest.testmod(ratmat).failed == 0


def test_constructors_and_entry_indexing():
    e = RationalMatrix.elementary(3, 2, 3)
    assert e.entry(2, 3) == 1
    assert len(e.entries) == 1
    assert RationalMatrix.matrix_identity(3) == RationalMatrix.elementary(
        3, 1, 1
    ) + RationalMatrix.elementary(3, 2, 2) + RationalMatrix.elementary(3, 3, 3)
    z = RationalMatrix.zero(2, 3)
    assert (z.nrows, z.ncols) == (2, 3)
    assert z.is_zero()
    assert RationalMatrix.from_entries(3, {(2, 3): 1}) == e
    assert RationalMatrix.from_entries(2, {}) == RationalMatrix.zero(2)
    with pytest.raises(ValueError):
        RationalMatrix.from_entries(3, {(4, 1): 1})


def test_elementary_product_rule():
    for r in range(1, 4):
        for s in range(1, 4):
            for t in range(1, 4):
                for u in range(1, 4):
                    prod = RationalMatrix.elementary(
                        3, r, s
                    ) * RationalMatrix.elementary(3, t, u)
                    if s == t:
                        assert prod == RationalMatrix.elementary(3, r, u)
                    else:
                        assert prod.is_zero()


def test_permutation_matrix_sends_basis_vectors():
    # column j of the matrix of w is the basis vector indexed by w(j)
    w = (2, 4, 1, 3)
    p = RationalMatrix.permutation(w)
    for j in range(1, 5):
        col = [p.entry(i, j) for i in range(1, 5)]
        assert col == [1 if i == w[j - 1] else 0 for i in range(1, 5)]


def test_permutation_matrices_respect_composition():
    for u in all_perms(3):
        for w in all_perms(3):
            assert RationalMatrix.permutation(
                compose(u, w)
            ) == RationalMatrix.permutation(u) * RationalMatrix.permutation(w)


def test_arithmetic():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert a + b == RationalMatrix([[1, 3], [4, 4]])
    assert a - a == RationalMatrix.zero(2, 2)
    assert -a == RationalMatrix([[-1, -2], [-3, -4]])
    assert a * b == RationalMatrix([[2, 1], [4, 3]])
    assert 2 * a == a * 2 == RationalMatrix([[2, 4], [6, 8]])
    assert Fraction(1, 2) * b == RationalMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    with pytest.raises(ValueError):
        a + RationalMatrix.zero(3, 3)
    with pytest.raises(ValueError):
        a * RationalMatrix.zero(3, 3)


def test_triangularity_tests():
    assert RationalMatrix([[1, 2], [0, 3]]).is_upper_triangular()
    assert not RationalMatrix([[1, 2], [0, 3]]).is_strictly_upper_triangular()
    assert RationalMatrix([[0, 2], [0, 0]]).is_strictly_upper_triangular()
    assert not RationalMatrix([[0, 0], [1, 0]]).is_upper_triangular()


def test_rank_known_values():
    assert RationalMatrix.matrix_identity(5).rank() == 5
    assert RationalMatrix.zero(3, 4).rank() == 0
    assert RationalMatrix([[1, 2], [2, 4]]).rank() == 1
    assert RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]).rank() == 1
    assert RationalMatrix([[1, 0, 0], [0, 0, 1]]).rank() == 2


def test_rank_matches_gaussian_elimination_on_random_matrices():
    rng = random.Random(20240814)
    for _ in range(120):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = tuple(
            tuple(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(ncols)
            )
            for _ in range(nrows)
        )
        mat = RationalMatrix(rows)
        assert mat.rank() == gauss_rank(rows)
        # rank is invariant under transpose and row duplication
        assert RationalMatrix(list(zip(*rows))).rank() == mat.rank()
        assert RationalMatrix(rows + rows).rank() == mat.rank()


def test_rank_matches_gaussian_elimination_on_sparse_matrices():
    """Mostly zero entries, zero rows and dependent rows, which the dense
    random matrices above almost never have."""
    rng = random.Random(20261018)
    shapes = [(1, m) for m in range(1, 9)] + [(m, 1) for m in range(1, 9)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(300)]
    deficient = 0
    for nrows, ncols in shapes:
        rows = [
            [
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.25 else 0
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        for r in range(nrows):
            draw = rng.random()
            if draw < 0.15:
                rows[r] = [0] * ncols
            elif draw < 0.35 and r >= 2:  # a combination of two earlier rows
                a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))
                rows[r] = [a * x + b * y for x, y in zip(rows[r - 1], rows[r - 2])]
        rng.shuffle(rows)
        mat = RationalMatrix(rows)
        expected = gauss_rank(rows)
        assert mat.rank() == expected
        assert RationalMatrix(list(zip(*rows))).rank() == expected
        deficient += expected < min(nrows, ncols)
    assert deficient > 100


def test_rank_of_products_never_exceeds_factors():
    rng = random.Random(7)
    for _ in range(40):
        a = RationalMatrix(
            tuple(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                for _ in range(4)
            )
        )
        b = RationalMatrix(
            tuple(
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(5))
                for _ in range(3)
            )
        )
        assert (a * b).rank() <= min(a.rank(), b.rank())


def test_immutability_and_hashing():
    a = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        a.entries = {}
    assert hash(a) == hash(RationalMatrix([[1, 2], [3, 4]]))
    assert a != "1,2;3,4"


def random_rows(rng, nrows, ncols):
    """Mostly zero rows with rational entries, as dense lists of Fractions."""
    return [
        [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.3 else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


def dense_of(m):
    """The entries of ``m`` read one by one, as dense lists of exact rationals."""
    return [[m.entry(r, s) for s in range(1, m.ncols + 1)] for r in range(1, m.nrows + 1)]


def test_sparse_operations_match_a_dense_reference():
    rng = random.Random(61)
    for _ in range(200):
        p, q, r = (rng.randint(1, 6) for _ in range(3))
        a_rows, a2_rows, b_rows = random_rows(rng, p, q), random_rows(rng, p, q), random_rows(rng, q, r)
        a, a2, b = RationalMatrix(a_rows), RationalMatrix(a2_rows), RationalMatrix(b_rows)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        expected = {
            "mul": [[sum(x * y for x, y in zip(row, col)) for col in zip(*b_rows)] for row in a_rows],
            "add": [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a_rows, a2_rows)],
            "sub": [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a_rows, a2_rows)],
            "scalar": [[c * x for x in row] for row in a_rows],
        }
        got = {
            "mul": a * b,
            "add": a + a2,
            "sub": a - a2,
            "scalar": c * a,
        }
        for op, m in got.items():
            assert dense_of(m) == expected[op], op
            assert 0 not in m.entries.values(), op
        assert a * c == c * a
        assert (a - a).entries == {} and (a + -a).entries == {} and (0 * a).entries == {}
        assert (a * b).is_zero() == all(x == 0 for row in expected["mul"] for x in row)


def test_explicit_zeros_are_neither_stored_nor_compared():
    rng = random.Random(62)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = random_rows(rng, n, n)
        # integer-valued entries given as int, the rest as Fraction
        given = {
            (r, s): int(x) if x.denominator == 1 else x
            for r, row in enumerate(rows, 1)
            for s, x in enumerate(row, 1)
            if x
        }
        dense = RationalMatrix(rows)
        assert len(dense.entries) == len(given)
        assert dense == RationalMatrix.from_entries(n, given)
        assert hash(dense) == hash(RationalMatrix.from_entries(n, given))
        assert dense == RationalMatrix.from_entries(n, {**given, (1, 1): given.get((1, 1), 0)})
    assert RationalMatrix.zero(2, 3) != RationalMatrix.zero(3, 2)


def stored_types(m):
    return {type(a) for a in m.entries.values()}


def test_integral_entries_are_ints_and_the_rest_fractions():
    m = RationalMatrix([[Fraction(4, 2), True, Fraction(1, 3)], [0, -1, Fraction(-6, 3)]])
    assert m.entries == {(1, 1): 2, (1, 2): 1, (1, 3): Fraction(1, 3), (2, 2): -1, (2, 3): -2}
    assert {pos: type(a) for pos, a in m.entries.items()} == {
        (1, 1): int, (1, 2): int, (1, 3): Fraction, (2, 2): int, (2, 3): int
    }
    assert stored_types(RationalMatrix.from_entries(2, {(1, 2): Fraction(3), (2, 1): False})) == {int}
    assert stored_types(RationalMatrix.elementary(3, 1, 2)) == {int}
    assert stored_types(RationalMatrix([[Fraction(1), 0], [0, Fraction(1)]])) == {int}


def test_no_float_appears_in_arithmetic_or_rank():
    """Sums that cancel a denominator come back as ints; a Fraction stays
    only where an entry is not integral, and a float never appears."""
    rng = random.Random(63)
    for _ in range(200):
        p, q, r = (rng.randint(1, 5) for _ in range(3))
        a, a2, b = (
            RationalMatrix(random_rows(rng, *shape)) for shape in ((p, q), (p, q), (q, r))
        )
        c = rng.choice([2, -1, Fraction(3, 1), Fraction(1, 3), Fraction(-5, 2)])
        for m in (a, a + a2, a - a2, a * b, c * a, a * c, -a):
            for x in m.entries.values():
                assert type(x) in (int, Fraction)
                assert (type(x) is int) == (Fraction(x).denominator == 1)
        assert isinstance(a.rank(), int)
    third = Fraction(1, 3)
    assert stored_types(RationalMatrix([[third, third, third]]) * RationalMatrix([[1], [1], [1]])) == {int}
    assert stored_types(RationalMatrix([[third]]) + RationalMatrix([[Fraction(2, 3)]])) == {int}
    assert stored_types(3 * RationalMatrix([[third, Fraction(2, 3)]])) == {int}


def test_rank_divides_exactly():
    """Rank-one matrices whose first pivot row is (3, 1).  With ``int / int``
    division that row becomes (1.0, 0.333...), and in the second matrix
    ``5/3 - 5 * 0.333...`` leaves a float residue of about 2e-16, so the
    rank comes out as 2."""
    assert RationalMatrix([[3, 1], [1, Fraction(1, 3)]]).rank() == 1
    assert RationalMatrix([[3, 1], [5, Fraction(5, 3)]]).rank() == 1
    assert RationalMatrix([[3, 1], [5, Fraction(5, 3) + Fraction(1, 10**20)]]).rank() == 2


def test_rank_scales_each_row_by_the_lcm_of_its_denominators():
    """Rows whose denominators have an lcm above each of them (4 and 6 give
    12), and numerators far beyond a float's 53 bits.  Scaling a row by its
    largest denominator, or truncating its entries, breaks these ranks."""
    big = 10**30 + 7
    cases = [
        [[Fraction(1, 4), Fraction(1, 6)], [3, 2]],
        [[Fraction(1, 4), Fraction(1, 6)], [1, 0]],
        [[Fraction(1, 6), Fraction(1, 10), Fraction(1, 15)], [5, 3, 2], [0, 0, 1]],
        [[Fraction(big, 4), Fraction(big, 6)], [3, 2]],
        [[Fraction(big, 4), Fraction(big + 1, 6)], [3, 2]],
        [[Fraction(1, 9), Fraction(1, 6), Fraction(big, 4)], [4, 6, 9 * big]],
    ]
    rng = random.Random(1412)
    for _ in range(60):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = [
            [Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**25), rng.choice([4, 6, 9, 10, 15]))
             for _ in range(ncols)]
            for _ in range(nrows)
        ]
        a, b = Fraction(rng.randint(-9, 9), rng.choice([4, 6])), Fraction(rng.randint(1, 10**20), 9)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])  # a dependent row
        cases.append(rows)
    expected = [gauss_rank(rows) for rows in cases]
    assert expected[:6] == [1, 2, 2, 1, 2, 1]
    for rows, rank in zip(cases, expected):
        assert RationalMatrix(rows).rank() == rank
        assert RationalMatrix(list(zip(*rows))).rank() == rank


def test_int_and_fraction_built_twins_are_equal():
    rng = random.Random(64)
    for _ in range(50):
        rows = random_rows(rng, rng.randint(1, 5), rng.randint(1, 5))
        as_ints = [[int(x) if x.denominator == 1 else x for x in row] for row in rows]
        fractions_only, ints = RationalMatrix(rows), RationalMatrix(as_ints)
        assert fractions_only == ints and hash(fractions_only) == hash(ints)
        assert fractions_only.entries == ints.entries
        assert {pos: repr(a) for pos, a in fractions_only.entries.items()} == {
            pos: repr(a) for pos, a in ints.entries.items()
        }

