"""The dense references and what they check: the conventions of the
test-local dense matrices, the library's sparse products against them, and
the integer echelon ``tangent._insert`` against ``gauss_rank``."""

import random
from fractions import Fraction
from math import lcm

from borbit.geometry import _add, _at, _mul
from borbit.perms import compose
from borbit.tangent import _insert, bracket
from dense import add, all_perms, dense, gauss_rank, mul, permutation


def insert_rank(rows):
    """The rank of ``rows`` on ``_insert``: each row is scaled to integers
    by the lcm of its entries' denominators, which keeps its span, and
    keyed by column."""
    pivots = {}
    for row in rows:
        scale = lcm(*(Fraction(x).denominator for x in row))
        _insert(pivots, {c: int(x * scale) for c, x in enumerate(row) if x})
    return len(pivots)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def test_elementary_product_rule():
    def unit(r, s):
        return dense({(r, s): 1}, 3)

    for r in range(1, 4):
        for s in range(1, 4):
            for t in range(1, 4):
                for u in range(1, 4):
                    prod = mul(unit(r, s), unit(t, u))
                    assert prod == (unit(r, u) if s == t else dense({}, 3))


def test_permutation_matrix_sends_basis_vectors():
    # column j of the matrix of w is the basis vector indexed by w(j)
    w = (2, 4, 1, 3)
    p = permutation(w)
    for j in range(1, 5):
        assert [row[j - 1] for row in p] == [1 if i == w[j - 1] else 0 for i in range(1, 5)]


def test_permutation_matrices_respect_composition():
    for u in all_perms(3):
        for w in all_perms(3):
            assert permutation(compose(u, w)) == mul(permutation(u), permutation(w))


def random_sparse(rng, n):
    """A mostly zero integer matrix as a sparse dict with no zero stored."""
    entries = {(r, c): rng.randint(-3, 3) for r in range(1, n + 1) for c in range(1, n + 1)}
    return {pos: v for pos, v in entries.items() if v and rng.random() < 0.3}


def at_degree(m, d):
    """The coefficient of ``t^d`` in the matrix ``m`` over ``Z[t]``."""
    return {(r, c): v for (r, c, e), v in m.items() if e == d}


def test_sparse_operations_match_a_dense_reference():
    """``geometry``'s products and sums over ``Z[t]``, which the curves and
    the representative-matrices suite run on, and ``tangent.bracket``
    agree with dense products."""
    rng = random.Random(61)
    for _ in range(200):
        n, d, e = rng.randint(1, 6), rng.randint(0, 2), rng.randint(0, 2)
        a, a2, b = (random_sparse(rng, n) for _ in range(3))
        da, da2, db = dense(a, n), dense(a2, n), dense(b, n)
        prod = _mul(_at(a, d), _at(b, e))
        assert {deg for _, _, deg in prod} <= {d + e}
        assert dense(at_degree(prod, d + e), n) == mul(da, db)
        total = _add(_at(a, d), _at(a2, d))
        assert dense(at_degree(total, d), n) == add(da, da2)
        commutator = bracket(a, b)
        assert dense(commutator, n) == add(mul(da, db), mul(db, da), -1)


def sparse(rows):
    """The nonzero entries of dense ``rows``, keyed by 1-based position."""
    return {(r, c): x for r, row in enumerate(rows, 1) for c, x in enumerate(row, 1) if x}


def test_explicit_zeros_are_neither_stored_nor_compared():
    """The sparse products keep no zero entry, even where terms cancel, so
    two of them are equal as dicts exactly when they are equal matrices."""
    rng = random.Random(62)
    for _ in range(100):
        n, d = rng.randint(1, 5), rng.randint(0, 2)
        a, b = random_sparse(rng, n), random_sparse(rng, n)
        da, db = dense(a, n), dense(b, n)
        prod = _mul(_at(a, d), _at(b, 0))
        total = _add(_at(a, d), _at(b, d))
        commutator = bracket(a, b)
        for m in (prod, total, commutator):
            assert 0 not in m.values()
        assert at_degree(prod, d) == sparse(mul(da, db))
        assert at_degree(total, d) == sparse(add(da, db))
        assert commutator == sparse(add(mul(da, db), mul(db, da), -1))
        assert _add(_at(a, d), _at({pos: -v for pos, v in a.items()}, d)) == {}
        assert bracket(a, a) == {}


def test_rank_known_values():
    cases = [
        (dense({(i, i): 1 for i in range(1, 6)}, 5), 5),
        ([[0] * 4] * 3, 0),
        ([[1, 2], [2, 4]], 1),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]], 1),
        ([[1, 0, 0], [0, 0, 1]], 2),
    ]
    for rows, rank in cases:
        assert gauss_rank(rows) == insert_rank(rows) == rank


def test_rank_matches_gaussian_elimination_on_random_matrices():
    rng = random.Random(20240814)
    for _ in range(120):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        rank = gauss_rank(rows)
        assert insert_rank(rows) == rank
        # rank is invariant under transpose and row duplication
        assert insert_rank(transpose(rows)) == rank
        assert insert_rank(rows + rows) == rank


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
        expected = gauss_rank(rows)
        assert insert_rank(rows) == expected
        assert insert_rank(transpose(rows)) == expected
        deficient += expected < min(nrows, ncols)
    assert deficient > 100


def test_rank_of_products_never_exceeds_factors():
    rng = random.Random(7)
    for _ in range(40):
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)]
        b = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        assert insert_rank(mul(a, b)) <= min(insert_rank(a), insert_rank(b))
        assert insert_rank(mul(a, b)) == gauss_rank(mul(a, b))


def test_rank_divides_exactly():
    """Rank-one matrices whose first pivot row is (3, 1).  With ``int / int``
    division that row becomes (1.0, 0.333...), and in the second matrix
    ``5/3 - 5 * 0.333...`` leaves a float residue of about 2e-16, so the
    rank comes out as 2."""
    cases = [
        ([[3, 1], [1, Fraction(1, 3)]], 1),
        ([[3, 1], [5, Fraction(5, 3)]], 1),
        ([[3, 1], [5, Fraction(5, 3) + Fraction(1, 10**20)]], 2),
    ]
    for rows, rank in cases:
        assert gauss_rank(rows) == insert_rank(rows) == rank


def test_rank_of_entries_beyond_53_bits():
    """Numerators far beyond a float's 53 bits, on rows whose denominators
    have an lcm above each of them (4 and 6 give 12), some with a dependent
    row.  A float, or a truncated entry, breaks these ranks."""
    big = 10**30 + 7
    cases = [
        [[Fraction(1, 4), Fraction(1, 6)], [3, 2]],
        [[Fraction(1, 4), Fraction(1, 6)], [1, 0]],
        [[Fraction(1, 6), Fraction(1, 10), Fraction(1, 15)], [5, 3, 2], [0, 0, 1]],
        [[Fraction(big, 4), Fraction(big, 6)], [3, 2]],
        [[Fraction(big, 4), Fraction(big + 1, 6)], [3, 2]],
        [[Fraction(1, 9), Fraction(1, 6), Fraction(big, 4)], [4, 6, 9 * big]],
        [[big, big + 1], [big - 1, big]],
        [[big, big + 1], [2 * big, 2 * big + 2]],
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
    assert expected[:8] == [1, 2, 2, 1, 2, 1, 2, 1]
    for rows, rank in zip(cases, expected):
        assert insert_rank(rows) == rank
        assert insert_rank(transpose(rows)) == rank
