"""The permutations of S_n, and dense reference matrices for the tests:
lists of rows of ``int`` or ``Fraction`` entries, built from sparse dicts
keyed by 1-indexed ``(row, column)``, with a product, a sum and a rank by
plain Fraction Gaussian elimination.  The rank shares no code with ``tangent._insert``, so the
references it ranks are independent of the integer echelon they check."""

import itertools
from fractions import Fraction


def all_perms(n):
    """All of S_n in lexicographic one-line order."""
    return itertools.permutations(range(1, n + 1))


def dense(m, n):
    """The sparse dict ``m`` as ``n`` rows of ``n`` entries."""
    return [[m.get((r, c), 0) for c in range(1, n + 1)] for r in range(1, n + 1)]


def permutation(p):
    """The matrix sending the basis vector e_j to e_p(j)."""
    return dense({(v, j): 1 for j, v in enumerate(p, 1)}, len(p))


def mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def add(a, b, c=1):
    """``a + c b``."""
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def flat(m):
    """The row-major vector of the entries of ``m``."""
    return [x for row in m for x in row]


def columns(m, j):
    """The first ``j`` columns of ``m``, as rows."""
    return [row[:j] for row in m]


def span_rank(*blocks):
    """The dimension of the sum of the column spans of ``blocks``: the rank
    of the matrix that sets them side by side."""
    return gauss_rank([sum(rows, []) for rows in zip(*blocks)])


def gauss_rank(rows):
    """The rank over Q, by Gaussian elimination on Fractions."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank
