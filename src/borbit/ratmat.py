"""Immutable matrices over the rationals with exact rank computation.

Entries are :class:`fractions.Fraction`; every operation is exact.  Rank is
computed by fraction-free (Bareiss) elimination on an integer-scaled copy,
so no floating point appears anywhere.  Constructors for elementary
matrices use the usual 1-indexed convention: ``elementary(n, r, s)`` is
the matrix with a single 1 in row ``r``, column ``s``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Scalar = int | Fraction


class RationalMatrix:
    """A rectangular matrix of Fractions, hashable and immutable.

    >>> a = RationalMatrix([[0, 1], [1, 0]])
    >>> (a * a) == RationalMatrix.matrix_identity(2)
    True
    >>> RationalMatrix([[1, 2], [2, 4]]).rank()
    1
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("empty matrix")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @classmethod
    def zero(cls, nrows: int, ncols: int | None = None) -> "RationalMatrix":
        ncols = nrows if ncols is None else ncols
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def matrix_identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def elementary(cls, n: int, r: int, s: int) -> "RationalMatrix":
        """E_{r,s}: single unit entry in row ``r``, column ``s`` (1-indexed)."""
        if not (1 <= r <= n and 1 <= s <= n):
            raise ValueError(f"elementary index out of range: ({r}, {s})")
        return cls(
            [[1 if (i == r - 1 and j == s - 1) else 0 for j in range(n)]
             for i in range(n)]
        )

    @classmethod
    def from_entries(
        cls, n: int, entries: dict[tuple[int, int], Scalar]
    ) -> "RationalMatrix":
        """n x n matrix with the given 1-indexed entries, zero elsewhere."""
        if not all(1 <= r <= n and 1 <= s <= n for r, s in entries):
            raise ValueError(f"entry index out of range for size {n}")
        return cls(
            [[entries.get((r, s), 0) for s in range(1, n + 1)]
             for r in range(1, n + 1)]
        )

    @classmethod
    def permutation(cls, p: Sequence[int]) -> "RationalMatrix":
        """Permutation matrix sending the basis vector e_i to e_{p(i)}."""
        n = len(p)
        return cls(
            [[1 if p[j] - 1 == i else 0 for j in range(n)] for i in range(n)]
        )

    def entry(self, r: int, s: int) -> Fraction:
        """1-indexed entry access."""
        return self.rows[r - 1][s - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_shape(other)
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_shape(other)
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"shape mismatch: {self.nrows}x{self.ncols} * "
                    f"{other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other.rows))
            return RationalMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in cols]
                 for row in self.rows]
            )
        return RationalMatrix([[a * other for a in row] for row in self.rows])

    def __rmul__(self, other: Scalar) -> "RationalMatrix":
        return self.__mul__(other)

    def _check_shape(self, other: "RationalMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs "
                f"{other.nrows}x{other.ncols}"
            )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.rows)))

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def is_upper_triangular(self) -> bool:
        return all(
            self.rows[i][j] == 0
            for i in range(self.nrows)
            for j in range(min(i, self.ncols))
        )

    def is_strictly_upper_triangular(self) -> bool:
        return all(
            self.rows[i][j] == 0
            for i in range(self.nrows)
            for j in range(min(i + 1, self.ncols))
        )

    def take_columns(self, j: int) -> "RationalMatrix":
        """Submatrix of the first ``j`` columns."""
        if not 1 <= j <= self.ncols:
            raise ValueError(f"column count out of range: {j}")
        return RationalMatrix([row[:j] for row in self.rows])

    def augment(self, other: "RationalMatrix") -> "RationalMatrix":
        """Columnwise concatenation ``[self | other]``."""
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in augment")
        return RationalMatrix(
            [ra + rb for ra, rb in zip(self.rows, other.rows)]
        )

    def flatten(self) -> tuple[Fraction, ...]:
        """Row-major vector of all entries."""
        return tuple(a for row in self.rows for a in row)

    def rank(self) -> int:
        """Exact rank by fraction-free elimination.

        Rows are first scaled to integers (rank-preserving), then reduced by
        Bareiss' two-by-two determinant rule, whose divisions are exact over
        the integers.
        """
        m = []
        for row in self.rows:
            scale = lcm(*(a.denominator for a in row)) if row else 1
            m.append([int(a * scale) for a in row])
        nrows, ncols = len(m), len(m[0])
        rank = 0
        prev = 1
        for col in range(ncols):
            pivot = next(
                (i for i in range(rank, nrows) if m[i][col] != 0), None
            )
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            for i in range(rank + 1, nrows):
                for j in range(col + 1, ncols):
                    m[i][j] = (m[i][j] * m[rank][col] - m[i][col] * m[rank][j]) // prev
                m[i][col] = 0
            prev = m[rank][col]
            rank += 1
            if rank == nrows:
                break
        return rank


def format_matrix(m: RationalMatrix) -> str:
    """Row-major rational serialisation: ``"0,1/2;1,0"``."""
    return ";".join(",".join(str(a) for a in row) for row in m.rows)


def parse_matrix(text: str) -> RationalMatrix:
    """Inverse of :func:`format_matrix`."""
    try:
        return RationalMatrix(
            [[Fraction(part) for part in row.split(",")]
             for row in text.strip().split(";")]
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad matrix literal {text!r}: {exc}") from None
