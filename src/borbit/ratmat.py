"""Immutable sparse matrices over the rationals with exact rank computation.

A matrix is its shape plus a read-only dict of its nonzero entries, keyed
by 1-indexed ``(row, column)`` like :data:`borbit.tangent.SparseMatrix`.
Each value is nonzero and in its :func:`exact` form: an ``int`` when it is
integral, a :class:`fractions.Fraction` only when it is not.  No zero is
ever stored, so equal matrices have equal dicts, and nothing reads a
matrix back as dense rows.  Its one library caller is
``atlas.rep_matrix``, whose representatives the ``verify`` suite squares
and ranks: they have k entries equal to 1, and products, sums, the
triangularity tests and rank touch only the stored entries, in integer
arithmetic until a truly rational entry appears.  Rank scales the rows to integers for the
fraction-free echelon ``tangent._insert``, so no floating point appears
anywhere.  Constructors for elementary matrices use the usual 1-indexed
convention: ``elementary(n, r, s)`` is the matrix with a single 1 in row
``r``, column ``s``; ``RationalMatrix(rows)`` builds one from literal
dense rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterable, Sequence

Scalar = int | Fraction


def exact(x: Scalar) -> Scalar:
    """The stored form of a rational: an ``int`` when it is integral (a
    ``bool`` becomes its ``int``), else a ``Fraction``.

    >>> exact(Fraction(4, 2)), exact(True), exact(Fraction(1, 3))
    (2, 1, Fraction(1, 3))
    """
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class RationalMatrix:
    """A rectangular rational matrix, hashable and immutable, stored as
    ``entries``, the read-only dict of its nonzero entries in :func:`exact`
    form, which arithmetic reads and ``rank`` scales to integer rows for
    the shared echelon.  The constructor takes dense rows.

    >>> a = RationalMatrix([[0, 1], [1, 0]])
    >>> (a * a) == RationalMatrix.matrix_identity(2)
    True
    >>> sorted(a.entries)
    [(1, 2), (2, 1)]
    >>> RationalMatrix([[1, 2], [2, 4]]).rank()
    1
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        data = [list(row) for row in rows]
        width = len(data[0]) if data else 0
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        entries = {
            (r, s): exact(x)
            for r, row in enumerate(data, 1)
            for s, x in enumerate(row, 1)
            if x
        }
        self._set(len(data), width, entries)

    def _set(self, nrows: int, ncols: int, entries: dict[tuple[int, int], Scalar]) -> None:
        if nrows < 1 or ncols < 1:
            raise ValueError("empty matrix")
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", MappingProxyType(entries))

    @classmethod
    def _of(cls, nrows: int, ncols: int, entries: dict[tuple[int, int], Scalar]) -> "RationalMatrix":
        """Wrap ``entries``, which must hold only nonzero values in
        :func:`exact` form."""
        m = object.__new__(cls)
        m._set(nrows, ncols, entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def zero(cls, nrows: int, ncols: int | None = None) -> "RationalMatrix":
        return cls._of(nrows, nrows if ncols is None else ncols, {})

    @classmethod
    def matrix_identity(cls, n: int) -> "RationalMatrix":
        return cls.from_entries(n, {(i, i): 1 for i in range(1, n + 1)})

    @classmethod
    def elementary(cls, n: int, r: int, s: int) -> "RationalMatrix":
        """E_{r,s}: single unit entry in row ``r``, column ``s`` (1-indexed)."""
        if not (1 <= r <= n and 1 <= s <= n):
            raise ValueError(f"elementary index out of range: ({r}, {s})")
        return cls._of(n, n, {(r, s): 1})

    @classmethod
    def from_entries(
        cls, n: int, entries: dict[tuple[int, int], Scalar]
    ) -> "RationalMatrix":
        """n x n matrix with the given 1-indexed entries, zero elsewhere."""
        if not all(1 <= r <= n and 1 <= s <= n for r, s in entries):
            raise ValueError(f"entry index out of range for size {n}")
        return cls._of(n, n, {pos: exact(x) for pos, x in entries.items() if x})

    @classmethod
    def permutation(cls, p: Sequence[int]) -> "RationalMatrix":
        """Permutation matrix sending the basis vector e_i to e_{p(i)}."""
        return cls.from_entries(len(p), {(v, j): 1 for j, v in enumerate(p, 1)})

    def entry(self, r: int, s: int) -> Scalar:
        """1-indexed entry access."""
        if not (1 <= r <= self.nrows and 1 <= s <= self.ncols):
            raise IndexError(f"entry ({r}, {s}) outside {self.nrows}x{self.ncols}")
        return self.entries.get((r, s), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        """``self + sign * other``, dropping entries that cancel."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs "
                f"{other.nrows}x{other.ncols}"
            )
        out = dict(self.entries)
        for pos, b in other.entries.items():
            out[pos] = out.get(pos, 0) + sign * b
        return RationalMatrix._of(
            self.nrows, self.ncols, {pos: exact(v) for pos, v in out.items() if v}
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(
            self.nrows, self.ncols, {pos: -a for pos, a in self.entries.items()}
        )

    def __mul__(self, other):
        """Matrix product, pairing each nonzero ``(r, m)`` of ``self`` with
        the nonzeros of row ``m`` of ``other``; or a scalar multiple."""
        if isinstance(other, RationalMatrix):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"shape mismatch: {self.nrows}x{self.ncols} * "
                    f"{other.nrows}x{other.ncols}"
                )
            by_row: dict[int, list[tuple[int, Scalar]]] = {}
            for (r, s), b in other.entries.items():
                by_row.setdefault(r, []).append((s, b))
            out: dict[tuple[int, int], Scalar] = {}
            for (r, m), a in self.entries.items():
                for s, b in by_row.get(m, ()):
                    out[(r, s)] = out.get((r, s), 0) + a * b
            return RationalMatrix._of(
                self.nrows, other.ncols, {pos: exact(v) for pos, v in out.items() if v}
            )
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        scalar = exact(other)
        return RationalMatrix._of(
            self.nrows,
            self.ncols,
            {pos: exact(a * scalar) for pos, a in self.entries.items()} if scalar else {},
        )

    def __rmul__(self, other: Scalar) -> "RationalMatrix":
        return self.__mul__(other)

    def is_zero(self) -> bool:
        return not self.entries

    def is_upper_triangular(self) -> bool:
        return all(r <= s for r, s in self.entries)

    def is_strictly_upper_triangular(self) -> bool:
        return all(r < s for r, s in self.entries)

    def rank(self) -> int:
        """Exact rank over the rationals, on ``tangent``'s integer row
        echelon: a stored row with a ``Fraction`` entry is scaled to integers
        by the lcm of its entries' denominators, a row of ints goes in as it
        is, and the rank is the number of rows that ``_insert`` accepts.
        Scaling a row by a nonzero rational keeps its span, so the rank over
        Q is unchanged; ``_insert`` multiplies and divides only by gcds, so
        no float can appear.
        """
        from .tangent import _insert  # the one echelon; ``ratmat`` alone loads no layer

        rows: dict[int, dict[int, Scalar]] = {}
        for (r, s), a in self.entries.items():
            rows.setdefault(r, {})[s] = a
        pivots: dict[int, dict[int, int]] = {}
        for row in rows.values():
            if Fraction in map(type, row.values()):
                scale = lcm(*(a.denominator for a in row.values()))
                row = {s: int(a * scale) for s, a in row.items()}
            _insert(pivots, row)
        return len(pivots)

