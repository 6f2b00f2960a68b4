"""Symmetric group in one-line notation, reduced words, and Bruhat order.

A permutation of ``{1, ..., n}`` is a tuple of the integers ``1..n``;
``p[i-1]`` is the image of ``i``.  Composition is right-to-left:
``compose(p, q)`` applies ``q`` first.  Consequently multiplying by the
simple transposition ``s_i`` on the left swaps the *values* ``i`` and
``i+1``, while multiplying on the right swaps the *positions* ``i`` and
``i+1``.

Words in the generators are tuples of indices: ``(1, 3, 2)`` stands for
the product ``s_1 s_3 s_2``, evaluated left factor first, i.e. the
rightmost letter acts first on points.
"""

from __future__ import annotations

from typing import Sequence

Perm = tuple[int, ...]
Word = tuple[int, ...]

#: Longest reduced word accepted by the subword-enumeration routines.
WORD_LENGTH_CAP = 20


class CapExceeded(Exception):
    """An enumeration would exceed its configured size cap."""


def check_perm(p: Sequence[int]) -> Perm:
    """Validate and normalise a one-line permutation.

    >>> check_perm([2, 1])
    (2, 1)
    """
    t = tuple(p)
    if sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t!r}")
    return t


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """Product ``p q`` acting as the map ``i -> p(q(i))``.

    >>> compose((2, 1, 3, 4), (1, 3, 2, 4))   # s_1 s_2
    (2, 3, 1, 4)
    """
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return tuple([p[v - 1] for v in q])


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def simple(n: int, i: int) -> Perm:
    """The simple transposition ``s_i`` exchanging ``i`` and ``i+1``."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index out of range: {i}")
    return transposition(n, i, i + 1)


def transposition(n: int, i: int, j: int) -> Perm:
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"transposition indices out of range: ({i}, {j})")
    out = list(range(1, n + 1))
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def length(p: Perm) -> int:
    """Coxeter length = number of inversions.

    >>> length((3, 4, 1, 2))
    4
    """
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def evaluate_word(n: int, word: Sequence[int]) -> Perm:
    """Product of the simple transpositions named by ``word``.

    >>> evaluate_word(4, (1, 3, 2))
    (2, 4, 1, 3)
    """
    acc = list(range(1, n + 1))
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter out of range: s_{i} in S_{n}")
        acc[i - 1], acc[i] = acc[i], acc[i - 1]
    return tuple(acc)


def left_descents(p: Perm) -> tuple[int, ...]:
    """Indices ``i`` with ``length(s_i p) < length(p)``."""
    pos = inverse(p)
    return tuple(i for i in range(1, len(p)) if pos[i - 1] > pos[i])


def reduced_word(p: Perm) -> Word:
    """Deterministic reduced word, peeling the smallest left descent.

    ``i`` is a left descent when the value ``i+1`` precedes ``i``.  Peeling
    ``s_i`` swaps their positions and changes only the descents at ``i-1``,
    ``i`` and ``i+1``, so with none below ``i`` the next scan resumes at
    ``i-1``: O(n + length) steps in all.

    >>> reduced_word((3, 4, 1, 2))
    (2, 1, 3, 2)
    >>> evaluate_word(4, reduced_word((3, 4, 1, 2)))
    (3, 4, 1, 2)
    """
    n = len(p)
    pos = [0, *inverse(p)]  # pos[v] is the place of v; the 0 in front is no descent
    word, i = [], 1
    while i < n:
        if pos[i] < pos[i + 1]:
            i += 1
            continue
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
        word.append(i)
        i -= 1
    return tuple(word)


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Bruhat order by the rank-matrix criterion (Bjoerner-Brenti,
    *Combinatorics of Coxeter Groups*, Thm 2.1.5): ``u <= w`` iff
    ``#{a <= i : u(a) >= j} <= #{a <= i : w(a) >= j}`` for all ``i, j``.

    For one ``i`` this is sorted-prefix dominance, ``sorted(u(1..i)) <=
    sorted(w(1..i))`` entrywise: if the ``t``-th largest of ``u(1..i)`` is
    ``>= j``, so are the ``t`` largest of ``w(1..i)``; conversely take
    ``j`` to be that ``t``-th largest value.  ``diff[j]`` is the second
    count minus the first for the current prefix; appending ``u(i)`` and
    ``w(i)`` raises it by one on ``(u(i), w(i)]`` or lowers it on
    ``(w(i), u(i)]``, and the answer is False once an entry would go below 0.

    >>> bruhat_leq((2, 1, 3, 4), (3, 1, 4, 2))
    True
    >>> bruhat_leq((1, 2, 4, 3), (2, 1, 3, 4))
    False
    """
    if len(u) != len(w):
        raise ValueError(f"size mismatch: {len(u)} vs {len(w)}")
    if u == w:
        return True
    diff = [0] * (len(u) + 1)
    for a, b in zip(u, w):
        if a < b:
            for j in range(a + 1, b + 1):
                diff[j] += 1
        elif a > b:
            for j in range(b + 1, a + 1):
                if not diff[j]:
                    return False
                diff[j] -= 1
    return True


def lower_interval(w: Perm, word_cap: int = WORD_LENGTH_CAP) -> frozenset[Perm]:
    """All permutations below ``w``, by enumerating subwords of one reduced word.

    The set of subword evaluations of any reduced word for ``w`` is exactly
    the lower Bruhat interval of ``w``.  The running set of partial products
    is extended one letter at a time, which keeps the enumeration polynomial
    in the interval size instead of ``2**length``.  Nothing is cached: a
    caller that asks about one target repeatedly keeps its interval.
    """
    word = reduced_word(w)
    if len(word) > word_cap:
        raise CapExceeded(
            f"reduced word of length {len(word)} exceeds cap {word_cap}"
        )
    reach: set[Perm] = {identity(len(w))}
    for i in word:  # right multiplication by s_i swaps positions i and i+1
        reach |= {p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :] for p in reach}
    return frozenset(reach)


def pattern_positions(w: Perm, pattern: Perm) -> tuple[int, ...] | None:
    """Positions (1-based, increasing) of the first embedding of ``pattern``.

    Returns ``None`` when ``w`` avoids the pattern.  A pattern embeds at
    positions ``i_1 < ... < i_m`` when the values ``w(i_1), ..., w(i_m)``
    are in the same relative order as the pattern.  Position prefixes grow
    in increasing order, each new value only in the ``gap`` among the values
    taken so far that the pattern puts it in, and backtrack: the first
    embedding found is the lexicographically first.

    >>> pattern_positions((3, 1, 4, 2), (3, 1, 4, 2))
    (1, 2, 3, 4)
    >>> pattern_positions((2, 1, 4, 3), (3, 4, 1, 2)) is None
    True
    """
    m, n = len(pattern), len(w)
    gap = [sorted(pattern[: t + 1]).index(v) for t, v in enumerate(pattern)]
    taken, pos = [0, n + 1], [0] * m  # the values taken, sorted, between two sentinels
    t = p = 0
    while t < m:
        a, b, end = taken[gap[t]], taken[gap[t] + 1], n - m + t
        while p <= end and not a < w[p] < b:
            p += 1
        if p <= end:
            pos[t] = p
            taken.insert(gap[t] + 1, w[p])
            t, p = t + 1, p + 1
        elif t:
            t -= 1
            p = pos[t] + 1
            del taken[gap[t] + 1]
        else:
            return None
    return tuple([q + 1 for q in pos])


def contains_pattern(w: Perm, pattern: Perm) -> bool:
    return pattern_positions(w, pattern) is not None


def format_perm(p: Perm) -> str:
    """One-line serialisation: ``(2, 4, 1, 3)`` -> ``"2,4,1,3"``."""
    return ",".join(str(v) for v in p)


def parse_perm(text: str, n: int | None = None) -> Perm:
    """Inverse of :func:`format_perm`; ``"id"`` needs an explicit ``n``."""
    text = text.strip()
    if text == "id":
        if n is None:
            raise ValueError('"id" requires the group size')
        return identity(n)
    try:
        p = check_perm([int(part) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad permutation {text!r}: {exc}") from None
    if n is not None and len(p) != n:
        raise ValueError(f"expected a permutation of 1..{n}, got {text!r}")
    return p


def parse_word(text: str) -> Word:
    """Inverse of ``geometry.format_word``; bare indices like ``"1.3.2"`` also work."""
    text = text.strip()
    if text in ("", "id"):
        return ()
    letters = []
    for part in text.split("."):
        part = part.strip()
        if part.startswith("s"):
            part = part[1:]
        if not part.isdigit() or int(part) < 1:
            raise ValueError(f"bad generator word: {text!r}")
        letters.append(int(part))
    return tuple(letters)
