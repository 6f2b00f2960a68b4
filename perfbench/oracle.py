"""Answer checks that share no code with the ``borbit`` fast paths.

Permutations are 1-indexed tuples in one-line notation, as in ``borbit``.
A label ``(sigma, alpha)`` of the context ``(n, k)`` stands for the coset
``w H`` of its product ``w = sigma . alpha``, where ``H`` moves the first and
last ``k`` positions in parallel and permutes the middle block freely.
"""

from __future__ import annotations

import itertools
import math

Perm = tuple[int, ...]


def label_count(n: int, k: int) -> int:
    """Number of labels of ``(n, k)``: n! / (k! (n - 2k)!)."""
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - 2 * k))


def bruhat_leq_rank(u: Perm, w: Perm) -> bool:
    """Bruhat order by the rank-matrix criterion.

    ``u <= w`` iff for all ``i, j``: #{a <= i : u(a) >= j} <= #{a <= i : w(a) >= j}.
    """
    n = len(u)
    cu = [0] * (n + 2)
    cw = [0] * (n + 2)
    for i in range(n):
        for j in range(1, u[i] + 1):
            cu[j] += 1
        for j in range(1, w[i] + 1):
            cw[j] += 1
        if any(cu[j] > cw[j] for j in range(1, n + 1)):
            return False
    return True


def in_coset(n: int, k: int, rep: Perm, member: Perm) -> bool:
    """Is ``member`` in ``rep . H``? That is, does ``rep^-1 . member`` lie in H?"""
    inv = [0] * (n + 1)
    for pos, val in enumerate(rep, start=1):
        inv[val] = pos
    h = [inv[v] for v in member]
    outer = h[:k]
    if sorted(outer) != list(range(1, k + 1)):
        return False
    if any(h[n - k + j] != outer[j] + n - k for j in range(k)):
        return False
    return sorted(h[k : n - k]) == list(range(k + 1, n - k + 1))


def closure_leq(n: int, k: int, rep: Perm, target: Perm) -> bool:
    """Closure order: does some member of ``rep . H`` lie below ``target``?

    Fixing how ``H`` moves the outer blocks leaves a right coset of the
    parabolic subgroup that permutes the middle positions.  Its element with
    the middle values sorted is the Bruhat-minimum of that coset, so only
    those ``k!`` elements need testing, not all ``k! (n - 2k)!`` members.
    """
    middle = tuple(sorted(rep[k : n - k]))
    for a in itertools.permutations(range(k)):
        head = tuple(rep[i] for i in a)
        tail = tuple(rep[n - k + i] for i in a)
        if bruhat_leq_rank(head + middle + tail, target):
            return True
    return False


def contains_pattern(w: Perm, pattern: Perm) -> bool:
    """Brute force: do some positions of ``w`` carry values ordered like ``pattern``?"""
    order = sorted(range(len(pattern)), key=lambda i: pattern[i])
    for positions in itertools.combinations(range(len(w)), len(pattern)):
        values = [w[p] for p in positions]
        if all(values[order[i]] < values[order[i + 1]] for i in range(len(order) - 1)):
            return True
    return False


def transitive_reduction(below: dict) -> set:
    """Covers ``(a, b)`` of a strict order given as ``below[b] = {a : a < b}``."""
    return {
        (a, b)
        for b, lower in below.items()
        for a in lower
        if not any(a in below[c] for c in lower)
    }


def root_family(n: int, k: int, i: int, j: int) -> str | None:
    """Family of ``(i, j)``, ``i < j``, among the stabiliser's positive roots."""
    if j <= k:
        return "INSIDE_GLK"
    if i <= k and j == i + n - k:
        return "DELTA"
    if i <= k and j > n - k:
        return "CROSS_FAR"
    if i <= k < j <= n - k:
        return "TOP_MIDDLE"
    if k < i <= n - k < j:
        return "MIDDLE_BOTTOM"
    return None


def positive_roots(n: int, k: int) -> dict[tuple[int, int], str]:
    return {
        (i, j): family
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (family := root_family(n, k, i, j)) is not None
    }


def curve_tangent(n: int, k: int, i: int, j: int) -> dict:
    """Tangent vector at the base point of the curve of root ``(i, j)``, as
    a sparse matrix {(row, column): entry}."""
    family = root_family(n, k, i, j)
    if family in ("INSIDE_GLK", "TOP_MIDDLE"):
        return {(j, i + n - k): 1}
    if family == "DELTA":
        return {(i + n - k, i + n - k): 1, (i, i): -1}
    if family == "CROSS_FAR":
        return {(j, i + n - k): 1, (j - n + k, i): -1}
    return {(j - n + k, i): -1}


def borel_stabiliser(n: int, k: int) -> list[dict]:
    """Basis of the Borel part of the base point's stabiliser algebra."""
    out = [{(a, b): 1, (a + n - k, b + n - k): 1} for a in range(1, k + 1) for b in range(a, k + 1)]
    blocks = (
        (range(k + 1, n - k + 1), None),
        (range(1, k + 1), range(k + 1, n - k + 1)),
        (range(1, k + 1), range(n - k + 1, n + 1)),
        (range(k + 1, n - k + 1), range(n - k + 1, n + 1)),
    )
    for rows, cols in blocks:
        for a in rows:
            for b in (range(a, n - k + 1) if cols is None else cols):
                out.append({(a, b): 1})
    return out


PRIME = 2**61 - 1


def _product(x: dict, y: dict) -> dict:
    by_row: dict = {}
    for (r, c), v in y.items():
        by_row.setdefault(r, []).append((c, v))
    out: dict = {}
    for (r, m), u in x.items():
        for c, v in by_row.get(m, ()):
            out[(r, c)] = out.get((r, c), 0) + u * v
    return out


def bracket(x: dict, y: dict) -> dict:
    """``x y - y x`` reduced mod PRIME, zeros dropped."""
    out = _product(x, y)
    for key, v in _product(y, x).items():
        out[key] = out.get(key, 0) - v
    return {key: v % PRIME for key, v in out.items() if v % PRIME}


class ModSpan:
    """Row echelon basis mod PRIME of sparse vectors."""

    def __init__(self):
        self.rows: list[tuple[object, dict]] = []

    def add(self, vec: dict) -> bool:
        v = {key: x % PRIME for key, x in vec.items() if x % PRIME}
        for pivot, row in self.rows:
            c = v.get(pivot)
            if c:
                for key, x in row.items():
                    y = (v.get(key, 0) - c * x) % PRIME
                    if y:
                        v[key] = y
                    else:
                        v.pop(key, None)
        if not v:
            return False
        pivot = min(v)
        inv = pow(v[pivot], PRIME - 2, PRIME)
        self.rows.append((pivot, {key: x * inv % PRIME for key, x in v.items()}))
        return True


def bracket_span(n: int, k: int, t_k: list[tuple[int, int]]) -> int:
    """Dimension of the closure, under the Borel stabiliser, of the base
    orbit's tangent space plus the tangents of the curves of the roots in
    ``t_k``.  Computed on sparse integer matrices mod a 61-bit prime, which
    shares no code with ``tangent.bk_span``.  A rank mod p can only fall
    short of the rational rank, when p divides a minor; a check would then
    fail, so a wrong answer is never accepted."""
    seeds = [{(r, s): 1} for r in range(1, k + 1) for s in range(n - k + 1, n + 1) if r <= s - (n - k)]
    seeds += [curve_tangent(n, k, i, j) for i, j in t_k]
    span = ModSpan()
    queue = [m for m in seeds if span.add(m)]
    basis = borel_stabiliser(n, k)
    while queue:
        v = queue.pop()
        for b in basis:
            w = bracket(b, v)
            if w and span.add(w):
                queue.append(w)
    return len(span.rows)
