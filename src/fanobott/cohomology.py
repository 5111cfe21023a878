"""Degree-two ring invariants of an admissible matrix.

The cohomology ring of the tower of a matrix (n_ij) is generated in degree
two by classes x_1..x_d subject to x_j^2 = (sum_i n_ij x_i) x_j, so every
square rewrites uniquely on the squarefree basis {x_i x_j : i < j}:

    (a_1 x_1 + ... + a_d x_d)^2  ->  sum_{i<j} a_j (a_j n_ij + 2 a_i) x_i x_j.

A primitive integer form whose square vanishes is a square-vanishing
element.  These are exactly x_p for leaf columns p and the partnered forms
x_p - 2 n_pq x_q; the partnered pairs are disjoint, any maximal set of
square-vanishing elements extendable to a basis has one member per leaf,
and cutting the leaf realizes the quotient by the element.  The module
also exposes the mod-2 cut rank that separates broom sign patterns.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence

from fanobott.forest import SignedRootedForest, _kids_and_order, from_matrix
from fanobott.matrix import FanoBottError, FanoBottMatrix, Record, _require_int, validate


class NotALeafColumnError(FanoBottError, ValueError):
    """The named column is not zero, so its vertex is not a leaf."""

    def __init__(self, alpha: int):
        self.alpha = alpha
        super().__init__(f"column {alpha} is not zero")


def square_reduce(a: FanoBottMatrix, coeffs: Sequence[int]
                  ) -> dict[tuple[int, int], int]:
    """Coefficients of the reduced square of sum(coeffs[i-1] * x_i).

    Returns c(i, j) = a_j (a_j n_ij + 2 a_i) for every pair i < j, keyed by
    the 1-based pair.

    Raises:
        ValueError: if the count differs from d or a coefficient is not an int.
    """
    d = a.dim
    if len(coeffs) != d:
        raise ValueError(f"{len(coeffs)} coefficients for a {d}-row matrix")
    c = [_require_int("coefficient", x) for x in coeffs]
    out = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            aj, ai = c[j - 1], c[i - 1]
            out[(i, j)] = aj * (aj * a.entry(i, j) + 2 * ai)
    return out


def is_primitive(coeffs: Sequence[int]) -> bool:
    """Nonzero integer vector whose nonzero entries have gcd 1.

    Raises:
        ValueError: if an entry is not an int.
    """
    coeffs = [_require_int("coefficient", x) for x in coeffs]
    values = [abs(x) for x in coeffs if x]
    return bool(values) and math.gcd(*values) == 1


def is_sve(a: FanoBottMatrix, coeffs: Sequence[int]) -> bool:
    """Whether the form is primitive with identically vanishing square."""
    if not is_primitive(coeffs):
        return False
    return all(v == 0 for v in square_reduce(a, coeffs).values())


class SveInventory(Record):
    """The square-vanishing elements, reported up to global sign.

    g lists the leaves p that admit a partnered form, recorded in g_prime
    as (p, q, sign) for x_p - 2*sign*x_q; h lists the remaining leaves.
    maximal_basis_number = |g| + |h| is the number of leaves.
    """

    g: tuple[int, ...]
    g_prime: tuple[tuple[int, int, int], ...]
    h: tuple[int, ...]
    maximal_basis_number: int

    def to_json(self) -> dict:
        return {
            "g": list(self.g),
            "g_prime": [{"p": p, "q": q, "sign": s} for p, q, s in self.g_prime],
            "h": list(self.h),
            "maximal_basis_number": self.maximal_basis_number,
        }

    def vectors(self, dim: int) -> frozenset[tuple[int, ...]]:
        """All inventory members as coefficient vectors."""
        out = set()
        for p in self.g + self.h:
            out.add(tuple(1 if i == p else 0 for i in range(1, dim + 1)))
        for p, q, s in self.g_prime:
            vec = [0] * dim
            vec[p - 1] = 1
            vec[q - 1] = -2 * s
            out.add(tuple(vec))
        return frozenset(out)


def enumerate_sve(a: FanoBottMatrix) -> SveInventory:
    """Classify the square-vanishing elements of the matrix.

    x_p vanishes exactly when column p is zero (p is a leaf).  A leaf p is
    partnered with the first q > p such that n_pq is nonzero and column q
    has no other nonzero entry; then x_p - 2 n_pq x_q vanishes as well, and
    distinct partnered pairs never share a vertex.  Both tests read one
    count of nonzero entries per column.
    """
    d = a.dim
    nonzero = [d - column.count(0) for column in zip(*a.rows)]
    g: list[int] = []
    g_prime: list[tuple[int, int, int]] = []
    h: list[int] = []
    for p, row in enumerate(a.rows, 1):
        if nonzero[p - 1]:
            continue
        q = next((q for q in range(p + 1, d + 1)
                  if row[q - 1] and nonzero[q - 1] == 1), None)
        if q is None:
            h.append(p)
        else:
            g.append(p)
            g_prime.append((p, q, row[q - 1]))
    return SveInventory(tuple(g), tuple(g_prime), tuple(h), len(g) + len(h))


def quotient_by_leaf(a: FanoBottMatrix, alpha: int) -> FanoBottMatrix:
    """Delete row and column alpha; the forest loses the leaf alpha.

    Raises:
        NotALeafColumnError: if column alpha is nonzero.
    """
    if not 1 <= _require_int("alpha", alpha) <= a.dim or any(row[alpha - 1] for row in a.rows):
        raise NotALeafColumnError(alpha)
    rows = [
        tuple(v for j0, v in enumerate(row) if j0 != alpha - 1)
        for i0, row in enumerate(a.rows)
        if i0 != alpha - 1
    ]
    return validate(rows)


def peel_signature(a: FanoBottMatrix | SignedRootedForest) -> tuple[int, ...]:
    """Leaf counts under repeated cutting of the whole current leaf set.

    Round r cuts exactly the vertices of height r - 1 (0 for a leaf, else
    one more than the highest child), so the signature is the histogram of
    heights, taken in one pass from the leaves up.  A forest may be given
    in place of its matrix.
    """
    t = a if isinstance(a, SignedRootedForest) else from_matrix(a)
    kids, order = _kids_and_order(t.parents)
    height = [0] * (t.size + 1)
    for v in reversed(order):
        if kids[v]:
            height[v] = 1 + max(height[k] for k in kids[v])
    counts = Counter(height[v] for v in order)
    return tuple(counts[h] for h in range(len(counts)))


def cut_rank_gf2(a: FanoBottMatrix, s: Iterable[int]) -> int:
    """Mod-2 rank of the submatrix with rows s and the complementary columns.

    Entries are taken mod 2 (so -1 counts as 1); s holds 1-based labels.

    Raises:
        ValueError: if a label is not an int or lies outside 1..d.
    """
    d = a.dim
    s_set = {_require_int("label", v) for v in s}
    for v in s_set:
        if not 1 <= v <= d:
            raise ValueError(f"label {v} out of range 1..{d}")
    cols = [j for j in range(1, d + 1) if j not in s_set]
    return _gf2_rank([
        sum(1 << pos for pos, j in enumerate(cols) if a.rows[p - 1][j - 1] % 2)
        for p in sorted(s_set)
    ])


def _gf2_rank(rows: list[int]) -> int:
    """Gaussian elimination on int bitsets."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank
