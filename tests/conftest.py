"""Shared reference objects used across the suite."""

from __future__ import annotations

import functools
import heapq
import math
from itertools import product

import pytest

from fanobott import (
    PhiSigma,
    children_map,
    enumerate_matrices,
    make_forest,
    relabel,
    to_matrix,
    validate,
)
from fanobott.matrix import _row_choices

# 6x6 reference matrix with one tree: root 6, children 3 and 5,
# 3 above 1 (+) and 2 (-), 5 above 4 (-); edge signs 3:-, 5:+.
REFERENCE_6 = [
    [0, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, -1],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, -1, 1],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
]

# Expected images of REFERENCE_6 under the four flips exercised everywhere.
REFERENCE_6_COLFLIP_3 = [
    [0, 0, -1, 0, 0, -1],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, -1, 1],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
]
REFERENCE_6_COLFLIP_5 = [
    [0, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, -1],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
]
REFERENCE_6_EDGEFLIP_3_6 = [
    [0, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, 1],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, -1, 1],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
]
REFERENCE_6_EDGEFLIP_5_6 = [
    [0, 0, 1, 0, 0, 0],
    [0, 0, -1, 0, 0, -1],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, -1, -1],
    [0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, 0],
]

# Five-vertex tree: root 5, children 2 (-) and 4 (+), 1 below 2 (+),
# 3 below 4 (-).  Leading entries n12=n35=n45=1, n25=n34=-1.
TREE_5 = [
    [0, 1, 0, 0, 0],
    [0, 0, 0, 0, -1],
    [0, 0, 0, -1, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
]

# Two components: root 3 over 1 (+) and 2 (-); root 5 over 4 (+).
FOREST_5 = [
    [0, 0, 1, 0, 0],
    [0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0],
]


@pytest.fixture
def a6():
    return validate(REFERENCE_6)


@pytest.fixture
def tree5():
    return validate(TREE_5)


@pytest.fixture
def forest5():
    return validate(FOREST_5)


def star_trio():
    """Three sign variants of the star with root 5 over 1, 2, 4 and 3 below 4.

    Returns the matrices of the variants (s1, s2, s4; s3 fixed "+"):
    (+,-,-), (+,-,+), (+,+,-).  The first two are variety-equivalent, the
    third is not equivalent to the first.
    """
    def build(s1, s2, s4):
        return to_matrix(make_forest((5, 5, 4, 5, 0), (s1, s2, "+", s4, "")))

    return build("+", "-", "-"), build("+", "-", "+"), build("+", "+", "-")


def seven_vertex_pair():
    """The 7-vertex diffeomorphic pair: equal shapes, signs differing
    at the edges below root 7 and inside both subtrees."""
    a = to_matrix(make_forest((3, 3, 7, 6, 6, 7, 0),
                              ("+", "-", "+", "+", "+", "+", "")))
    b = to_matrix(make_forest((3, 3, 7, 6, 6, 7, 0),
                              ("-", "+", "+", "-", "-", "-", "")))
    return a, b


def broom_pair(p: int):
    """The two sign patterns on a broom with two leaves and handle length p.

    After renaming the leaves to 1, 2 and the handle to 3..p+3, the
    all-plus broom has leading entries n13=1 and n_{i,i+1}=1 for
    i=2..p+2; flipping one leaf edge gives n23=-1 with n24=1 instead.
    """
    d = p + 3
    rows = [[0] * d for _ in range(d)]
    rows[0][2] = 1
    for i in range(2, p + 3):
        rows[i - 1][i] = 1
    plain = validate(rows)

    rows = [[0] * d for _ in range(d)]
    rows[0][2] = 1
    rows[1][2] = -1
    rows[1][3] = 1
    for i in range(3, p + 3):
        rows[i - 1][i] = 1
    mixed = validate(rows)
    return plain, mixed


_FB_CACHE: dict[int, list] = {}


def fb(d: int) -> list:
    """Memoized list of the whole enumeration stream for small d."""
    if d not in _FB_CACHE:
        _FB_CACHE[d] = list(enumerate_matrices(d))
    return _FB_CACHE[d]


def phi_sigmas(d: int):
    """The parent/sign data of the enumeration stream, in stream order."""
    for combo in product(*reversed(_row_choices(d))):
        phi, sigma = zip(*reversed(combo))
        yield PhiSigma(phi, sigma)


@functools.cache
def _candidates(d: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Primitive vectors in [-bound, bound]^d with positive leading entry."""
    return tuple(
        vec for vec in product(range(-bound, bound + 1), repeat=d)
        if next((x for x in vec if x), 0) > 0 and math.gcd(*vec) == 1
    )


def sve_brute_force(a, bound: int = 2) -> frozenset[tuple[int, ...]]:
    """Scan the whole coefficient box for vanishing squares.

    Checks every primitive vector with entries in [-bound, bound] and a
    positive leading coefficient, and keeps those whose reduced square is
    identically zero.  Independent of `enumerate_sve`; the box has
    (2 bound + 1)^d points, which keeps the scan to small d.
    """
    d = a.dim
    kept = _candidates(d, bound)
    for i in range(d):
        for j in range(i + 1, d):
            n = a.rows[i][j]
            kept = [vec for vec in kept if vec[j] * (vec[j] * n + 2 * vec[i]) == 0]
    return frozenset(kept)


def fano_violation(rows) -> tuple[tuple[int, ...], int] | None:
    """The first maximal cone of the Bott fan that breaks the Fano condition.

    rows is a strictly upper triangular integer grid A.  Its Bott fan has
    the rays e_i (ray i) and -e_i + row i of A (ray d+i), 0-based, and one
    maximal cone per choice of one ray from each pair.  The tower is Fano
    exactly when the anticanonical support function is strictly convex:
    the u_sigma with <u_sigma, v> = 1 on the rays of each cone sigma has
    <u_sigma, w> < 1 on every other ray w.  Ray i and ray d+i are zero
    below coordinate i and +-1 at it, so back substitution from stage d-1
    down gives u_sigma coordinate by coordinate, and once stage i is
    chosen the other ray of pair i can be tested; any cone through a
    failing choice fails.  Returns (cone, ray): the sorted ray indices of
    the first failing cone, its lower stages taking ray i, and the other
    ray that fails, in the order of a search that tries ray i before ray
    d+i at each stage from d-1 down; None if no cone fails.  Integers
    only: no fan, polytope or rational arithmetic from the package.
    """
    d = len(rows)
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rays += [tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(rows)]
    u = [0] * d

    def pair(x, y):
        return sum(a * b for a, b in zip(x, y))

    def search(i, chosen):
        if i < 0:
            return None
        for ray, other in ((i, d + i), (d + i, i)):
            u[i] = 0
            # <u, ray> = 1 with ray's coordinate i equal to +-1
            u[i] = (1 - pair(rays[ray], u)) * rays[ray][i]
            if pair(rays[other], u) >= 1:
                return tuple(sorted((*chosen, ray, *range(i)))), other
            found = search(i - 1, (*chosen, ray))
            if found:
                return found
        return None

    return search(d - 1, ())


def subtree_vertices(t, v: int) -> frozenset[int]:
    """v together with all of its descendants."""
    kids = children_map(t)
    out = set()
    stack = [v]
    while stack:
        u = stack.pop()
        out.add(u)
        stack.extend(kids[u])
    return frozenset(out)


def relabel_topological(t):
    """Relabel so that every parent label exceeds all its children's.

    Vertices become eligible once all their children are relabeled, and the
    eligible vertex with the smallest original label goes next; an input
    that already satisfies the order comes back unchanged with the identity
    permutation.  Returns (forest, pi) with pi[i-1] the new label of the
    original vertex i.
    """
    d = t.size
    kids = children_map(t)
    pending = {v: len(kids[v]) for v in range(1, d + 1)}
    heap = [v for v in range(1, d + 1) if pending[v] == 0]
    heapq.heapify(heap)
    pi = [0] * d
    next_label = 0
    while heap:
        v = heapq.heappop(heap)
        next_label += 1
        pi[v - 1] = next_label
        p = t.parents[v - 1]
        if p != 0:
            pending[p] -= 1
            if pending[p] == 0:
                heapq.heappush(heap, p)
    perm = tuple(pi)
    return relabel(t, perm), perm
