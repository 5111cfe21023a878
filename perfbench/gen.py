"""Seeded inputs for the benchmark: random towers and equivalent partners.

Every generator takes a ``random.Random`` and uses nothing else as a source
of randomness, so one seed always gives the same inputs.  Matrices are
built from parent/sign data through the library's own constructors, and a
partner is derived from its source by the three moves, so each partner is
equivalent to its source by construction.
"""

from __future__ import annotations

import random

from fanobott import forest, matrix, ops

# A chain-heavy tower hangs this share of its vertices directly below the
# next label, which gives deep forests; the other vertices are uniform.
# Fixed shares, rather than coin flips per vertex, keep the cost of towers
# of one size and kind close together, so short runs measure steadily.
CHAIN_SHARE = 0.85


def random_tower(rng: random.Random, d: int, deep: bool) -> matrix.FanoBottMatrix:
    """An admissible d x d matrix from a random parent map and random signs.

    Without ``deep`` every row picks one of its 1 + 2(d-p) templates
    uniformly, which is a uniform draw from the labelled stream.  With
    ``deep`` a random CHAIN_SHARE of the vertices below d hang below the next
    label.
    """
    chained = set(rng.sample(range(1, d), round(CHAIN_SHARE * (d - 1)))) if deep else ()
    phi = []
    sigma = []
    for i in range(1, d + 1):
        if i in chained:
            target = i + 1
            sign = rng.choice("+-")
        else:
            choice = rng.randrange(1 + 2 * (d - i))
            if choice == 0:
                target, sign = d + 1, None
            else:
                target = i + 1 + (choice - 1) // 2
                sign = "+-"[(choice - 1) % 2]
        phi.append(target)
        sigma.append(sign)
    return matrix.from_phi_sigma(matrix.phi_sigma(phi, sigma))


def admissible_relabeling(rng: random.Random, a: matrix.FanoBottMatrix) -> tuple[int, ...]:
    """A uniformly chosen next label for each ready vertex, children first.

    The result pi (vertex i becomes pi[i-1]) gives every vertex a smaller
    label than its parent, so conjugation by pi stays admissible.
    """
    t = forest.from_matrix(a)
    d = t.size
    pending = [0] * (d + 1)
    for p in t.parents:
        if p:
            pending[p] += 1
    ready = [v for v in range(1, d + 1) if pending[v] == 0]
    pi = [0] * d
    for label in range(1, d + 1):
        v = ready.pop(rng.randrange(len(ready)))
        pi[v - 1] = label
        p = t.parents[v - 1]
        if p:
            pending[p] -= 1
            if pending[p] == 0:
                ready.append(p)
    return tuple(pi)


def equivalent_partner(rng: random.Random, a: matrix.FanoBottMatrix) -> matrix.FanoBottMatrix:
    """a after an admissible relabeling, then column flips at a random half
    of the vertices and a flip of each root edge with probability 1/2."""
    b = matrix.validate(ops.conjugate(a, admissible_relabeling(rng, a)))
    for k in rng.sample(range(1, b.dim + 1), b.dim // 2):
        b = ops.flip_column(b, k)
    t = forest.from_matrix(b)
    root_edges = [(v, p) for v, p in enumerate(t.parents, start=1)
                  if p and t.parents[p - 1] == 0]
    for k, l in root_edges:
        if rng.random() < 0.5:
            b = ops.flip_root_edge(b, k, l)
    return b
