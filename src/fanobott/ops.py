"""The three moves on admissible matrices, reachability, and witnesses.

Three moves generate the equivalence that matches diffeomorphism of the
underlying towers:

* conjugation by a permutation matrix, which relabels the forest and may
  leave the admissible set;
* a column flip at k, which negates column k and adds the old column k
  times entry (k, j) into every other column j; on the forest this flips
  the signs of all edges from vertex k to its children;
* a root-edge flip at (k, l), defined when row l is zero and row k is
  +/- e_l; it negates entry (k, l) and multiplies entry (i, l) by entry
  (i, k) wherever the latter is nonzero, flipping the sign of the single
  edge between root l and its child k.

Each move is applied to parent/sign data, in O(d), and matrices are built
only where a caller needs one.  A replayable witness is a sequence of
steps together with digests of its endpoints.  For small d the move graph
is searched exhaustively, on flip cosets, as ground truth for the codes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from fanobott.forest import _FLIP, _check_perm, _match_forests, _phi_sigma_of, from_matrix
from fanobott.matrix import (
    FanoBottError,
    FanoBottMatrix,
    PhiSigma,
    Record,
    _matrix_of,
    _require_int,
    _row_weights,
    count_matrices,
    enumerate_matrices,
    to_phi_sigma,
    validate,
)


class OpPreconditionError(FanoBottError, ValueError):
    """A root-edge flip was requested where its row conditions fail."""

    def __init__(self, k: int, l: int, reason: str):
        self.k = k
        self.l = l
        self.reason = reason
        super().__init__(f"root-edge flip ({k},{l}): {reason}")


class StepFailedError(FanoBottError, ValueError):
    """A witness step could not be applied.

    index is the 0-based position of the failing step; -1 marks a source
    digest mismatch and len(steps) a target digest mismatch.
    """

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"step {index}: {reason}")


class DimensionMismatchError(FanoBottError, ValueError):
    """The two matrices have different sizes."""


class ConjugateStep(Record):
    """Relabel by perm: entry (i, j) moves to (perm[i-1], perm[j-1])."""

    perm: tuple[int, ...]


class ColumnFlipStep(Record):
    """Column flip at column k."""

    k: int


class RootEdgeFlipStep(Record):
    """Root-edge flip at child row k under root row l."""

    k: int
    l: int


OpStep = ConjugateStep | ColumnFlipStep | RootEdgeFlipStep


class OpSequence(Record):
    """Replayable witness with digests of its source and target."""

    steps: tuple[OpStep, ...]
    source_sha: str
    target_sha: str

    def to_json(self) -> dict:
        return {
            "steps": [step_to_json(s) for s in self.steps],
            "source_sha": self.source_sha,
            "target_sha": self.target_sha,
        }


def step_to_json(step: OpStep) -> dict:
    if isinstance(step, ConjugateStep):
        return {"op": "p", "perm": list(step.perm)}
    if isinstance(step, ColumnFlipStep):
        return {"op": "2", "k": step.k}
    if isinstance(step, RootEdgeFlipStep):
        return {"op": "3", "k": step.k, "l": step.l}
    raise TypeError(f"not a step: {step!r}")


def _step_field(data: dict, name: str) -> object:
    if name not in data:
        raise ValueError(f"step {data['op']!r} is missing {name!r}")
    return data[name]


def step_from_json(data: object) -> OpStep:
    if not isinstance(data, dict):
        raise ValueError(f"a step must be a JSON object, not {type(data).__name__}")
    tag = data.get("op")
    if tag == "p":
        perm = _step_field(data, "perm")
        if not isinstance(perm, list):
            raise ValueError('"perm" must be a list')
        return ConjugateStep(tuple(_require_int("perm entry", x) for x in perm))
    if tag == "2":
        return ColumnFlipStep(_require_int("k", _step_field(data, "k")))
    if tag == "3":
        return RootEdgeFlipStep(_require_int("k", _step_field(data, "k")),
                                _require_int("l", _step_field(data, "l")))
    raise ValueError(f"unknown step tag {tag!r}")


def witness_from_json(data: object) -> OpSequence:
    if not isinstance(data, dict) or "steps" not in data:
        raise ValueError('witness object must carry "steps"')
    if not isinstance(data["steps"], list):
        raise ValueError('"steps" must be a list')
    shas = []
    for key in ("source_sha", "target_sha"):
        sha = data.get(key, "")
        if not isinstance(sha, str):
            raise ValueError(f"{key} = {sha!r} is not a string")
        shas.append(sha)
    return OpSequence(tuple(step_from_json(s) for s in data["steps"]), *shas)


def conjugate(a: FanoBottMatrix, perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Conjugate by the permutation matrix of perm; raw rows, not validated.

    Entry (i, j) of the input lands at (perm[i-1], perm[j-1]).  The result
    can leave the admissible set, so callers validate when membership is
    required.
    """
    perm = _check_perm(perm, a.dim)
    inverse = sorted(range(a.dim), key=perm.__getitem__)
    return tuple(tuple(map(a.rows[i0].__getitem__, inverse)) for i0 in inverse)


def _move(ps: PhiSigma, step: OpStep) -> PhiSigma:
    """Apply one step to parent/sign data in O(d), raising the dense errors.

    A relabeling moves each vertex with its parent and sign; it is
    admissible exactly when every label stays below its parent's, else the
    dense conjugate is validated to name the failing row.  A column flip at
    k flips the signs of k's child edges, a root-edge flip (k, l) the sign
    of the edge from k to the root l (so phi(l) = d+1 and phi(k) = l).
    """
    phi, sigma = ps.phi, ps.sigma
    d = len(phi)
    if isinstance(step, ConjugateStep):
        perm = _check_perm(step.perm, d)
        labels = (*perm, d + 1)  # phi = d+1 marks a root, which keeps it
        if any(labels[v0] >= labels[p - 1] for v0, p in enumerate(phi)):
            validate(conjugate(_matrix_of(ps), perm))  # raises, naming the row
        inverse = sorted(range(d), key=perm.__getitem__)
        return PhiSigma(tuple([labels[phi[v0] - 1] for v0 in inverse]),
                        tuple(map(sigma.__getitem__, inverse)))
    if isinstance(step, ColumnFlipStep):
        k = _require_int("k", step.k)
        if not 1 <= k <= d:
            raise ValueError(f"column {k} out of range 1..{d}")
        return PhiSigma(phi, tuple([_FLIP[s] if p == k else s
                                    for p, s in zip(phi, sigma)]))
    if isinstance(step, RootEdgeFlipStep):
        k, l = _require_int("k", step.k), _require_int("l", step.l)
        if not (1 <= k <= d and 1 <= l <= d):
            raise OpPreconditionError(k, l, "indices out of range")
        if phi[l - 1] <= d:
            raise OpPreconditionError(k, l, f"row {l} is not zero")
        if phi[k - 1] != l:
            raise OpPreconditionError(k, l, f"row {k} is not +/- e_{l}")
        return PhiSigma(phi, (*sigma[:k - 1], _FLIP[sigma[k - 1]], *sigma[k:]))
    raise TypeError(f"not a step: {step!r}")


def flip_column(a: FanoBottMatrix, k: int) -> FanoBottMatrix:
    """Negate column k and absorb the old column into the others.

    New column k is the negated old one; new column j gains the old column
    k times entry (k, j).  The result stays admissible: on the forest every
    edge from vertex k to one of its children changes sign.  At a leaf k
    nothing changes, and a itself comes back.
    """
    ps = to_phi_sigma(a)
    moved = _move(ps, ColumnFlipStep(k))
    return a if moved == ps else _matrix_of(moved)


def flip_root_edge(a: FanoBottMatrix, k: int, l: int) -> FanoBottMatrix:
    """Flip the sign of the edge between root l and its child k.

    Requires row l to be zero and row k to be +/- e_l.  Negates entry
    (k, l) and multiplies entry (i, l) by entry (i, k) wherever the latter
    is nonzero; all other entries stay.  The result stays admissible.

    Raises:
        OpPreconditionError: naming which of the two row conditions fails.
    """
    return _matrix_of(_move(to_phi_sigma(a), RootEdgeFlipStep(k, l)))


def _replay_steps(a: FanoBottMatrix, steps: OpSequence | Iterable[OpStep]
                  ) -> tuple[PhiSigma, FanoBottMatrix]:
    """The reached parent/sign data and the reached matrix.

    These are the checks of :func:`replay`: the source digest before the
    first step and the target digest, of the one matrix built, after the
    last.  Each step is applied once; the certificate reads its prefix off
    the reached data rather than replaying the steps again.
    """
    sequence = steps if isinstance(steps, OpSequence) else None
    step_list = list(sequence.steps if sequence else steps)
    if sequence and sequence.source_sha and sequence.source_sha != a.digest():
        raise StepFailedError(-1, "source digest does not match the matrix")
    reached = to_phi_sigma(a)
    for index, step in enumerate(step_list):
        try:
            reached = _move(reached, step)
        except (FanoBottError, ValueError) as exc:
            raise StepFailedError(index, str(exc)) from exc
    result = _matrix_of(reached)
    if sequence and sequence.target_sha and sequence.target_sha != result.digest():
        raise StepFailedError(len(step_list), "target digest does not match the result")
    return reached, result


def replay(a: FanoBottMatrix,
           steps: OpSequence | Iterable[OpStep]) -> FanoBottMatrix:
    """Apply steps in order; every intermediate matrix must be admissible.

    When an OpSequence is given its endpoint digests are enforced as well.

    Raises:
        StepFailedError: with the failing step index and the reason.
    """
    return _replay_steps(a, steps)[1]


def _valid_root_edge_pairs(ps: PhiSigma) -> list[tuple[int, int]]:
    """(k, l) pairs where the root-edge flip applies, by root l, then k."""
    d, phi = ps.dim, ps.phi
    pairs = [(k, l) for k, l in enumerate(phi, 1) if l <= d and phi[l - 1] > d]
    return sorted(pairs, key=lambda pair: pair[1])


def _admissible_perms(phi: Sequence[int]) -> list[tuple[int, ...]]:
    """Every perm with perm[v-1] < perm[phi(v)-1] for each non-root v, sorted.

    These relabelings, the forest's d!/prod |subtree(v)| linear extensions,
    stay admissible under a swap of labels x and x+1 whose vertices are not
    child and parent, and such swaps link any two of them (bubble sort;
    Varol and Rotem 1981), so a search from the identity finds them all.
    """
    d = len(phi)
    found = [tuple(range(1, d + 1))]
    seen = set(found)
    for perm in found:  # the loop also visits the perms appended here
        at = [0] * (d + 1)  # at[x] is the vertex labeled x
        for v, x in enumerate(perm, 1):
            at[x] = v
        for x in range(1, d):
            u, w = at[x], at[x + 1]
            if phi[u - 1] != w:  # w, labeled above u, is never u's child
                labels = list(perm)
                labels[u - 1], labels[w - 1] = x + 1, x
                swapped = tuple(labels)
                if swapped not in seen:
                    seen.add(swapped)
                    found.append(swapped)
    return sorted(found)


def neighbors(a: FanoBottMatrix, *,
              use_root_edge_flips: bool = True) -> list[FanoBottMatrix]:
    """All admissible matrices one move away from a.

    The list holds the column flips at 1..d, then the root-edge flips
    (when enabled), then the admissible conjugates in lexicographic order
    of perm, the only conjugates that stay in the admissible set.
    """
    ps = to_phi_sigma(a)
    steps: list[OpStep] = [ColumnFlipStep(k) for k in range(1, ps.dim + 1)]
    if use_root_edge_flips:
        steps += [RootEdgeFlipStep(k, l) for k, l in _valid_root_edge_pairs(ps)]
    steps += [ConjugateStep(perm) for perm in _admissible_perms(ps.phi)]
    return [_matrix_of(_move(ps, step)) for step in steps]


def _swap_deltas(phi: Sequence[int], weights: Sequence[int]) -> list[tuple[int, int, int]]:
    """The relabelings by transpositions (x x+1) as stream-position deltas.

    One (x, delta, shift) per x = 1..d-1 with phi(x) != x+1: the swap moves
    a position with parent map phi by delta + (s(x+1) - s(x)) * shift, with
    s(p) = 1 where row p carries "-".  Rows x and x+1 trade edges under
    parents above x+1, so x's children move one choice on, x+1's one back.
    """
    d = len(phi)
    below = [0] * (d + 2)
    for q, w in zip(phi, weights):
        below[q] += w
    swaps = []
    for x, q, r, w, w1 in zip(range(1, d), phi, phi[1:], weights, weights[1:]):
        if q != x + 1:
            # the choice indices of rows x and x+1 with every sign "+"
            old = (q - x if q <= d else 0) * w + (r - x - 1 if r <= d else 0) * w1
            new = (r - x if r <= d else 0) * w + (q - x - 1 if q <= d else 0) * w1
            swaps.append((x, new - old + below[x] - below[x + 1],
                          (d - x) * w - (d - x - 1) * w1))
    return swaps


def _flip_cosets(d: int, use_root_edge_flips: bool
                 ) -> Iterator[tuple[list[int], list[int]]]:
    """Each flip coset's positions, smallest first, and its swap targets.

    With phi fixed, a position is the all-"+" one plus t(p) = (d - p) *
    weight(p) per "-" row p.  Flips toggle disjoint groups: each internal
    vertex's children, but each root child alone with root-edge flips.  As
    t(p) > (weight(p) - 1) / 2, all t below p together, the smallest member
    has "+" on each group's largest row.
    """
    from itertools import product

    weights = _row_weights(d)
    toggle = [0] + [(d - p) * w for p, w in enumerate(weights, 1)]
    for phi in product(*[range(p + 1, d + 2) for p in range(1, d + 1)]):
        kids: list[list[int]] = [[] for _ in range(d + 2)]
        base = 0  # the position with every sign "+"
        for p, q, w in zip(range(1, d + 1), phi, weights):
            if q <= d:
                kids[q].append(p)
                base += (q - p) * w
        # Each group's sign patterns with "+" on its largest row, as
        # (offset from base, toggle sum of the group, bits of the "-" rows).
        groups = []
        for k, group in enumerate(kids[1:d + 1], 1):
            if use_root_edge_flips and phi[k - 1] > d:
                groups += [[(0, toggle[v], 0)] for v in group]
            elif group:
                patterns = [(0, sum(map(toggle.__getitem__, group)), 0)]
                for v in group[:-1]:
                    patterns += [(offset + toggle[v], t - 2 * toggle[v], bits | 1 << v)
                                 for offset, t, bits in patterns]
                groups.append(patterns)
        swaps = _swap_deltas(phi, weights)
        for patterns in product(*groups):
            c, minus, members = base, 0, [0]
            for offset, t, bits in patterns:
                c += offset
                minus |= bits
                members += [m + t for m in members]
            yield [c + m for m in members], [c + delta + shift * (
                (minus >> x + 1 & 1) - (minus >> x & 1)) for x, delta, shift in swaps]


def _closure_roots(d: int, use_root_edge_flips: bool = True) -> list[int]:
    """The smallest position of each stream position's move-graph class.

    Each member of a coset of :func:`_flip_cosets` points at the coset's
    smallest position, a node of a union-find joined along the swaps, which
    reach every admissible relabeling (the lemma of :func:`_admissible_perms`).
    A swap maps a coset onto a coset and undoes itself, so it is joined from
    the coset filed last.
    """
    parent = [-1] * count_matrices(d)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members, targets in _flip_cosets(d, use_root_edge_flips):
        for m in members:
            parent[m] = members[0]
        for target in targets:
            if parent[target] >= 0:
                a, b = find(members[0]), find(target)
                parent[max(a, b)] = min(a, b)
    # parent[x] <= x throughout, so one pass in order resolves every root.
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return parent


def bfs_closure_classes(d: int, *,
                        use_root_edge_flips: bool = True
                        ) -> list[list[FanoBottMatrix]]:
    """Connected components of the move graph on the whole enumeration.

    This is ground truth for move reachability; intended for d <= 7.
    With use_root_edge_flips=False only relabelings and column flips are
    used, which characterizes isomorphism of the underlying varieties.
    Classes come in first-occurrence order of the enumeration stream and
    list their members in stream order.  The search (:func:`_closure_roots`)
    reaches d = 8, but the grouping builds every matrix.
    """
    groups: dict[int, list[FanoBottMatrix]] = {}
    for root, m in zip(_closure_roots(d, use_root_edge_flips), enumerate_matrices(d)):
        groups.setdefault(root, []).append(m)
    return list(groups.values())


def find_witness(a: FanoBottMatrix, a2: FanoBottMatrix) -> OpSequence | None:
    """Construct a replayable move sequence from a to a2, or None.

    Both matrices are routed toward a common labeled form: one relabeling
    step (when needed), then column flips, then root-edge flips.  Returns
    None exactly when the diffeo codes differ.

    Raises:
        DimensionMismatchError: if the sizes differ.
    """
    if a.dim != a2.dim:
        raise DimensionMismatchError(f"sizes {a.dim} and {a2.dim} differ")
    t, t2 = from_matrix(a), from_matrix(a2)
    matched = _match_forests(t, t2)
    if matched is None:
        return None
    mapping, flips, edge_flips = matched
    d = a.dim
    perm = tuple(mapping[i] for i in range(1, d + 1))
    steps: list[OpStep] = []
    if perm != tuple(range(1, d + 1)):
        steps.append(ConjugateStep(perm))
    steps.extend(ColumnFlipStep(k) for k in sorted(flips))
    steps.extend(RootEdgeFlipStep(k, l) for l, k in sorted(edge_flips))
    reached = _phi_sigma_of(t)
    for step in steps:
        reached = _move(reached, step)
    if reached != _phi_sigma_of(t2):
        raise FanoBottError("internal: witness replay failed to reach the target")
    return OpSequence(tuple(steps), a.digest(), a2.digest())
