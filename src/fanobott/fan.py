"""Ray matrices and the combinatorial diffeomorphism certificate.

The fan of a d-stage tower has 2d rays, one antipodal pair per stage, and
its underlying complex is the boundary of the d-dimensional cross
polytope.  With the plus rays chosen as the unit basis the ray matrix has
the identity on top and -E + A below, each pair summing to the parent ray
named by the leading entry of the row (or to zero at the roots).

Two towers whose ray matrices agree row by row up to sign, with the
antipodal pairing preserved, are diffeomorphic.  The certificate replays
a witness on parent/sign data once, applies its relabelings and column
flips to the rays as unimodular column transformations (a column flip at
k reads its row from ray d+k and swaps the rows of pair k) while carrying
its root-edge flips along as a set of relabeled root children, then
flips, via diagonal sign matrices, the subtrees below those root edges
(one pass over the parents finds them all), and finally checks the
row-by-row sign match.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import add

from fanobott.forest import _FLIP
from fanobott.matrix import FanoBottError, FanoBottMatrix, PhiSigma, Record, _matrix_of
from fanobott.ops import (
    ColumnFlipStep,
    ConjugateStep,
    OpSequence,
    RootEdgeFlipStep,
    StepFailedError,
    _replay_steps,
)


class ShapeMismatchError(FanoBottError, ValueError):
    """The two ray matrices have different shapes."""


class CertificateError(FanoBottError):
    """The diffeomorphism certificate could not be completed.

    stage names the failed check of :func:`certify_diffeo`: "replay",
    "target", "unimodular" or "row_match".  step is the failing step's
    index when the replay failed (-1 and len(steps) for the source and
    target digests), and row the first mismatched ray.
    """

    def __init__(self, reason: str, row: int | None = None, *,
                 stage: str | None = None, step: int | None = None):
        self.reason = reason
        self.row = row
        self.stage = stage
        self.step = step
        super().__init__(reason if row is None else f"{reason} (row {row})")

    def to_json(self) -> dict:
        return {"stage": self.stage, "step": self.step, "row": self.row}


class RayMatrix(Record):
    """2d x d integer matrix: plus rays v_1..v_d, then minus rays."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows) // 2

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def rays(a: FanoBottMatrix) -> RayMatrix:
    """Ray matrix [E; -E + A]: unit rows, then row i of A with entry i less 1.

    The rays of pair i sum to row i of A, which is the plus or minus ray of
    the parent stage by the sign of the leading entry, or zero at a root.
    """
    d = a.dim
    top = [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]
    bottom = []
    for i, row in enumerate(a.rows):
        row = list(row)
        row[i] -= 1
        bottom.append(tuple(row))
    return RayMatrix(tuple(top + bottom))


class MatchReport(Record):
    """Row-by-row sign comparison of two ray matrices."""

    matches: bool
    signs: tuple[str, ...] | None
    first_mismatch: int | None


def rows_match_up_to_sign(m: RayMatrix | Sequence[Sequence[int]],
                          m2: RayMatrix | Sequence[Sequence[int]]) -> MatchReport:
    """Whether every row of m is plus or minus the same row of m2.

    The row order pairs ray i with ray d+i on both sides, so the antipodal
    pairing, and with it the cross-polytope complex, is preserved by the
    identification.  Signs are reported per ray.

    Raises:
        ShapeMismatchError: if the shapes differ.
    """
    rows1 = m.rows if isinstance(m, RayMatrix) else tuple(tuple(r) for r in m)
    rows2 = m2.rows if isinstance(m2, RayMatrix) else tuple(tuple(r) for r in m2)
    if len(rows1) != len(rows2) or any(
        len(r1) != len(r2) for r1, r2 in zip(rows1, rows2)
    ):
        raise ShapeMismatchError("ray matrices differ in shape")
    signs = []
    for index, (r1, r2) in enumerate(zip(rows1, rows2)):
        if r1 == r2:
            signs.append("+")
        elif not any(map(add, r1, r2)):
            signs.append("-")
        else:
            return MatchReport(False, None, index + 1)
    return MatchReport(True, tuple(signs), None)


class Certificate(Record):
    """Transcript of a verified diffeomorphism certificate."""

    witness: OpSequence
    m_source: RayMatrix
    m_transformed: RayMatrix
    m_target: RayMatrix
    flip_diagonals: tuple[tuple[int, ...], ...]
    row_signs: tuple[str, ...]

    def to_json(self) -> dict:
        d = len(self.row_signs) // 2
        return {
            "witness": self.witness.to_json(),
            "m_source": self.m_source.to_json(),
            "m_transformed": self.m_transformed.to_json(),
            "m_target": self.m_target.to_json(),
            "flip_diagonals": [list(diag) for diag in self.flip_diagonals],
            "row_signs": {
                "plus_rays": list(self.row_signs[:d]),
                "minus_rays": list(self.row_signs[d:]),
            },
        }


def _move_rays(ray_rows: list[list[int]],
               step: ConjugateStep | ColumnFlipStep) -> list[list[int]]:
    """Apply a relabeling or a column flip to the rays of the current matrix.

    Relabeling permutes the columns and, blockwise, the rows, through the
    inverse index of :func:`~fanobott.ops.conjugate`.  A column flip at k
    right-multiplies by the matrix G that is the identity off row k and
    -e_k + (row k of the matrix) on it.  That row is ray d+k, so G is
    unimodular (det -1) by construction.  The product is a column update,
    applied in place once the support of ray d+k is read: a ray whose entry
    x in column k is nonzero has that entry negated and gains x times entry
    (k, j) in each other column j of the support, and every other ray
    stays.  One flip thus costs O(d * nnz(row k)) rather than the O(d^3) of
    the dense product.  The flip exchanges the two rays of pair k, so the
    rows k and d+k swap to restore the pair order.
    """
    d = len(ray_rows) // 2
    if isinstance(step, ConjugateStep):
        inverse = sorted(range(d), key=step.perm.__getitem__)
        return [list(map(ray_rows[i0].__getitem__, inverse))
                for i0 in inverse + [d + i0 for i0 in inverse]]
    k0 = step.k - 1
    support = [(j0, entry) for j0, entry in enumerate(ray_rows[d + k0])
               if entry and j0 != k0]
    for row in ray_rows:
        x = row[k0]
        if x:
            row[k0] = -x
            for j0, entry in support:
                row[j0] += x * entry
    ray_rows[k0], ray_rows[d + k0] = ray_rows[d + k0], ray_rows[k0]
    return ray_rows


def certify_diffeo(a: FanoBottMatrix, a2: FanoBottMatrix,
                   witness: OpSequence) -> Certificate:
    """Verify a witness end to end and return the transcript.

    The witness is replayed once on parent/sign data and must reach the
    target.  Its relabelings and column flips are applied to the ray
    matrix of the source; its root-edge flips are carried, relabeled, as
    the root children whose edge was flipped an odd number of times.  The
    reached data with those signs turned back is the prefix, whose ray
    matrix the transformed rays must equal.  One descending pass over the
    parents gives each vertex its top, the child of a root above it (or
    itself), so a flipped child's subtree is the vertices whose top it is,
    and the diagonal sign matrix supported there is applied.  The final
    matrices must agree row by row up to sign.

    Raises:
        CertificateError: with the failing stage, and the step or the
            first failing row where there is one.
    """
    m_source = rays(a)
    ray_rows = [list(r) for r in m_source.rows]
    try:
        reached, target = _replay_steps(a, witness)
    except StepFailedError as exc:
        raise CertificateError(f"witness replay failed: {exc}",
                               stage="replay", step=exc.index) from exc
    if target != a2:
        raise CertificateError("witness does not reach the target matrix", stage="target")
    flipped: set[int] = set()
    for step in witness.steps:
        if isinstance(step, RootEdgeFlipStep):
            flipped ^= {step.k}
            continue
        if isinstance(step, ConjugateStep):
            flipped = {step.perm[v - 1] for v in flipped}
        ray_rows = _move_rays(ray_rows, step)
    m_target = rays(a2)
    # the signs at flipped turned back, each a root-edge flip, so the prefix
    # is admissible as _matrix_of needs (a root in tampered data keeps None)
    prefix = PhiSigma(reached.phi, tuple([_FLIP.get(s) if v in flipped else s
                                          for v, s in enumerate(reached.sigma, 1)]))
    m_transformed = rays(_matrix_of(prefix)) if flipped else m_target
    if tuple(map(tuple, ray_rows)) != m_transformed.rows:
        raise CertificateError("unimodular replay diverged from the ray matrix",
                               stage="unimodular")

    phi = reached.phi
    d = a.dim
    # top[v-1] is v at a root or a root's child, and its parent's top below
    top = list(range(1, d + 1))
    for v0 in range(d - 1, -1, -1):  # phi(v) > v, so each parent comes first
        p = phi[v0]
        if p <= d and phi[p - 1] <= d:
            top[v0] = top[p - 1]
    diagonals = tuple(tuple(-1 if t == child else 1 for t in top)
                      for child in sorted(flipped))
    negated = [j0 for j0, t in enumerate(top) if t in flipped]
    for row in ray_rows:
        for j0 in negated:
            row[j0] = -row[j0]

    report = rows_match_up_to_sign(ray_rows, m_target)
    if not report.matches:
        raise CertificateError("transformed rays do not match the target",
                               row=report.first_mismatch, stage="row_match")
    return Certificate(
        witness=witness,
        m_source=m_source,
        m_transformed=m_transformed,
        m_target=m_target,
        flip_diagonals=diagonals,
        row_signs=report.signs,
    )
