"""Ray matrices and the combinatorial diffeomorphism certificate.

The fan of a d-stage tower has 2d rays, one antipodal pair per stage, and
its underlying complex is the boundary of the d-dimensional cross
polytope.  With the plus rays chosen as the unit basis the ray matrix has
the identity on top and -E + A below, each pair summing to the parent ray
named by the leading entry of the row (or to zero at the roots).

Two towers whose ray matrices agree row by row up to sign, with the
antipodal pairing preserved, are diffeomorphic.  The certificate replays
the relabel/column-flip prefix of a witness as unimodular column
transformations (a column flip exchanges the two rays of its pair, so the
pair's rows swap), then flips the subtrees hanging below the root edges
whose signs still disagree via diagonal sign matrices, and finally checks
the row-by-row sign match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from fanobott.forest import from_matrix, subtree_vertices
from fanobott.matrix import FanoBottError, FanoBottMatrix, to_phi_sigma
from fanobott.ops import (
    ColumnFlipStep,
    ConjugateStep,
    OpSequence,
    apply_step,
    replay,
)


class RelationCheckError(FanoBottError):
    """A pair of antipodal rays fails its defining relation."""

    def __init__(self, i: int):
        self.i = i
        super().__init__(f"ray pair {i} violates its primitive relation")


class ShapeMismatchError(FanoBottError, ValueError):
    """The two ray matrices have different shapes."""


class CertificateError(FanoBottError):
    """The diffeomorphism certificate could not be completed."""

    def __init__(self, reason: str, row: int | None = None):
        self.reason = reason
        self.row = row
        super().__init__(reason if row is None else f"{reason} (row {row})")


@dataclass(frozen=True)
class RayMatrix:
    """2d x d integer matrix: plus rays v_1..v_d, then minus rays."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows) // 2

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def rays(a: FanoBottMatrix) -> RayMatrix:
    """Ray matrix [E; -E + A], checked against the pair relations.

    For every i the sum of the two rays of pair i must equal the plus or
    minus ray of the parent stage (zero at roots), matching the sign of
    the leading entry of row i.

    Raises:
        RelationCheckError: never on a validated matrix; guards against
            internal inconsistency.
    """
    d = a.dim
    top = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    bottom = [
        tuple(a.rows[i][j] - (1 if j == i else 0) for j in range(d))
        for i in range(d)
    ]
    ps = to_phi_sigma(a)
    for i in range(d):
        total = tuple(top[i][j] + bottom[i][j] for j in range(d))
        target = ps.phi[i]
        if target == d + 1:
            expected = (0,) * d
        elif ps.sigma[i] == "+":
            expected = top[target - 1]
        else:
            expected = bottom[target - 1]
        if total != expected:
            raise RelationCheckError(i + 1)
    return RayMatrix(tuple(top + bottom))


def primitive_relation_degrees(a: FanoBottMatrix) -> tuple[int, ...]:
    """Degree of each antipodal pair: 2 at roots, 1 elsewhere; all positive."""
    d = a.dim
    ps = to_phi_sigma(a)
    return tuple(2 if ps.phi[i] == d + 1 else 1 for i in range(d))


@dataclass(frozen=True)
class MatchReport:
    """Row-by-row sign comparison of two ray matrices."""

    matches: bool
    signs: tuple[str, ...] | None
    first_mismatch: int | None

    def to_json(self) -> dict:
        if not self.matches:
            return {"matches": False, "first_mismatch": self.first_mismatch}
        d = len(self.signs) // 2
        return {
            "matches": True,
            "plus_rays": list(self.signs[:d]),
            "minus_rays": list(self.signs[d:]),
        }


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
        elif r1 == tuple(-v for v in r2):
            signs.append("-")
        else:
            return MatchReport(False, None, index + 1)
    return MatchReport(True, tuple(signs), None)


@dataclass(frozen=True)
class Certificate:
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


def _permute_ray_rows(rows: list[list[int]], perm: tuple[int, ...],
                      d: int) -> list[list[int]]:
    out = [[0] * d for _ in range(2 * d)]
    for i0 in range(d):
        for j0 in range(d):
            out[perm[i0] - 1][perm[j0] - 1] = rows[i0][j0]
            out[d + perm[i0] - 1][perm[j0] - 1] = rows[d + i0][j0]
    return out


def _transform_rays(a: FanoBottMatrix, source: RayMatrix,
                    steps) -> tuple[FanoBottMatrix, RayMatrix]:
    """Replay relabelings and column flips on the matrix and its rays.

    source is the ray matrix of a.  Relabeling permutes the columns and,
    blockwise, the rows.  A column flip at k right-multiplies by the
    unimodular matrix with rows e_i off row k and -e_k + (row k) there.
    That product is a column update, applied in place: a ray whose entry
    x in column k is nonzero has that entry negated and gains x times
    entry (k, j) in each column j where row k is nonzero, and every other
    ray stays.  One flip thus costs O(d * nnz(row k)) rather than the
    O(d^3) of the dense product.  The flip exchanges the two rays of pair
    k, so the rows k and d+k swap to restore the pair order.  The literal
    product is checked against the ray matrix of the replayed result, and
    a disagreement raises CertificateError.
    """
    d = a.dim
    current = a
    ray_rows = [list(r) for r in source.rows]
    for step in steps:
        if isinstance(step, ConjugateStep):
            ray_rows = _permute_ray_rows(ray_rows, step.perm, d)
        elif isinstance(step, ColumnFlipStep):
            k0 = step.k - 1
            support = [(j0, v) for j0, v in enumerate(current.rows[k0]) if v]
            for row in ray_rows:
                x = row[k0]
                if x:
                    row[k0] = -x
                    for j0, v in support:
                        row[j0] += x * v
            ray_rows[k0], ray_rows[d + k0] = ray_rows[d + k0], ray_rows[k0]
        else:
            raise TypeError(f"not a ray transformation: {step!r}")
        current = apply_step(current, step)
    expected = rays(current)
    if tuple(tuple(r) for r in ray_rows) != expected.rows:
        raise CertificateError("unimodular replay diverged from the ray matrix")
    return current, expected


def certify_diffeo(a: FanoBottMatrix, a2: FanoBottMatrix,
                   witness: OpSequence) -> Certificate:
    """Verify a witness end to end and return the transcript.

    The witness is replayed to confirm it reaches the target.  Its
    relabel/column-flip prefix is applied to the ray matrix of the source;
    the remaining disagreement with the target must sit on root-adjacent
    edges, and for each such edge the diagonal sign matrix supported on
    the child's subtree is applied.  The final matrices must agree row by
    row up to sign.

    Raises:
        CertificateError: with the first failing row or the failing stage.
    """
    try:
        reached = replay(a, witness)
    except FanoBottError as exc:
        raise CertificateError(f"witness replay failed: {exc}") from exc
    if reached != a2:
        raise CertificateError("witness does not reach the target matrix")

    prefix = [
        step for step in witness.steps
        if isinstance(step, (ConjugateStep, ColumnFlipStep))
    ]
    m_source = rays(a)
    transformed, m_transformed = _transform_rays(a, m_source, prefix)

    t_pre = from_matrix(transformed)
    t_target = from_matrix(a2)
    if t_pre.parents != t_target.parents:
        raise CertificateError("forest shapes disagree after the prefix")
    roots = set(t_pre.roots())
    flipped_children = []
    for v in range(1, t_pre.size + 1):
        if t_pre.signs[v - 1] != t_target.signs[v - 1]:
            if t_pre.parents[v - 1] not in roots:
                raise CertificateError(
                    f"sign of the non-root-adjacent edge at vertex {v} disagrees"
                )
            flipped_children.append(v)

    d = a.dim
    diagonals = []
    final_rows = [list(r) for r in m_transformed.rows]
    for child in flipped_children:
        support = subtree_vertices(t_pre, child)
        diag = tuple(-1 if v in support else 1 for v in range(1, d + 1))
        diagonals.append(diag)
        for row in final_rows:
            for j0 in range(d):
                row[j0] *= diag[j0]

    m_target = rays(a2)
    report = rows_match_up_to_sign(final_rows, m_target)
    if not report.matches:
        raise CertificateError("transformed rays do not match the target",
                               row=report.first_mismatch)
    return Certificate(
        witness=witness,
        m_source=m_source,
        m_transformed=m_transformed,
        m_target=m_target,
        flip_diagonals=tuple(diagonals),
        row_signs=report.signs,
    )
