"""Ray matrices, relation degrees, sign matching, certificates."""

from __future__ import annotations

import math
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fb, seven_vertex_pair
from fanobott import (
    DIFFEO,
    CertificateError,
    ColumnFlipStep,
    ConjugateStep,
    OpSequence,
    RootEdgeFlipStep,
    ShapeMismatchError,
    canonical_code,
    certify_diffeo,
    conjugate,
    find_witness,
    from_matrix,
    from_phi_sigma,
    phi_sigma,
    primitive_relation_degrees,
    rays,
    replay,
    rows_match_up_to_sign,
    to_phi_sigma,
    validate,
)
from fanobott.fan import _transform_rays
from fanobott.ops import apply_step


def laplace_det(rows):
    """Cofactor expansion along the first row; fine for tiny matrices."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1:] for row in rows[1:]]
        total += (-1) ** c * rows[0][c] * laplace_det(minor)
    return total


def dense_transform_rays(a, steps):
    """Reference replay: every column flip is the literal dense product.

    A column flip at k right-multiplies the 2d x d ray matrix by the d x d
    matrix g that is the identity off row k and (row k of the current
    matrix) - e_k on it, then swaps the rays k and d+k.  Relabelings move
    entry (i, j) to (perm[i-1], perm[j-1]) in both halves.
    """
    d = a.dim
    current = a
    ray_rows = [list(r) for r in rays(a).rows]
    for step in steps:
        if isinstance(step, ConjugateStep):
            out = [[0] * d for _ in range(2 * d)]
            for half in (0, d):
                for i0 in range(d):
                    for j0 in range(d):
                        out[half + step.perm[i0] - 1][step.perm[j0] - 1] = \
                            ray_rows[half + i0][j0]
            ray_rows = out
        else:
            k0 = step.k - 1
            g = [
                [
                    (current.rows[k0][j0] - (1 if j0 == k0 else 0))
                    if i0 == k0
                    else (1 if i0 == j0 else 0)
                    for j0 in range(d)
                ]
                for i0 in range(d)
            ]
            columns = list(zip(*g))
            ray_rows = [[sum(map(mul, row, col)) for col in columns]
                        for row in ray_rows]
            ray_rows[k0], ray_rows[d + k0] = ray_rows[d + k0], ray_rows[k0]
        current = apply_step(current, step)
    return current, tuple(tuple(r) for r in ray_rows)


def random_tower(draw_int, d):
    """Tower whose vertex i hangs below a drawn target in i+1..d+1."""
    phi, sigma = [], []
    for i in range(1, d + 1):
        target = draw_int(i + 1, d + 1)
        phi.append(target)
        sigma.append(("+", "-")[draw_int(0, 1)] if target <= d else None)
    return from_phi_sigma(phi_sigma(phi, sigma))


def admissible_relabeling(draw_int, a):
    """A relabeling that labels every child below its parent."""
    d = a.dim
    phi = to_phi_sigma(a).phi
    pending = [0] * (d + 2)
    for target in phi:
        pending[target] += 1
    eligible = [v for v in range(1, d + 1) if pending[v] == 0]
    perm = [0] * d
    for label in range(1, d + 1):
        v = eligible.pop(draw_int(0, len(eligible) - 1))
        perm[v - 1] = label
        target = phi[v - 1]
        pending[target] -= 1
        if target <= d and pending[target] == 0:
            eligible.append(target)
    return tuple(perm)


class TestRays:
    def test_two_lines(self):
        m = rays(validate([[0, 0], [0, 0]]))
        assert m.rows == ((1, 0), (0, 1), (-1, 0), (0, -1))

    def test_seven_vertex_bottom_half(self):
        a, _ = seven_vertex_pair()
        bottom = rays(a).rows[7:]
        assert bottom == (
            (-1, 0, 1, 0, 0, 0, 0),
            (0, -1, -1, 0, 0, 0, 1),
            (0, 0, -1, 0, 0, 0, 1),
            (0, 0, 0, -1, 0, 1, 0),
            (0, 0, 0, 0, -1, 1, 0),
            (0, 0, 0, 0, 0, -1, 1),
            (0, 0, 0, 0, 0, 0, -1),
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_primitive_and_pairs_sum_to_parents(self, d):
        for m in fb(d):
            ray = rays(m)  # raises RelationCheckError on violation
            for row in ray.rows:
                assert math.gcd(*(abs(v) for v in row)) == 1
            for i in range(d):
                pair_sum = tuple(
                    ray.rows[i][j] + ray.rows[d + i][j] for j in range(d)
                )
                assert pair_sum == m.rows[i]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_half_determinants_unimodular(self, d):
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
        )
        for m in fb(d):
            ray = rays(m)
            assert ray.rows[:d] == identity
            top = [list(r) for r in ray.rows[:d]]
            bottom = [list(r) for r in ray.rows[d:]]
            assert laplace_det(top) in (1, -1)
            assert laplace_det(bottom) in (1, -1)


class TestDegrees:
    def test_product_of_lines(self):
        assert primitive_relation_degrees(
            validate([[0] * 3 for _ in range(3)])) == (2, 2, 2)

    def test_tree5(self, tree5):
        assert primitive_relation_degrees(tree5) == (1, 1, 1, 1, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_always_positive(self, d):
        for m in fb(d):
            degrees = primitive_relation_degrees(m)
            assert all(v in (1, 2) for v in degrees)


class TestRowMatching:
    def test_identical(self, a6):
        report = rows_match_up_to_sign(rays(a6), rays(a6))
        assert report.matches
        assert set(report.signs) == {"+"}

    def test_unrelated(self):
        a, b = seven_vertex_pair()
        report = rows_match_up_to_sign(rays(a), rays(b))
        assert not report.matches
        assert report.first_mismatch is not None
        assert report.signs is None

    def test_shape_mismatch(self, a6):
        with pytest.raises(ShapeMismatchError):
            rows_match_up_to_sign(rays(a6), rays(validate([[0]])))

    def test_diagonal_fixture(self):
        # the worked 7-vertex pair: after the prefix and the subtree flip
        # below root 7, rows 4, 5, 6 of both halves match with sign -
        a, b = seven_vertex_pair()
        witness = OpSequence(
            (ConjugateStep((2, 1, 3, 4, 5, 6, 7)), ColumnFlipStep(6),
             RootEdgeFlipStep(6, 7)),
            a.digest(), b.digest(),
        )
        certificate = certify_diffeo(a, b, witness)
        assert certificate.flip_diagonals == ((1, 1, 1, -1, -1, -1, 1),)
        expected = ("+", "+", "+", "-", "-", "-", "+")
        assert certificate.row_signs[:7] == expected
        assert certificate.row_signs[7:] == expected


class TestCertify:
    def test_self_certificate(self, a6):
        empty = OpSequence((), a6.digest(), a6.digest())
        certificate = certify_diffeo(a6, a6, empty)
        assert certificate.flip_diagonals == ()
        assert set(certificate.row_signs) == {"+"}

    def test_witness_route(self):
        a, b = seven_vertex_pair()
        certificate = certify_diffeo(a, b, find_witness(a, b))
        assert set(certificate.row_signs) <= {"+", "-"}

    def test_rejects_wrong_target(self, a6):
        empty = OpSequence((), "", "")
        other = validate([[0] * 6 for _ in range(6)])
        with pytest.raises(CertificateError):
            certify_diffeo(a6, other, empty)

    def test_rejects_broken_digest(self):
        a, b = seven_vertex_pair()
        witness = find_witness(a, b)
        tampered = OpSequence(witness.steps, witness.source_sha, "0" * 64)
        with pytest.raises(CertificateError) as err:
            certify_diffeo(a, b, tampered)
        assert "replay failed" in str(err.value)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_code_equivalent_pair_certifies(self, d):
        by_code = {}
        for m in fb(d):
            code = canonical_code(from_matrix(m), DIFFEO).code
            by_code.setdefault(code, []).append(m)
        for members in by_code.values():
            for a in members:
                for b in members:
                    certificate = certify_diffeo(a, b, find_witness(a, b))
                    assert certificate.row_signs

    def test_components_handled_independently(self):
        from fanobott import make_forest, to_matrix

        parents = (3, 3, 0, 6, 6, 0)
        a = to_matrix(make_forest(parents, ("+", "+", "", "+", "+", "")))
        b = to_matrix(make_forest(parents, ("-", "+", "", "-", "-", "")))
        ta, tb = from_matrix(a), from_matrix(b)
        assert not canonical_code(ta, "variety") == canonical_code(tb, "variety")
        assert canonical_code(ta, DIFFEO) == canonical_code(tb, DIFFEO)
        certificate = certify_diffeo(a, b, find_witness(a, b))
        # one diagonal per flipped root edge, supported inside its component
        supports = [frozenset(i + 1 for i, v in enumerate(diag) if v == -1)
                    for diag in certificate.flip_diagonals]
        assert frozenset({1}) in supports
        assert {min(s) for s in supports} <= {1, 2, 4, 5}

    def test_json_shape(self):
        a, b = seven_vertex_pair()
        payload = certify_diffeo(a, b, find_witness(a, b)).to_json()
        assert set(payload) == {
            "witness", "m_source", "m_transformed", "m_target",
            "flip_diagonals", "row_signs",
        }
        assert set(payload["row_signs"]) == {"plus_rays", "minus_rays"}
        assert len(payload["m_source"]) == 14


class TestColumnUpdate:
    """The in-place column update against the dense product it replaces."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_dense_product(self, data):
        def draw_int(lo, hi):
            return data.draw(st.integers(min_value=lo, max_value=hi))

        d = draw_int(1, 12)
        a = random_tower(draw_int, d)
        steps, current = [], a
        for _ in range(draw_int(0, 6)):
            if draw_int(0, 2) == 0:
                step = ConjugateStep(admissible_relabeling(draw_int, current))
            else:
                step = ColumnFlipStep(draw_int(1, d))
            steps.append(step)
            current = apply_step(current, step)
        reached, expected = dense_transform_rays(a, steps)
        transformed, m_transformed = _transform_rays(a, rays(a), steps)
        assert transformed == reached == current
        assert m_transformed.rows == expected

    def test_certifies_d128_pair_built_from_moves(self):
        rng = random.Random(128)
        d = 128
        a = random_tower(rng.randint, d)
        perm = admissible_relabeling(rng.randint, a)
        current = validate(conjugate(a, perm))
        steps = [ConjugateStep(perm)]
        parents = set(to_phi_sigma(current).phi) - {d + 1}
        for k in rng.sample(sorted(parents), 3):
            steps.append(ColumnFlipStep(k))
            current = apply_step(current, steps[-1])
        prefix = list(steps)
        phi = to_phi_sigma(current).phi
        root_edges = [(k, phi[k - 1]) for k in range(1, d + 1)
                      if phi[k - 1] <= d and phi[phi[k - 1] - 1] == d + 1]
        for k, l in rng.sample(root_edges, 2):
            steps.append(RootEdgeFlipStep(k, l))
            current = apply_step(current, steps[-1])
        b = current
        witness = OpSequence(tuple(steps), a.digest(), b.digest())

        assert replay(a, witness) == b
        certificate = certify_diffeo(a, b, witness)
        _, dense_rows = dense_transform_rays(a, prefix)
        assert certificate.m_transformed.rows == dense_rows
        final = [list(row) for row in dense_rows]
        for diag in certificate.flip_diagonals:
            for row in final:
                for j0 in range(d):
                    row[j0] *= diag[j0]
        report = rows_match_up_to_sign(final, rays(b))
        assert report.matches
        assert certificate.row_signs == report.signs
