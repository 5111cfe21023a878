"""Ray matrices, pair relations, sign matching, certificates."""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import defaultdict
from itertools import permutations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fb, seven_vertex_pair, subtree_vertices
from fanobott import (
    DIFFEO,
    Certificate,
    CertificateError,
    ColumnFlipStep,
    ConjugateStep,
    FanoBottError,
    MatchReport,
    OpSequence,
    PhiSigma,
    RootEdgeFlipStep,
    ShapeMismatchError,
    canonical_code,
    certify_diffeo,
    conjugate,
    find_witness,
    flip_column,
    flip_root_edge,
    from_matrix,
    from_phi_sigma,
    make_forest,
    phi_sigma,
    rays,
    replay,
    rows_match_up_to_sign,
    to_matrix,
    to_phi_sigma,
    validate,
)
from fanobott import fan, forest, ops
from fanobott.fan import RayMatrix
from test_ops import dense_apply_step, reference_replay


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


def reference_rays(a):
    """[E; -E + A] entry by entry."""
    d = a.dim
    top = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    bottom = [
        tuple(a.rows[i][j] - (1 if j == i else 0) for j in range(d))
        for i in range(d)
    ]
    return RayMatrix(tuple(top + bottom))


def reference_transform_rays(a, source, steps):
    """The relabel/column-flip prefix applied again, step by step.

    Relabeling permutes the columns and, blockwise, the rows; a column flip
    at k is the in-place column update followed by the swap of rays k and
    d+k.  The literal product must equal the ray matrix of the result.
    """
    d = a.dim
    current = a
    ray_rows = [list(r) for r in source.rows]
    for step in steps:
        if isinstance(step, ConjugateStep):
            out = [[0] * d for _ in range(2 * d)]
            for i0 in range(d):
                for j0 in range(d):
                    out[step.perm[i0] - 1][step.perm[j0] - 1] = ray_rows[i0][j0]
                    out[d + step.perm[i0] - 1][step.perm[j0] - 1] = \
                        ray_rows[d + i0][j0]
            ray_rows = out
        else:
            k0 = step.k - 1
            support = [(j0, v) for j0, v in enumerate(current.rows[k0]) if v]
            for row in ray_rows:
                x = row[k0]
                if x:
                    row[k0] = -x
                    for j0, v in support:
                        row[j0] += x * v
            ray_rows[k0], ray_rows[d + k0] = ray_rows[d + k0], ray_rows[k0]
        current = dense_apply_step(current, step)
    expected = reference_rays(current)
    if tuple(tuple(r) for r in ray_rows) != expected.rows:
        raise CertificateError("unimodular replay diverged from the ray matrix")
    return current, expected


def reference_certify(a, a2, witness):
    """The three-pass certificate the single witness walk replaced.

    replay checks the witness, the relabel/column-flip prefix is applied a
    second time to the matrix and its rays, and each flipped child's
    subtree is collected on its own.
    """
    try:
        reached = reference_replay(a, witness)
    except FanoBottError as exc:
        raise CertificateError(f"witness replay failed: {exc}") from exc
    if reached != a2:
        raise CertificateError("witness does not reach the target matrix")

    prefix = [
        step for step in witness.steps
        if isinstance(step, (ConjugateStep, ColumnFlipStep))
    ]
    m_source = reference_rays(a)
    transformed, m_transformed = reference_transform_rays(a, m_source, prefix)

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

    m_target = reference_rays(a2)
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


def outcome(certify, a, a2, witness):
    """The certificate JSON, or the CertificateError message."""
    try:
        return certify(a, a2, witness).to_json()
    except CertificateError as exc:
        return f"CertificateError: {exc}"


def dense_transform_rays(a, steps):
    """Reference replay: every column flip is the literal dense product.

    A column flip at k right-multiplies the 2d x d ray matrix by the d x d
    matrix g that is the identity off row k and (row k of the current
    matrix) - e_k on it, then swaps the rays k and d+k.  Relabelings move
    entry (i, j) to (perm[i-1], perm[j-1]) in both halves.
    """
    d = a.dim
    current = a
    ray_rows = [list(r) for r in reference_rays(a).rows]
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
        current = dense_apply_step(current, step)
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


def reference_rows_match(rows1, rows2):
    """Row-by-row sign match that negates the whole row of rows2."""
    signs = []
    for index, (r1, r2) in enumerate(zip(rows1, rows2)):
        if r1 == r2:
            signs.append("+")
        elif r1 == tuple(-v for v in r2):
            signs.append("-")
        else:
            return MatchReport(False, None, index + 1)
    return MatchReport(True, tuple(signs), None)


@st.composite
def row_pairs(draw):
    """Two equal-shape row lists whose rows mostly agree up to sign."""
    height = draw(st.integers(0, 8))
    width = draw(st.integers(0, 5))
    entry = st.integers(-2, 2)
    rows1, rows2 = [], []
    for _ in range(height):
        r1 = tuple(draw(st.lists(entry, min_size=width, max_size=width)))
        relation = draw(st.sampled_from(["+", "-", "-", "other"]))
        if relation == "+":
            r2 = r1
        elif relation == "-":
            r2 = tuple(-v for v in r1)
        else:
            r2 = tuple(draw(st.lists(entry, min_size=width, max_size=width)))
        rows1.append(r1)
        rows2.append(r2)
    return tuple(rows1), tuple(rows2)


def root_edges(a):
    """(k, l) for every child k of a root l."""
    d = a.dim
    phi = to_phi_sigma(a).phi
    return [(k, phi[k - 1]) for k in range(1, d + 1)
            if phi[k - 1] <= d and phi[phi[k - 1] - 1] == d + 1]


class TestRays:
    def test_two_lines(self):
        m = rays(validate([[0, 0], [0, 0]]))
        assert m.rows == ((1, 0), (0, 1), (-1, 0), (0, -1))
        assert m.dim == 2

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

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_rows_primitive_and_pairs_sum_to_parents(self, d):
        for m in fb(d):
            ray = rays(m)
            assert ray == reference_rays(m)
            for row in ray.rows:
                assert math.gcd(*(abs(v) for v in row)) == 1
            ps = to_phi_sigma(m)
            for i in range(d):
                pair_sum = tuple(
                    ray.rows[i][j] + ray.rows[d + i][j] for j in range(d)
                )
                assert pair_sum == m.rows[i]
                # the parent's plus or minus ray by the sign, zero at a root
                parent = ps.phi[i]
                if parent == d + 1:
                    assert pair_sum == (0,) * d
                elif ps.sigma[i] == "+":
                    assert pair_sum == ray.rows[parent - 1]
                else:
                    assert pair_sum == ray.rows[d + parent - 1]

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

    @settings(max_examples=300, deadline=None)
    @given(row_pairs())
    def test_matches_negation_reference(self, pair):
        rows1, rows2 = pair
        report = rows_match_up_to_sign(RayMatrix(rows1), RayMatrix(rows2))
        assert report == reference_rows_match(rows1, rows2)

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
            current = dense_apply_step(current, step)
        reached, expected = dense_transform_rays(a, steps)
        assert reached == current
        witness = OpSequence(tuple(steps), a.digest(), current.digest())
        assert certify_diffeo(a, current, witness).m_transformed.rows == expected

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
            current = dense_apply_step(current, steps[-1])
        prefix = list(steps)
        for k, l in rng.sample(root_edges(current), 2):
            steps.append(RootEdgeFlipStep(k, l))
            current = dense_apply_step(current, steps[-1])
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


class TestRaysAlone:
    """_move_rays reads each move off the rays; no parent/sign data."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_column_flip_reads_ray_d_plus_k(self, d):
        for a in fb(d):
            for k in range(1, d + 1):
                rows = fan._move_rays([list(r) for r in rays(a).rows],
                                      ColumnFlipStep(k))
                assert tuple(map(tuple, rows)) == rays(flip_column(a, k)).rows

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_every_admissible_relabeling(self, d):
        for a in fb(d):
            phi = to_phi_sigma(a).phi
            for perm in permutations(range(1, d + 1)):
                if any(p <= d and perm[v] > perm[p - 1]
                       for v, p in enumerate(phi)):
                    continue
                rows = fan._move_rays([list(r) for r in rays(a).rows],
                                      ConjugateStep(perm))
                expected = rays(validate(conjugate(a, perm))).rows
                assert tuple(map(tuple, rows)) == expected

    def test_deep_path_flips_the_subtree_below_the_root_edge(self):
        n = 1100
        a = to_matrix(make_forest(list(range(2, n + 1)) + [0],
                                  ["+"] * (n - 1) + [""]))
        b = flip_root_edge(flip_column(flip_column(a, 10), 700), n - 1, n)
        certificate = certify_diffeo(a, b, find_witness(a, b))
        # the edge n-1 -> root n carries the whole path below the root
        assert certificate.flip_diagonals == ((-1,) * (n - 1) + (1,),)
        payload = json.dumps(certificate.to_json(), sort_keys=True,
                             separators=(",", ":")).encode()
        assert hashlib.sha256(payload).hexdigest() == (
            "504210500bd5a64de8e893d3ca248ebd68d4925f00810bca6e95eeb413b9fd31")


class TestSinglePass:
    """certify_diffeo walks the witness once; the three-pass path is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_three_pass_reference(self, data):
        def draw_int(lo, hi):
            return data.draw(st.integers(min_value=lo, max_value=hi))

        d = draw_int(1, 12)
        a = random_tower(draw_int, d)
        steps, current = [], a
        for _ in range(draw_int(0, 6)):
            kind = draw_int(0, 2)
            if kind == 0:
                step = ConjugateStep(admissible_relabeling(draw_int, current))
            elif kind == 1:
                step = ColumnFlipStep(draw_int(1, d))
            else:
                edges = root_edges(current)
                if not edges:
                    continue
                step = RootEdgeFlipStep(*edges[draw_int(0, len(edges) - 1)])
            steps.append(step)
            current = dense_apply_step(current, step)
        target, source_sha, target_sha = current, a.digest(), current.digest()
        variant = draw_int(0, 3)
        if variant == 1:  # wrong target
            target = random_tower(draw_int, d)
        elif variant == 2:  # tampered digest
            if draw_int(0, 1):
                source_sha = "0" * 64
            else:
                target_sha = "0" * 64
        elif variant == 3:  # a step that cannot be applied
            steps.insert(draw_int(0, len(steps)), ColumnFlipStep(d + 1))
        witness = OpSequence(tuple(steps), source_sha, target_sha)
        expected = outcome(reference_certify, a, target, witness)
        assert outcome(certify_diffeo, a, target, witness) == expected
        if variant == 0:
            assert not isinstance(expected, str)

    def test_root_edge_flip_before_the_prefix(self):
        a, b = seven_vertex_pair()
        witness = OpSequence(
            (RootEdgeFlipStep(6, 7), ConjugateStep((2, 1, 3, 4, 5, 6, 7)),
             ColumnFlipStep(6)),
            a.digest(), b.digest(),
        )
        certificate = certify_diffeo(a, b, witness)
        assert certificate.to_json() == reference_certify(a, b, witness).to_json()
        assert certificate.flip_diagonals == ((1, 1, 1, -1, -1, -1, 1),)
        # the edge 6 -> 7 flipped again, as itself or relabeled as 3 -> 7
        swap = ConjugateStep((4, 5, 6, 1, 2, 3, 7))
        for steps in [(RootEdgeFlipStep(6, 7), RootEdgeFlipStep(6, 7)),
                      (RootEdgeFlipStep(6, 7), swap, RootEdgeFlipStep(3, 7))]:
            b2 = replay(a, steps)
            witness = OpSequence(steps, a.digest(), b2.digest())
            certificate = certify_diffeo(a, b2, witness)
            assert certificate.to_json() == reference_certify(a, b2, witness).to_json()
            assert certificate.flip_diagonals == ()
            assert certificate.m_transformed == certificate.m_target

    def test_reads_the_source_once_and_validates_no_step(self, monkeypatch):
        a, b = seven_vertex_pair()
        witness = find_witness(a, b)
        calls = defaultdict(list)
        for module, name in [(ops, "validate"), (ops, "to_phi_sigma"),
                             (forest, "to_phi_sigma")]:
            def counting(grid, name=name, original=getattr(module, name)):
                calls[name].append(grid)
                return original(grid)

            monkeypatch.setattr(module, name, counting)
        certify_diffeo(a, b, witness)
        assert len(witness.steps) == 3
        assert calls == {"to_phi_sigma": [a]}


class TestFailureStages:
    """Each check of certify_diffeo names its stage."""

    @staticmethod
    def failure(a, b, witness):
        with pytest.raises(CertificateError) as err:
            certify_diffeo(a, b, witness)
        return err.value

    @staticmethod
    def witness_reaching(monkeypatch, change):
        """The seven-vertex witness, with its reached data changed."""
        a, b = seven_vertex_pair()
        original = fan._replay_steps

        def tampered(a, steps):
            reached, target = original(a, steps)
            phi, sigma = list(reached.phi), list(reached.sigma)
            change(phi, sigma)
            return PhiSigma(tuple(phi), tuple(sigma)), target

        monkeypatch.setattr(fan, "_replay_steps", tampered)
        return a, b, find_witness(a, b)

    def test_replay(self):
        a, b = seven_vertex_pair()
        steps = find_witness(a, b).steps
        broken = OpSequence((steps[0], ColumnFlipStep(8), *steps[1:]),
                            a.digest(), b.digest())
        err = self.failure(a, b, broken)
        assert (err.stage, err.step, err.row) == ("replay", 1, None)
        assert str(err) == ("witness replay failed: step 1: "
                            "column 8 out of range 1..7")
        dropped = OpSequence(steps[:-1], a.digest(), b.digest())
        assert self.failure(a, b, dropped).to_json() == {
            "stage": "replay", "step": 2, "row": None}
        wrong_source = OpSequence(steps, "0" * 64, b.digest())
        assert self.failure(a, b, wrong_source).step == -1

    def test_target(self):
        a, b = seven_vertex_pair()
        err = self.failure(a, b, OpSequence((), "", ""))
        assert (err.stage, err.step, err.row) == ("target", None, None)
        assert str(err) == "witness does not reach the target matrix"

    def test_unimodular(self, monkeypatch):
        a, b = seven_vertex_pair()
        monkeypatch.setattr(fan, "_move_rays", lambda ray_rows, step: ray_rows)
        err = self.failure(a, b, find_witness(a, b))
        assert (err.stage, err.step, err.row) == ("unimodular", None, None)

    def test_shape(self, monkeypatch):
        def make_root(phi, sigma):
            phi[0], sigma[0] = 8, None

        err = self.failure(*self.witness_reaching(monkeypatch, make_root))
        assert (err.stage, err.step, err.row) == ("unimodular", None, None)

    def test_non_root_edge(self, monkeypatch):
        def flip_below_vertex_3(phi, sigma):  # 1 -> 3 -> root 7
            sigma[0] = {"+": "-", "-": "+"}[sigma[0]]

        err = self.failure(*self.witness_reaching(monkeypatch, flip_below_vertex_3))
        assert (err.stage, err.step, err.row) == ("unimodular", None, None)
        assert str(err) == "unimodular replay diverged from the ray matrix"

    def test_tampered_root_at_the_flipped_edge(self, monkeypatch):
        def make_root_6(phi, sigma):  # the witness flips the edge 6 -> root 7
            phi[5], sigma[5] = 8, None

        err = self.failure(*self.witness_reaching(monkeypatch, make_root_6))
        assert (err.stage, err.step, err.row) == ("unimodular", None, None)

    @pytest.mark.parametrize("bad", [3.0, True, "3", None])
    def test_non_integer_column(self, bad):
        a, b = seven_vertex_pair()
        steps = find_witness(a, b).steps
        witness = OpSequence((*steps, ColumnFlipStep(bad)), "", "")
        err = self.failure(a, b, witness)
        assert (err.stage, err.step, err.row) == ("replay", 3, None)
        assert str(err) == (f"witness replay failed: step 3: "
                            f"k = {bad!r} is not an integer")

    def test_row_match(self, monkeypatch):
        a, b = seven_vertex_pair()
        witness = find_witness(a, b)
        assert RootEdgeFlipStep(6, 7) in witness.steps
        original = fan.rays

        def bent(m):  # only the target's ray 10 changes
            rows = [list(r) for r in original(m).rows]
            if m == b:
                rows[9][0] += 5
            return RayMatrix(tuple(map(tuple, rows)))

        monkeypatch.setattr(fan, "rays", bent)
        err = self.failure(a, b, witness)
        assert (err.stage, err.step, err.row) == ("row_match", None, 10)
        assert str(err) == "transformed rays do not match the target (row 10)"
