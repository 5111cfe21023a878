"""The three moves, their closure, replay, reachability, witnesses."""

from __future__ import annotations

import pytest

from conftest import (
    REFERENCE_6_COLFLIP_3,
    REFERENCE_6_COLFLIP_5,
    REFERENCE_6_EDGEFLIP_3_6,
    REFERENCE_6_EDGEFLIP_5_6,
    fb,
    seven_vertex_pair,
)
from fanobott import (
    DIFFEO,
    VARIETY,
    ColumnFlipStep,
    ConjugateStep,
    DimensionMismatchError,
    InvalidMatrixError,
    OpPreconditionError,
    OpSequence,
    RootEdgeFlipStep,
    SignedRootedForest,
    StepFailedError,
    bfs_closure_classes,
    canonical_code,
    children_map,
    conjugate,
    find_witness,
    flip_column,
    flip_root_edge,
    from_matrix,
    replay,
    validate,
    witness_from_json,
)

FLIP = {"+": "-", "-": "+"}


def valid_edge_flip_pairs(m):
    """(k, l) with row l zero and row k = +/- e_l."""
    t = from_matrix(m)
    kids = children_map(t)
    return [(k, l) for l in t.roots() for k in kids[l]]


class TestConjugate:
    def test_identity(self, a6):
        assert conjugate(a6, (1, 2, 3, 4, 5, 6)) == a6.rows

    def test_swap_breaks_triangularity(self):
        m = validate([[0, 1], [0, 0]])
        raw = conjugate(m, (2, 1))
        assert raw == ((0, 0), (1, 0))
        with pytest.raises(InvalidMatrixError):
            validate(raw)

    def test_rejects_non_permutation(self, a6):
        with pytest.raises(ValueError):
            conjugate(a6, (1, 1, 3, 4, 5, 6))


class TestColumnFlip:
    def test_reference_fixtures(self, a6):
        assert flip_column(a6, 3).rows == tuple(
            tuple(r) for r in REFERENCE_6_COLFLIP_3)
        assert flip_column(a6, 5).rows == tuple(
            tuple(r) for r in REFERENCE_6_COLFLIP_5)

    def test_zero_column_is_fixed(self):
        for m in fb(4):
            t = from_matrix(m)
            kids = children_map(t)
            for k in range(1, 5):
                if not kids[k]:
                    assert flip_column(m, k) == m

    def test_flips_child_edge_signs(self):
        for m in fb(4):
            t = from_matrix(m)
            kids = children_map(t)
            for k in range(1, 5):
                signs = list(t.signs)
                for c in kids[k]:
                    signs[c - 1] = FLIP[signs[c - 1]]
                expected = SignedRootedForest(t.parents, tuple(signs))
                assert from_matrix(flip_column(m, k)) == expected

    def test_involution(self):
        for m in fb(4):
            for k in range(1, 5):
                assert flip_column(flip_column(m, k), k) == m


class TestRootEdgeFlip:
    def test_reference_fixtures(self, a6):
        assert flip_root_edge(a6, 3, 6).rows == tuple(
            tuple(r) for r in REFERENCE_6_EDGEFLIP_3_6)
        assert flip_root_edge(a6, 5, 6).rows == tuple(
            tuple(r) for r in REFERENCE_6_EDGEFLIP_5_6)

    def test_two_by_two_involution(self):
        m = validate([[0, 1], [0, 0]])
        flipped = flip_root_edge(m, 1, 2)
        assert flipped.rows == ((0, -1), (0, 0))
        assert flip_root_edge(flipped, 1, 2) == m

    def test_minus_unit_row_allowed(self):
        m = validate([[0, -1], [0, 0]])
        assert flip_root_edge(m, 1, 2).rows == ((0, 1), (0, 0))

    def test_precondition_reports_nonzero_row(self, a6):
        with pytest.raises(OpPreconditionError) as err:
            flip_root_edge(a6, 3, 5)
        assert "row 5 is not zero" in str(err.value)

    def test_precondition_reports_non_unit_row(self, a6):
        with pytest.raises(OpPreconditionError) as err:
            flip_root_edge(a6, 2, 6)
        assert "row 2 is not +/- e_6" in str(err.value)

    def test_flips_single_edge_sign(self):
        for m in fb(4):
            t = from_matrix(m)
            for k, l in valid_edge_flip_pairs(m):
                signs = list(t.signs)
                signs[k - 1] = FLIP[signs[k - 1]]
                expected = SignedRootedForest(t.parents, tuple(signs))
                assert from_matrix(flip_root_edge(m, k, l)) == expected

    def test_involution(self):
        for m in fb(4):
            for k, l in valid_edge_flip_pairs(m):
                assert flip_root_edge(flip_root_edge(m, k, l), k, l) == m


class TestClosure:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_flips_stay_inside_enumeration(self, d):
        universe = set(fb(d))
        for m in fb(d):
            for k in range(1, d + 1):
                assert flip_column(m, k) in universe
            for k, l in valid_edge_flip_pairs(m):
                assert flip_root_edge(m, k, l) in universe

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_code_invariance_under_single_moves(self, d):
        from itertools import permutations

        for m in fb(d):
            base_v = canonical_code(from_matrix(m), VARIETY)
            base_d = canonical_code(from_matrix(m), DIFFEO)
            reachable = [flip_column(m, k) for k in range(1, d + 1)]
            for perm in permutations(range(1, d + 1)):
                try:
                    reachable.append(validate(conjugate(m, perm)))
                except InvalidMatrixError:
                    pass
            for n in reachable:
                assert canonical_code(from_matrix(n), VARIETY) == base_v
                assert canonical_code(from_matrix(n), DIFFEO) == base_d
            for k, l in valid_edge_flip_pairs(m):
                n = flip_root_edge(m, k, l)
                assert canonical_code(from_matrix(n), DIFFEO) == base_d


class TestReplay:
    def test_empty_sequence(self, a6):
        assert replay(a6, []) == a6

    def test_seven_vertex_prefix(self):
        a, _ = seven_vertex_pair()
        result = replay(a, [ConjugateStep((2, 1, 3, 4, 5, 6, 7)),
                            ColumnFlipStep(6)])
        expected = validate([
            [0, 0, -1, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, -1, 1],
            [0, 0, 0, 0, 0, -1, 1],
            [0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 0],
        ])
        assert result == expected

    def test_step_failure_carries_index(self, a6):
        with pytest.raises(StepFailedError) as err:
            replay(a6, [ColumnFlipStep(3), RootEdgeFlipStep(1, 2)])
        assert err.value.index == 1

    def test_invalid_conjugation_fails(self):
        m = validate([[0, 1], [0, 0]])
        with pytest.raises(StepFailedError) as err:
            replay(m, [ConjugateStep((2, 1))])
        assert err.value.index == 0

    def test_digest_checks(self, a6):
        other = validate([[0] * 6 for _ in range(6)])
        sequence = OpSequence((), a6.digest(), a6.digest())
        assert replay(a6, sequence) == a6
        with pytest.raises(StepFailedError) as err:
            replay(other, sequence)
        assert err.value.index == -1
        broken = OpSequence((), a6.digest(), other.digest())
        with pytest.raises(StepFailedError) as err:
            replay(a6, broken)
        assert err.value.index == 0

    @pytest.mark.parametrize("step", [1, None, "2", [{"op": "2", "k": 1}]])
    def test_witness_rejects_non_object_step(self, step):
        with pytest.raises(ValueError, match="must be a JSON object"):
            witness_from_json({"steps": [step]})


class TestBfsClosure:
    def test_single_point(self):
        assert len(bfs_closure_classes(1)) == 1

    def test_two_classes_at_d2(self):
        classes = bfs_closure_classes(2)
        assert len(classes) == 2
        as_rows = [{m.rows for m in cls} for cls in classes]
        assert {((0, 0), (0, 0))} in as_rows
        assert {((0, 1), (0, 0)), ((0, -1), (0, 0))} in as_rows

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_diffeo_codes(self, d):
        by_code = {}
        for m in fb(d):
            code = canonical_code(from_matrix(m), DIFFEO).code
            by_code.setdefault(code, set()).add(m)
        bfs = {frozenset(cls) for cls in bfs_closure_classes(d)}
        assert bfs == {frozenset(v) for v in by_code.values()}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_relabel_and_column_flips_match_variety_codes(self, d):
        by_code = {}
        for m in fb(d):
            code = canonical_code(from_matrix(m), VARIETY).code
            by_code.setdefault(code, set()).add(m)
        bfs = {frozenset(cls)
               for cls in bfs_closure_classes(d, use_root_edge_flips=False)}
        assert bfs == {frozenset(v) for v in by_code.values()}


class TestFindWitness:
    def test_self_witness_is_empty(self, a6):
        sequence = find_witness(a6, a6)
        assert sequence is not None
        assert sequence.steps == ()
        assert replay(a6, sequence) == a6

    def test_dimension_mismatch(self, a6):
        with pytest.raises(DimensionMismatchError):
            find_witness(a6, validate([[0]]))

    def test_seven_vertex_pair(self):
        a, b = seven_vertex_pair()
        sequence = find_witness(a, b)
        assert sequence is not None
        assert replay(a, sequence) == b
        kinds = [type(s) for s in sequence.steps]
        assert kinds == [ConjugateStep, ColumnFlipStep, RootEdgeFlipStep]

    def test_exhaustive_d3_agrees_with_reachability(self):
        classes = bfs_closure_classes(3)
        cls_of = {}
        for idx, cls in enumerate(classes):
            for m in cls:
                cls_of[m] = idx
        mats = fb(3)
        for a in mats:
            for b in mats:
                sequence = find_witness(a, b)
                if cls_of[a] == cls_of[b]:
                    assert sequence is not None
                    assert replay(a, sequence) == b
                else:
                    assert sequence is None

    def test_witness_json_round_trip(self):
        a, b = seven_vertex_pair()
        sequence = find_witness(a, b)
        assert witness_from_json(sequence.to_json()) == sequence
