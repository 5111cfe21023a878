"""Validation, row templates, parent/sign data, enumeration, direct sums."""

from __future__ import annotations

import hashlib
import json
import math
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FOREST_5, REFERENCE_6, TREE_5, fano_violation, fb, phi_sigmas
from fanobott import (
    FanoBottMatrix,
    InvalidMatrixError,
    InvalidPhiError,
    PhiSigma,
    count_matrices,
    enumerate_matrices,
    from_phi_sigma,
    matrix_from_json,
    phi_sigma,
    to_phi_sigma,
    validate,
)
from fanobott import matrix as matrix_module
from fanobott.matrix import (
    _matrices_at,
    _matrix_of,
    _row_weights,
    _violation,
)


def all_upper_triangular_grids(d, bound=1):
    """Every strictly upper triangular grid with entries in [-bound, bound]."""
    slots = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for values in product(range(-bound, bound + 1), repeat=len(slots)):
        grid = [[0] * d for _ in range(d)]
        for (i, j), v in zip(slots, values):
            grid[i][j] = v
        yield grid


def direct_sum(a, b):
    """Block-diagonal sum; the forest is the disjoint union with b shifted."""
    da, db = a.dim, b.dim
    rows = [row + (0,) * db for row in a.rows]
    rows += [(0,) * da + row for row in b.rows]
    return FanoBottMatrix(tuple(rows))


def row_is_admissible(rows, p):
    """Independent template matcher: zero, e_q, or (row q) - e_q."""
    d = len(rows)
    row = rows[p]
    if all(v == 0 for v in row):
        return True
    for q in range(p + 1, d):
        unit = [1 if j == q else 0 for j in range(d)]
        copy = [rows[q][j] - (1 if j == q else 0) for j in range(d)]
        if list(row) == unit or list(row) == copy:
            return True
    return False


def reference_classify_row(rows, p0):
    """Per-entry template matcher: (kind, leading 1-based column) of row p0.

    kind is "zero" (column None), "unit" or "copy"; a row matching neither
    template raises validate's error.
    """
    row = rows[p0]
    d = len(rows)
    q0 = next((j for j, v in enumerate(row) if v != 0), None)
    if q0 is None:
        return "zero", None
    lead = row[q0]
    if lead == 1:
        bad = next((j for j in range(q0 + 1, d) if row[j] != 0), None)
        if bad is not None:
            raise InvalidMatrixError(
                p0 + 1,
                f"leading +1 in column {q0 + 1} but entry in column {bad + 1} "
                "is nonzero: not a unit row",
            )
        return "unit", q0 + 1
    bad = next((j for j in range(q0 + 1, d) if row[j] != rows[q0][j]), None)
    if bad is not None:
        raise InvalidMatrixError(
            p0 + 1,
            f"leading -1 in column {q0 + 1} but entry in column {bad + 1} "
            f"differs from row {q0 + 1}: not a copy row",
        )
    return "copy", q0 + 1


def reference_validate(grid):
    """Per-entry validation; the reference for validate's fast path."""
    rows = tuple(tuple(row) for row in grid)
    for p0, row in enumerate(rows):
        for j0, value in enumerate(row):
            if type(value) is not int:
                raise ValueError(
                    f"entry ({p0 + 1},{j0 + 1}) = {value!r} is not an integer")
    d = len(rows)
    for p0, row in enumerate(rows):
        if len(row) != d:
            raise InvalidMatrixError(
                p0 + 1, f"row has {len(row)} entries, expected {d}"
            )
    for p0, row in enumerate(rows):
        for j0, value in enumerate(row):
            if j0 <= p0 and value != 0:
                raise InvalidMatrixError(
                    p0 + 1,
                    f"nonzero entry ({p0 + 1},{j0 + 1}) on or below the diagonal",
                )
            if value not in (-1, 0, 1):
                raise InvalidMatrixError(
                    p0 + 1,
                    f"entry ({p0 + 1},{j0 + 1}) = {value} outside {{-1,0,1}}",
                )
        reference_classify_row(rows, p0)
    return rows


def outcome(check, grid):
    """The accepted rows, or the type and message of the rejection."""
    try:
        result = check(grid)
    except ValueError as exc:
        return "rejected", type(exc), str(exc)
    return "accepted", getattr(result, "rows", result)


def reference_to_phi_sigma(a):
    """phi and sigma from one reference_classify_row call per row."""
    phi, sigma = [], []
    for p0 in range(a.dim):
        kind, q = reference_classify_row(a.rows, p0)
        phi.append(a.dim + 1 if kind == "zero" else q)
        sigma.append({"zero": None, "unit": "+", "copy": "-"}[kind])
    return PhiSigma(tuple(phi), tuple(sigma))


@st.composite
def admissible_matrices(draw, max_dim=9, chains=False):
    """An admissible matrix from random parent targets and signs.

    With chains, the top labels form a path of drawn length, up to all d
    vertices (the deepest tower), and the others hang anywhere above
    themselves, the path included.
    """
    d = draw(st.integers(min_value=1, max_value=max_dim))
    chain = draw(st.integers(min_value=0, max_value=d)) if chains else 0
    phi, sigma = [], []
    for i in range(1, d + 1):
        if i > d - chain:
            target = i + 1
        else:
            target = draw(st.integers(min_value=i + 1, max_value=d + 1))
        phi.append(target)
        sigma.append(draw(st.sampled_from("+-")) if target <= d else None)
    return from_phi_sigma(phi_sigma(phi, sigma))


@st.composite
def corrupted_grids(draw, max_dim=9):
    """An admissible matrix with up to two entries overwritten."""
    grid = [list(row) for row in draw(admissible_matrices(max_dim=max_dim)).rows]
    d = len(grid)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=d - 1))
        j = draw(st.integers(min_value=0, max_value=d - 1))
        grid[i][j] = draw(st.integers(min_value=-2, max_value=2))
    return grid


@st.composite
def perturbed_upper_triangular_grids(draw, max_dim=12):
    """An admissible matrix with one or two entries above the diagonal set to -2..2."""
    grid = [list(row) for row in draw(admissible_matrices(max_dim=max_dim)).rows]
    d = len(grid)
    for _ in range(draw(st.integers(min_value=1, max_value=2)) if d > 1 else 0):
        i = draw(st.integers(min_value=0, max_value=d - 2))
        j = draw(st.integers(min_value=i + 1, max_value=d - 1))
        grid[i][j] = draw(st.integers(min_value=-2, max_value=2))
    return grid


@st.composite
def malformed_grids(draw, max_dim=9):
    """A corrupted grid with a non-integer entry or a shortened row."""
    grid = draw(corrupted_grids(max_dim=max_dim))
    i = draw(st.integers(min_value=0, max_value=len(grid) - 1))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=len(grid) - 1))
        grid[i][j] = draw(st.sampled_from([0.0, 1.0, -1.0, 0.5, True, False,
                                           "1", None]))
    else:
        del grid[i][draw(st.integers(min_value=0, max_value=len(grid[i]) - 1)):]
    return grid


def reference_compact_json(m):
    """The matrix JSON as json.dumps writes it, compact with sorted keys."""
    return json.dumps(m.to_json(), sort_keys=True, separators=(",", ":"))


def reference_digest(m):
    """sha256 of the matrix JSON as json.dumps writes it, keys sorted."""
    return hashlib.sha256(reference_compact_json(m).encode("ascii")).hexdigest()


def random_admissible(rng, d):
    """A random admissible d x d matrix with zero, unit and copy rows."""
    phi = [rng.randint(i + 1, d + 1) for i in range(1, d + 1)]
    sigma = [rng.choice("+-") if t <= d else None for t in phi]
    return from_phi_sigma(phi_sigma(phi, sigma))


class TestValidate:
    @settings(max_examples=400, deadline=None)
    @given(corrupted_grids())
    def test_agrees_with_per_entry_reference(self, grid):
        assert outcome(validate, grid) == outcome(reference_validate, grid)

    @settings(max_examples=60, deadline=None)
    @given(corrupted_grids(max_dim=64))
    def test_agrees_with_per_entry_reference_up_to_64(self, grid):
        assert outcome(validate, grid) == outcome(reference_validate, grid)

    @settings(max_examples=200, deadline=None)
    @given(malformed_grids())
    def test_malformed_grids_agree_with_reference(self, grid):
        assert outcome(validate, grid) == outcome(reference_validate, grid)

    def test_scan_calls_no_row_classifier_on_admissible_input(self, monkeypatch):
        calls = []

        def counting(rows, p0):
            calls.append(p0)
            return _violation(rows, p0)

        monkeypatch.setattr(matrix_module, "_violation", counting)
        m = random_admissible(random.Random(64), 64)
        kinds = {row.count(0) for row in m.rows}
        assert {63, 64} < kinds  # unit or zero rows, and copy rows
        assert to_phi_sigma(validate(m.rows)) == reference_to_phi_sigma(m)
        assert calls == []
        with pytest.raises(InvalidMatrixError):
            validate([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
        assert calls == [0]

    def test_accepts_reference(self, a6):
        assert a6.dim == 6
        assert a6.entry(2, 3) == -1

    @pytest.mark.parametrize("d", range(1, 7))
    def test_accepts_zero_matrix(self, d):
        m = validate([[0] * d for _ in range(d)])
        assert m.rows == tuple((0,) * d for _ in range(d))

    def test_rejects_bad_row_template(self):
        with pytest.raises(InvalidMatrixError) as err:
            validate([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
        assert err.value.row == 1
        assert err.value.to_json()["row"] == 1

    def test_rejects_lower_triangle(self):
        with pytest.raises(InvalidMatrixError) as err:
            validate([[0, 0], [1, 0]])
        assert err.value.row == 2
        assert "diagonal" in err.value.violation

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(InvalidMatrixError) as err:
            validate([[0, 2], [0, 0]])
        assert err.value.row == 1
        assert "outside" in err.value.violation

    @pytest.mark.parametrize("bad", [1.7, 0.5, 1.0, "1", True, None])
    def test_rejects_non_integer_entry(self, bad):
        with pytest.raises(ValueError) as err:
            validate([[0, 1, 0], [0, 0, bad], [0, 0, 0]])
        assert not isinstance(err.value, InvalidMatrixError)
        assert str(err.value) == f"entry (2,3) = {bad!r} is not an integer"

    def test_rejects_ragged_grid(self):
        with pytest.raises(InvalidMatrixError):
            validate([[0, 1], [0]])

    def test_reports_lowest_offending_row(self):
        # row 1 fails the template even though row 2 is also malformed
        with pytest.raises(InvalidMatrixError) as err:
            validate([[0, 1, 1], [0, 0, 2], [0, 0, 0]])
        assert err.value.row == 1

    @pytest.mark.parametrize("grid, violation", [
        # the scan accepts row 1 as a copy of row 2 and stops at row 2
        ([[0, -1, 5], [0, 0, 5], [0, 0, 0]], "entry (1,3) = 5 outside {-1,0,1}"),
        # row 1 copies row 2, which copies row 3; the scan stops at row 3
        ([[0, -1, -1, 5], [0, 0, -1, 5], [0, 0, 0, 5], [0, 0, 0, 0]],
         "entry (1,4) = 5 outside {-1,0,1}"),
    ])
    def test_copy_row_reports_inherited_range_fault(self, grid, violation):
        with pytest.raises(InvalidMatrixError) as err:
            validate(grid)
        assert (err.value.row, err.value.violation) == (1, violation)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_independent_template_oracle(self, d):
        for grid in all_upper_triangular_grids(d):
            expected = all(row_is_admissible(grid, p) for p in range(d))
            try:
                validate(grid)
                accepted = True
            except InvalidMatrixError:
                accepted = False
            assert accepted == expected, grid


class TestFanoOracle:
    """validate against the strict convexity of the anticanonical support
    function on the Bott fan, which decides the Fano condition."""

    # d=5 checks 945 of 59,049 grids, in seconds: run it with -m slow
    @pytest.mark.parametrize(("d", "bound", "fano"), [
        (2, 3, 3), (3, 3, 15), (4, 2, 105),
        pytest.param(5, 1, 945, marks=pytest.mark.slow),
    ])
    def test_validate_accepts_exactly_the_fano_grids(self, d, bound, fano):
        accepted = 0
        for grid in all_upper_triangular_grids(d, bound):
            verdict = outcome(validate, grid)[0] == "accepted"
            assert verdict == (fano_violation(grid) is None), grid
            accepted += verdict
        assert accepted == fano == count_matrices(d)

    def test_violation_names_a_failing_cone(self):
        # the Hirzebruch surface F_2: on the cone of e_1, e_2 the support
        # function is u = (1, 1), and the ray -e_1 + 2 e_2 reaches 1
        assert fano_violation([[0, 2], [0, 0]]) == ((0, 1), 2)

    @settings(deadline=None)
    @given(perturbed_upper_triangular_grids())
    def test_agrees_with_validate_near_admissible_grids(self, grid):
        verdict = outcome(validate, grid)[0] == "accepted"
        assert verdict == (fano_violation(grid) is None)


class TestRowStructure:
    """The three row templates, as the reference and _violation see them."""

    def test_reference_rows(self, a6):
        assert reference_classify_row(a6.rows, 0) == ("unit", 3)
        assert reference_classify_row(a6.rows, 1) == ("copy", 3)
        assert reference_classify_row(a6.rows, 5) == ("zero", None)
        assert [_violation(a6.rows, p0) for p0 in range(6)] == [None] * 6

    def test_last_row_always_zero(self):
        for m in fb(4):
            ps = to_phi_sigma(m)
            assert (ps.phi[3], ps.sigma[3]) == (5, None)
            assert m.rows[3] == (0,) * 4

    def test_out_of_range(self, a6):
        with pytest.raises(IndexError):
            _violation(a6.rows, 6)


class TestPhiSigma:
    def test_tree5_read_off(self, tree5):
        ps = to_phi_sigma(tree5)
        assert ps.phi == (2, 5, 4, 5, 6)
        assert ps.sigma == ("+", "-", "-", "+", None)

    def test_zero_matrix(self):
        ps = to_phi_sigma(validate([[0] * 3 for _ in range(3)]))
        assert ps.phi == (4, 4, 4)
        assert ps.sigma == (None, None, None)

    def test_reference_read_off(self, a6):
        ps = to_phi_sigma(a6)
        assert ps.phi == (3, 3, 6, 5, 6, 7)
        assert ps.sigma == ("+", "-", "-", "-", "+", None)

    def test_from_phi_sigma_tree5(self):
        ps = phi_sigma((2, 5, 4, 5, 6), ("+", "-", "-", "+", None))
        assert from_phi_sigma(ps).rows == tuple(tuple(r) for r in TREE_5)

    def test_from_phi_sigma_propagates_paths(self, a6):
        # the minus-minus path from 2 through 3 reaches column 6 as -1,
        # while the plus edge below 1 blocks propagation: n16 = 0
        ps = phi_sigma((3, 3, 6, 5, 6, 7), ("+", "-", "-", "-", "+", None))
        rebuilt = from_phi_sigma(ps)
        assert rebuilt == a6
        assert rebuilt.entry(1, 6) == 0
        assert rebuilt.entry(2, 6) == -1

    def test_all_roots_gives_zero_matrix(self):
        ps = phi_sigma((5, 5, 5, 5), (None,) * 4)
        assert from_phi_sigma(ps).rows == ((0, 0, 0, 0),) * 4

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_round_trip_is_identity(self, d):
        for m in fb(d):
            assert from_phi_sigma(to_phi_sigma(m)) == m

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_upward_path_oracle(self, d):
        # independent reconstruction: walk upward from i; the entry at an
        # ancestor j is +1 for a chain of "-" edges capped by one "+",
        # -1 for an all "-" chain, 0 otherwise
        for m in fb(d):
            ps = to_phi_sigma(m)
            for i in range(1, d + 1):
                for j in range(i + 1, d + 1):
                    signs = []
                    cur = i
                    while ps.phi[cur - 1] <= d and ps.phi[cur - 1] < j:
                        signs.append(ps.sigma[cur - 1])
                        cur = ps.phi[cur - 1]
                    if ps.phi[cur - 1] == j:
                        signs.append(ps.sigma[cur - 1])
                        below, last = signs[:-1], signs[-1]
                        if all(s == "-" for s in below):
                            expected = 1 if last == "+" else -1
                        else:
                            expected = 0
                    else:
                        expected = 0
                    assert m.entry(i, j) == expected

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_per_row_classifier(self, d):
        stream = fb(d) if d <= 5 else list(enumerate_matrices(d))
        for m in stream:
            assert to_phi_sigma(m) == reference_to_phi_sigma(m)

    @pytest.mark.parametrize("rows, row, violation", [
        (((1, 0), (0, 0)), 1, "nonzero entry (1,1) on or below the diagonal"),
        (((0, 2, 0), (0, 0, 0), (0, 0, 0)), 1, "entry (1,2) = 2 outside {-1,0,1}"),
        (((0, 1, 1), (0, 0, 0), (0, 0, 0)), 1,
         "leading +1 in column 2 but entry in column 3 is nonzero: not a unit row"),
    ])
    def test_unvalidated_matrix_raises_validate_error(self, rows, row, violation):
        a = FanoBottMatrix(rows)
        for _ in range(2):  # a failed scan is not kept
            with pytest.raises(InvalidMatrixError) as err:
                to_phi_sigma(a)
            assert (err.value.row, err.value.violation) == (row, violation)

    @settings(max_examples=200, deadline=None)
    @given(corrupted_grids())
    def test_unvalidated_matrix_agrees_with_validate(self, grid):
        rows = tuple(map(tuple, grid))
        expected = outcome(validate, rows)
        got = outcome(lambda g: to_phi_sigma(FanoBottMatrix(g)), rows)
        if expected[0] == "accepted":
            assert got == ("accepted", reference_to_phi_sigma(FanoBottMatrix(rows)))
        else:
            assert got == expected

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2"])
    def test_rejects_non_integer_phi(self, bad):
        with pytest.raises(ValueError) as err:
            phi_sigma([bad, 3], ["+", None])
        assert str(err.value) == f"phi(1) = {bad!r} is not an integer"
        with pytest.raises(ValueError) as err:
            from_phi_sigma(PhiSigma((2, bad), ("+", None)))
        assert str(err.value) == f"phi(2) = {bad!r} is not an integer"

    def test_rejects_non_increasing_phi(self):
        with pytest.raises(InvalidPhiError):
            phi_sigma((1, 3, 4), ("+", "+", None))
        with pytest.raises(InvalidPhiError):
            from_phi_sigma(PhiSigma((2, 2, 2), ("+", "+", "+")))

    def test_rejects_sigma_of_another_length(self):
        with pytest.raises(InvalidPhiError) as err:
            phi_sigma((2, 3), ("+",))
        assert str(err.value) == "phi has 2 entries but sigma has 1"

    def test_rejects_misplaced_sigma(self):
        with pytest.raises(InvalidPhiError):
            phi_sigma((2, 3, 4), ("+", "+", "+"))
        with pytest.raises(InvalidPhiError):
            phi_sigma((2, 3, 4), ("+", None, None))


class TestEnumerate:
    @pytest.mark.parametrize("d,expected",
                             [(1, 1), (2, 3), (3, 15), (4, 105), (5, 945)])
    def test_double_factorial_counts(self, d, expected):
        stream = fb(d)
        assert len(stream) == expected
        assert len(set(stream)) == expected
        assert count_matrices(d) == expected

    def test_d2_listing_order(self):
        assert [m.rows[0] for m in fb(2)] == [(0, 0), (0, 1), (0, -1)]

    def test_stream_reproducible(self):
        assert list(enumerate_matrices(3)) == list(enumerate_matrices(3))

    def test_members_validate(self):
        for m in fb(4):
            assert validate(m.rows) == m

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            list(enumerate_matrices(0))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matrix_at_every_position(self, d):
        stream = fb(d) if d <= 5 else list(enumerate_matrices(d))
        assert list(_matrices_at(d, range(len(stream)))) == stream

    @pytest.mark.parametrize("d, position", [(3, -1), (3, 15), (0, 0)])
    def test_matrix_at_rejects_positions_outside_the_stream(self, d, position):
        with pytest.raises(ValueError):
            list(_matrices_at(d, [position]))


def stream_position(ps, weights):
    """The 0-based stream position of ps, with weights from _row_weights.

    Row p's choice index is 0 for a root, q - p for a "+" edge to q and
    (d - p) + (q - p) for a "-" edge, the order of _row_choices.
    """
    d = len(ps.phi)
    position = 0
    for p, q, s, w in zip(range(1, d + 1), ps.phi, ps.sigma, weights):
        if s == "+":
            position += (q - p) * w
        elif s == "-":
            position += (d + q - 2 * p) * w
    return position


class TestStreamPositions:
    """The codec between parent/sign data and stream positions."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_encode_inverts_decode(self, d):
        weights = _row_weights(d)
        assert [stream_position(ps, weights) for ps in phi_sigmas(d)] \
            == list(range(count_matrices(d)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_decode_follows_the_stream(self, d):
        stream = fb(d) if d <= 5 else list(enumerate_matrices(d))
        assert [_matrix_of(ps) for ps in phi_sigmas(d)] == stream

    def test_weights_multiply_the_choice_counts_before(self):
        # rows 1..4 of a 5 x 5 matrix offer 9, 7, 5 and 3 choices
        assert _row_weights(5) == [1, 9, 63, 315, 945]
        assert _row_weights(1) == [1]

    def test_decode_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            list(phi_sigmas(0))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_count_is_the_weight_of_the_last_row(self, d):
        # row d offers one choice, so its weight is the stream length
        assert count_matrices(d) == _row_weights(d)[-1] \
            == sum(1 for _ in enumerate_matrices(d))

    def test_count_builds_no_choice_table(self):
        # A table of the 1 + 2(d-p) choices of every row holds d^2 tuples:
        # about 385 MB at d = 2000.
        tracemalloc.start()
        try:
            count = count_matrices(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == math.prod(range(1, 4000, 2))
        assert peak < 20_000_000

    @pytest.mark.parametrize("d", [0, -1])
    def test_count_and_weights_reject_nonpositive_dimension(self, d):
        with pytest.raises(ValueError, match="d must be at least 1"):
            count_matrices(d)
        with pytest.raises(ValueError, match="d must be at least 1"):
            _row_weights(d)

    @settings(max_examples=200, deadline=None)
    @given(admissible_matrices(max_dim=12))
    def test_position_decodes_to_the_matrix(self, m):
        position = stream_position(to_phi_sigma(m), _row_weights(m.dim))
        assert 0 <= position < count_matrices(m.dim)
        assert list(_matrices_at(m.dim, [position])) == [m]


class TestDirectSum:
    def test_two_points(self):
        one = validate([[0]])
        assert direct_sum(one, one).rows == ((0, 0), (0, 0))

    def test_forest5_is_a_direct_sum(self):
        left = validate([[0, 0, 1], [0, 0, -1], [0, 0, 0]])
        right = validate([[0, 1], [0, 0]])
        assert direct_sum(left, right).rows == tuple(tuple(r) for r in FOREST_5)

    def test_appending_an_isolated_root(self, a6):
        summed = direct_sum(a6, validate([[0]]))
        ps = to_phi_sigma(summed)
        inner = to_phi_sigma(a6)
        assert ps.phi[:6] == tuple(p if p <= 6 else 8 for p in inner.phi)
        assert ps.phi[6] == 8
        assert ps.sigma == inner.sigma + (None,)

    def test_direct_sums_stay_admissible(self):
        for left in fb(2):
            for right in fb(2):
                assert validate(direct_sum(left, right).rows)


class TestJson:
    def test_round_trip(self, a6):
        assert matrix_from_json(a6.to_json()) == a6
        assert matrix_from_json(REFERENCE_6) == a6

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 3, "entries": [[0, 1], [0, 0]]})

    @pytest.mark.parametrize("bad", [2.0, 2.9, "2", True, None])
    def test_rejects_non_integer_dim(self, bad):
        with pytest.raises(ValueError) as err:
            matrix_from_json({"dim": bad, "entries": [[0, 1], [0, 0]]})
        assert str(err.value) == f"dim = {bad!r} is not an integer"

    def test_digest_is_stable(self, a6):
        again = validate(REFERENCE_6)
        assert a6.digest() == again.digest() == (
            "0b21dcbb3c8c6c6fd824e8c3b8efd50bd9d8a7941ad3dd784be93544e6148ca8")
        assert a6.digest() != validate([[0] * 6 for _ in range(6)]).digest()

    @settings(deadline=None)
    @given(admissible_matrices(max_dim=16))
    def test_digest_hashes_the_compact_json(self, m):
        assert m.digest() == reference_digest(m)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_compact_json_of_every_small_matrix(self, d):
        for m in fb(d):
            assert m._compact_json() == reference_compact_json(m)

    def test_compact_json_of_the_empty_matrix(self):
        m = FanoBottMatrix(())
        assert m._compact_json() == reference_compact_json(m) == '{"dim":0,"entries":[]}'

    @settings(deadline=None)
    @given(admissible_matrices(max_dim=64))
    def test_compact_json_matches_json_dumps(self, m):
        assert m._compact_json() == reference_compact_json(m)


def assert_fresh_memos(m):
    """m carries the data a fresh scan reads off, and its digest is the
    sha256 of its JSON."""
    assert m._ps == matrix_module._accept(tuple(map(tuple, m.rows)))
    assert m.digest() == m.digest() == reference_digest(m)


class TestParsedOnce:
    """A matrix keeps the parent/sign data it was built with or scanned to,
    and hashes once."""

    @settings(deadline=None)
    @given(admissible_matrices(max_dim=24, chains=True))
    def test_constructors_keep_the_data_of_a_fresh_scan(self, m):
        ps = to_phi_sigma(m)
        grid = [list(row) for row in m.rows]
        for built in (m, validate(grid), matrix_from_json(m.to_json()),
                      from_phi_sigma(ps), _matrix_of(ps)):
            assert built == m
            assert_fresh_memos(built)

    def test_matrix_without_validate_is_scanned_once(self, monkeypatch):
        scans = []
        original = matrix_module._accept

        def counting(rows):
            scans.append(rows)
            return original(rows)

        monkeypatch.setattr(matrix_module, "_accept", counting)
        a = FanoBottMatrix(tuple(map(tuple, REFERENCE_6)))
        first = to_phi_sigma(a)
        assert to_phi_sigma(a) is first
        assert len(scans) == 1
        assert_fresh_memos(a)

    def test_memos_are_not_fields(self, a6):
        plain = FanoBottMatrix(a6.rows)
        to_phi_sigma(a6)
        a6.digest()
        assert a6.__dict__ == plain.__dict__ == {"rows": a6.rows}
        assert (a6 == plain, hash(a6), repr(a6)) == (True, hash(plain), repr(plain))
