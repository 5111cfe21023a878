"""The three moves, their closure, replay, reachability, witnesses."""

from __future__ import annotations

import operator
from collections import defaultdict
from itertools import permutations, product
from math import factorial, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_6_COLFLIP_3,
    REFERENCE_6_COLFLIP_5,
    REFERENCE_6_EDGEFLIP_3_6,
    REFERENCE_6_EDGEFLIP_5_6,
    fb,
    phi_sigmas,
    relabel_topological,
    seven_vertex_pair,
    subtree_vertices,
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
    FanoBottError,
    bfs_closure_classes,
    canonical_code,
    certify_diffeo,
    children_map,
    conjugate,
    find_witness,
    flip_column,
    flip_root_edge,
    from_matrix,
    leaves,
    make_forest,
    quotient_by_leaf,
    relabel,
    replay,
    to_matrix,
    to_phi_sigma,
    validate,
    witness_from_json,
)
from fanobott import forest as forest_module
from fanobott import matrix as matrix_module
from fanobott import ops as ops_module
from fanobott.forest import _forest_of, _match_forests, _phi_sigma_of
from fanobott.matrix import _matrix_of, _row_weights
from fanobott.ops import neighbors
from test_forest import (
    flip_children_at,
    flip_edges,
    forests,
    labeled_forests,
    reference_vertex_code,
)
from test_matrix import admissible_matrices, assert_fresh_memos, stream_position

FLIP = {"+": "-", "-": "+"}


def reference_match_forests(t1, t2):
    """The recursive matcher the iterative one replaced."""
    def subtree_codes(t):
        kids = children_map(t)
        memo = {}
        for v in range(1, t.size + 1):
            reference_vertex_code(v, kids, t.signs, VARIETY, memo)
        return memo

    kids1, kids2 = children_map(t1), children_map(t2)
    code1, code2 = subtree_codes(t1), subtree_codes(t2)
    mapping = {}
    flips = []
    edge_flips = []

    def pair_groups(items1, items2):
        groups1 = defaultdict(list)
        groups2 = defaultdict(list)
        for key, label in items1:
            groups1[key].append(label)
        for key, label in items2:
            groups2[key].append(label)
        if set(groups1) != set(groups2):
            raise FanoBottError("internal: forest matching diverged")
        pairs = []
        for key in groups1:
            g1, g2 = sorted(groups1[key]), sorted(groups2[key])
            if len(g1) != len(g2):
                raise FanoBottError("internal: forest matching diverged")
            pairs.extend(zip(g1, g2))
        return pairs

    def match(u, u2):
        mapping[u] = u2
        toks1 = sorted((code1[c], t1.signs[c - 1]) for c in kids1[u])
        toks2 = sorted((code2[c], t2.signs[c - 1]) for c in kids2[u2])
        flipped1 = sorted((code, FLIP[s]) for code, s in toks1)
        if toks1 == toks2:
            eps = 0
        elif flipped1 == toks2:
            eps = 1
        else:
            raise FanoBottError("internal: forest matching diverged")
        if eps:
            flips.append(u2)
        items1 = [
            ((code1[c], t1.signs[c - 1] if not eps else FLIP[t1.signs[c - 1]]), c)
            for c in kids1[u]
        ]
        items2 = [((code2[c], t2.signs[c - 1]), c) for c in kids2[u2]]
        for c, c2 in pair_groups(items1, items2):
            match(c, c2)

    def match_root(r, r2):
        mapping[r] = r2
        items1 = [(code1[c], c) for c in kids1[r]]
        items2 = [(code2[c], c) for c in kids2[r2]]
        for c, c2 in pair_groups(items1, items2):
            if t1.signs[c - 1] != t2.signs[c2 - 1]:
                edge_flips.append((r2, c2))
            match(c, c2)

    def root_code(kids, codes, r):
        return "[" + ",".join(sorted(codes[c] for c in kids[r])) + "]"

    items1 = [(root_code(kids1, code1, r), r) for r in t1.roots()]
    items2 = [(root_code(kids2, code2, r), r) for r in t2.roots()]
    for r, r2 in pair_groups(items1, items2):
        match_root(r, r2)
    return mapping, flips, edge_flips


def reference_witness_steps(a, b):
    """Steps find_witness builds, with the matching from the reference."""
    mapping, flips, edge_flips = reference_match_forests(from_matrix(a),
                                                         from_matrix(b))
    perm = tuple(mapping[i] for i in range(1, a.dim + 1))
    steps = [] if perm == tuple(range(1, a.dim + 1)) else [ConjugateStep(perm)]
    steps.extend(ColumnFlipStep(k) for k in sorted(flips))
    steps.extend(RootEdgeFlipStep(k, l) for l, k in sorted(edge_flips))
    return tuple(steps)


@st.composite
def diffeo_partners(draw, source):
    """A relabeling of the forest with random child and root-edge flips."""
    t = draw(source)
    perm = tuple(draw(st.permutations(range(1, t.size + 1))))
    other = relabel(t, perm)
    vertices = range(1, t.size + 1)
    other = flip_children_at(other, set(draw(st.lists(st.sampled_from(vertices))))
                             if t.size else set())
    root_children = [v for v in vertices if other.parents[v - 1] in other.roots()]
    if root_children:
        other = flip_edges(other, set(draw(st.lists(st.sampled_from(root_children)))))
    return t, other


def reference_conjugates(m):
    """Every one of the d! conjugations that validate accepts, in
    lexicographic order of perm: the brute force neighbors replaced."""
    out = []
    for perm in permutations(range(1, m.dim + 1)):
        try:
            out.append(validate(conjugate(m, perm)))
        except InvalidMatrixError:
            pass
    return out


def reference_bfs_closure_classes(d, use_root_edge_flips=True):
    """Move-graph components with every edge of every matrix: a union per
    neighbors entry, classes and members in stream order."""
    mats = fb(d)
    index = {m: i for i, m in enumerate(mats)}
    parent = list(range(len(mats)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, m in enumerate(mats):
        for n in neighbors(m, use_root_edge_flips=use_root_edge_flips):
            rx, ry = find(i), find(index[n])
            parent[max(rx, ry)] = min(rx, ry)
    groups = defaultdict(list)
    for i, m in enumerate(mats):
        groups[find(i)].append(m)
    return list(groups.values())


def reference_conjugate(a, perm):
    """The per-entry double loop that conjugate replaced."""
    d = a.dim
    perm = ops_module._check_perm(perm, d)
    out = [[0] * d for _ in range(d)]
    for i0 in range(d):
        row = a.rows[i0]
        for j0 in range(d):
            out[perm[i0] - 1][perm[j0] - 1] = row[j0]
    return tuple(tuple(r) for r in out)


def reference_flip_column(a, k):
    """The per-entry double loop that flip_column replaced."""
    d = a.dim
    k0 = k - 1
    rows = [list(r) for r in a.rows]
    for i0 in range(d):
        cik = a.rows[i0][k0]
        if cik == 0:
            continue
        for j0 in range(d):
            if j0 == k0:
                rows[i0][j0] = -cik
            else:
                rows[i0][j0] = a.rows[i0][j0] + a.rows[k0][j0] * cik
    return validate(rows)


def dense_flip_column(a, k):
    """The dense column flip the parent/sign move replaced: build every row,
    then validate the result."""
    d = a.dim
    if not 1 <= k <= d:
        raise ValueError(f"column {k} out of range 1..{d}")
    k0 = k - 1
    row_k = a.rows[k0]
    rows = []
    for row in a.rows:
        cik = row[k0]
        if cik != 0:
            row = list(map(operator.add if cik == 1 else operator.sub, row, row_k))
            row[k0] = -cik
        rows.append(row)
    return validate(rows)


def dense_flip_root_edge(a, k, l):
    """The dense root-edge flip the parent/sign move replaced: check the two
    rows, build every row, then validate the result."""
    d = a.dim
    if not (1 <= k <= d and 1 <= l <= d):
        raise OpPreconditionError(k, l, "indices out of range")
    l0, k0 = l - 1, k - 1
    if any(v != 0 for v in a.rows[l0]):
        raise OpPreconditionError(k, l, f"row {l} is not zero")
    expected_unit = all(
        v == 0 if j0 != l0 else v in (-1, 1)
        for j0, v in enumerate(a.rows[k0])
    ) and a.rows[k0][l0] != 0
    if not expected_unit:
        raise OpPreconditionError(k, l, f"row {k} is not +/- e_{l}")
    rows = [list(r) for r in a.rows]
    rows[k0][l0] = -rows[k0][l0]
    for i0 in range(d):
        if i0 in (k0, l0):
            continue
        if a.rows[i0][k0] != 0:
            rows[i0][l0] = a.rows[i0][k0] * a.rows[i0][l0]
    return validate(rows)


def dense_apply_step(a, step):
    """One step on the dense rows, its result validated."""
    if isinstance(step, ConjugateStep):
        return validate(conjugate(a, step.perm))
    if isinstance(step, ColumnFlipStep):
        return dense_flip_column(a, step.k)
    return dense_flip_root_edge(a, step.k, step.l)


def reference_replay(a, steps):
    """The replay the parent/sign moves replaced: every step builds and
    validates a d x d matrix."""
    sequence = steps if isinstance(steps, OpSequence) else None
    step_list = list(sequence.steps if sequence else steps)
    if sequence and sequence.source_sha and sequence.source_sha != a.digest():
        raise StepFailedError(-1, "source digest does not match the matrix")
    current = a
    for index, step in enumerate(step_list):
        try:
            current = dense_apply_step(current, step)
        except (FanoBottError, ValueError) as exc:
            raise StepFailedError(index, str(exc)) from exc
    if sequence and sequence.target_sha and sequence.target_sha != current.digest():
        raise StepFailedError(len(step_list), "target digest does not match the result")
    return current


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (FanoBottError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


@st.composite
def linear_extensions(draw, t):
    """A random relabeling that keeps every label below its parent's."""
    kids = children_map(t)
    pending = {v: len(kids[v]) for v in range(1, t.size + 1)}
    ready = [v for v in range(1, t.size + 1) if not pending[v]]
    perm = [0] * t.size
    for label in range(1, t.size + 1):
        v = ready.pop(draw(st.integers(min_value=0, max_value=len(ready) - 1)))
        perm[v - 1] = label
        p = t.parents[v - 1]
        if p:
            pending[p] -= 1
            if not pending[p]:
                ready.append(p)
    return tuple(perm)


@st.composite
def towers_with_perms(draw, max_size=16):
    """An admissible matrix, an admissible relabeling and an arbitrary one."""
    t = draw(forests(max_size=max_size))
    return (to_matrix(t), draw(linear_extensions(t)),
            tuple(draw(st.permutations(range(1, t.size + 1)))))


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
        for perm in [(1, 1, 3, 4, 5, 6), (1, 2), (0, 1, 2, 3, 4, 5),
                     (1, 2, 3, 4, 5, 6, 7)]:
            with pytest.raises(ValueError) as err:
                conjugate(a6, perm)
            assert str(err.value) == f"{perm} is not a permutation of 1..6"

    @settings(max_examples=150, deadline=None)
    @given(towers_with_perms())
    def test_matches_per_entry_reference(self, case):
        m, admissible, arbitrary = case
        assert conjugate(m, arbitrary) == reference_conjugate(m, arbitrary)
        rows = conjugate(m, admissible)
        assert rows == reference_conjugate(m, admissible)
        assert validate(rows).rows == rows

    @pytest.mark.parametrize("bad", [1.0, True, "1"])
    def test_rejects_non_integer_perm_entry(self, bad):
        m = validate([[0, 1], [0, 0]])
        with pytest.raises(ValueError) as err:
            conjugate(m, (bad, 2))
        assert str(err.value) == f"perm entry = {bad!r} is not an integer"
        with pytest.raises(StepFailedError):
            replay(m, [ConjugateStep((bad, 2))])


class TestNeighbors:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equals_brute_force_in_order(self, d):
        for m in fb(d):
            flips = [flip_column(m, k) for k in range(1, d + 1)]
            edges = [flip_root_edge(m, k, l) for k, l in valid_edge_flip_pairs(m)]
            conjugates = reference_conjugates(m)
            assert neighbors(m) == flips + edges + conjugates
            assert neighbors(m, use_root_edge_flips=False) == flips + conjugates

    # the brute force costs about a second per 8-vertex tower
    @settings(max_examples=12, deadline=None)
    @given(forests(max_size=8))
    @example(make_forest((3, 3, 8, 6, 6, 8, 8, 0),
                         ("+", "-", "+", "-", "+", "+", "-", "")))
    def test_conjugates_are_the_linear_extensions(self, t):
        m = to_matrix(t)
        conjugates = neighbors(m, use_root_edge_flips=False)[t.size:]
        assert set(conjugates) == set(reference_conjugates(m))
        # hook length formula for forests: d! / prod |subtree(v)|
        sizes = prod(len(subtree_vertices(t, v)) for v in range(1, t.size + 1))
        assert len(conjugates) == factorial(t.size) // sizes


def brute_force_perms(phi):
    """The perms of permutations(), in its lexicographic order, that keep
    every label below its parent's (a root's parent, d+1, keeps d+1)."""
    d = len(phi)
    out = []
    for perm in permutations(range(1, d + 1)):
        labels = (*perm, d + 1)
        if all(labels[v0] < labels[p - 1] for v0, p in enumerate(phi)):
            out.append(perm)
    return out


class TestAdmissiblePerms:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 6])
    def test_equals_brute_force_in_order(self, d):
        for phi in product(*[range(p + 1, d + 2) for p in range(1, d + 1)]):
            assert ops_module._admissible_perms(phi) == brute_force_perms(phi)

    def test_long_chain_has_only_the_identity(self):
        d = 1100
        chain = tuple(range(2, d + 2))  # vertex v's parent is v+1
        assert ops_module._admissible_perms(chain) == [tuple(range(1, d + 1))]

    def test_star_orders_its_leaves_freely(self):
        star = (9,) * 8 + (10,)  # eight leaves under the root 9
        perms = ops_module._admissible_perms(star)
        assert len(perms) == factorial(8)
        assert perms[0] == tuple(range(1, 10))
        assert perms[-1] == (8, 7, 6, 5, 4, 3, 2, 1, 9)


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

    @settings(max_examples=150, deadline=None)
    @given(towers_with_perms())
    def test_matches_per_entry_reference(self, case):
        m, admissible, _ = case
        for a in (m, validate(conjugate(m, admissible))):
            for k in range(1, a.dim + 1):
                assert flip_column(a, k) == reference_flip_column(a, k)

    def test_leaf_flip_returns_its_input(self, a6, monkeypatch):
        kids = children_map(from_matrix(a6))
        leaves = [k for k in kids if not kids[k]]
        assert leaves == [1, 2, 4]

        def no_rows(*args):
            raise AssertionError("a leaf flip built rows")

        monkeypatch.setattr(matrix_module, "_rows_bottom_up", no_rows)
        for k in leaves:
            assert flip_column(a6, k) is a6

    @pytest.mark.parametrize("k", [0, 7, -1])
    def test_rejects_column_out_of_range(self, a6, k):
        with pytest.raises(ValueError) as err:
            flip_column(a6, k)
        assert str(err.value) == f"column {k} out of range 1..6"


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


class TestDenseReference:
    """The moves on parent/sign data against the dense rows they replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_flips_equal_dense_reference(self, d):
        # out-of-range indices and every failing (k, l) pair included
        indices = range(0, d + 2)
        for m in fb(d):
            for k in indices:
                assert outcome(flip_column, m, k) == outcome(dense_flip_column, m, k)
            for k, l in product(indices, indices):
                assert (outcome(flip_root_edge, m, k, l)
                        == outcome(dense_flip_root_edge, m, k, l))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_relabelings_equal_validate(self, d):
        for m in fb(d):
            ps = to_phi_sigma(m)
            accepted = 0
            for perm in permutations(range(1, d + 1)):
                step = ConjugateStep(perm)
                expected = outcome(dense_apply_step, m, step)
                assert outcome(lambda: _matrix_of(ops_module._move(ps, step))) == expected
                accepted += not isinstance(expected, tuple)
            assert accepted == len(ops_module._admissible_perms(ps.phi))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_replay_equals_reference(self, data):
        t = data.draw(forests(max_size=16))
        a = to_matrix(t)
        d = a.dim
        index = st.integers(min_value=0, max_value=d + 1)
        steps, current = [], a
        for _ in range(data.draw(st.integers(0, 6))):
            kind = data.draw(st.integers(0, 5))
            if kind == 0:  # admissible relabeling
                step = ConjugateStep(data.draw(linear_extensions(from_matrix(current))))
            elif kind == 1:  # arbitrary permutation, mostly inadmissible
                step = ConjugateStep(tuple(data.draw(st.permutations(range(1, d + 1)))))
            elif kind == 2:
                step = ColumnFlipStep(data.draw(index))
            elif kind == 3 and valid_edge_flip_pairs(current):
                step = RootEdgeFlipStep(*data.draw(
                    st.sampled_from(valid_edge_flip_pairs(current))))
            else:  # arbitrary (k, l), mostly failing
                step = RootEdgeFlipStep(data.draw(index), data.draw(index))
            steps.append(step)
            try:  # after a failing step, later steps are drawn for the last matrix
                current = dense_apply_step(current, step)
            except (FanoBottError, ValueError):
                pass
        digests = data.draw(st.integers(0, 2))
        if digests:
            steps = OpSequence(tuple(steps), a.digest(),
                               current.digest() if digests == 1 else "0" * 64)
        assert outcome(replay, a, steps) == outcome(reference_replay, a, steps)


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

    def test_a_non_step_is_a_type_error(self, a6):
        with pytest.raises(TypeError, match="^not a step: 'x'$"):
            ops_module.step_to_json("x")
        with pytest.raises(TypeError, match="^not a step: 'x'$"):
            replay(a6, ["x"])

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

    @pytest.mark.parametrize("step, field, bad", [
        ({"op": "2", "k": 1.7}, "k", 1.7),
        ({"op": "2", "k": True}, "k", True),
        ({"op": "3", "k": "1", "l": 2}, "k", "1"),
        ({"op": "3", "k": 1, "l": 2.0}, "l", 2.0),
        ({"op": "p", "perm": [1.0, 3, 2]}, "perm entry", 1.0),
        ({"op": "p", "perm": [1, None, 2]}, "perm entry", None),
    ], ids=["k-float", "k-bool", "k-str", "l-float", "perm-float", "perm-none"])
    def test_witness_rejects_non_integer_field(self, step, field, bad):
        with pytest.raises(ValueError) as err:
            witness_from_json({"steps": [step]})
        assert str(err.value) == f"{field} = {bad!r} is not an integer"


NON_INTEGERS = [2.0, True, "2", None]


class TestNonIntegerLabels:
    """A move's k and l must be ints: neither a float nor a bool names a column."""

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_flip_column(self, a6, bad):
        with pytest.raises(ValueError) as err:
            flip_column(a6, bad)
        assert str(err.value) == f"k = {bad!r} is not an integer"

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_flip_root_edge(self, a6, bad):
        for args, field in [((bad, 3), "k"), ((2, bad), "l")]:
            with pytest.raises(ValueError) as err:
                flip_root_edge(a6, *args)
            assert str(err.value) == f"{field} = {bad!r} is not an integer"

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_replay(self, a6, bad):
        for steps in ([ColumnFlipStep(bad)],
                      [ColumnFlipStep(3), RootEdgeFlipStep(bad, 3)]):
            with pytest.raises(StepFailedError) as err:
                replay(a6, steps)
            assert err.value.index == len(steps) - 1
            assert str(err.value).endswith(f"k = {bad!r} is not an integer")


class TestBfsClosure:
    def test_single_point(self):
        assert len(bfs_closure_classes(1)) == 1

    def test_two_classes_at_d2(self):
        classes = bfs_closure_classes(2)
        assert len(classes) == 2
        as_rows = [{m.rows for m in cls} for cls in classes]
        assert {((0, 0), (0, 0))} in as_rows
        assert {((0, 1), (0, 0)), ((0, -1), (0, 0))} in as_rows

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_diffeo_codes(self, d):
        by_code = {}
        for m in fb(d):
            code = canonical_code(from_matrix(m), DIFFEO).code
            by_code.setdefault(code, set()).add(m)
        bfs = {frozenset(cls) for cls in bfs_closure_classes(d)}
        assert bfs == {frozenset(v) for v in by_code.values()}
        assert len(bfs) == {2: 2, 3: 4, 4: 10, 5: 25, 6: 71}[d]

    @pytest.mark.parametrize("use_root_edge_flips", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_equals_per_matrix_reference(self, d, use_root_edge_flips):
        assert bfs_closure_classes(d, use_root_edge_flips=use_root_edge_flips) \
            == reference_bfs_closure_classes(d, use_root_edge_flips)

    def test_search_applies_no_move(self, monkeypatch):
        # Every edge is a position delta: no move is applied, no relabeling
        # is generated, and no matrix is built, read or conjugated.
        counts = {"_move": 0, "_admissible_perms": 0, "conjugate": 0,
                  "_matrix_of": 0, "to_phi_sigma": 0}
        for module in (ops_module, matrix_module):
            for name in counts:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counting(*args, name=name, original=original):
                    counts[name] += 1
                    return original(*args)

                monkeypatch.setattr(module, name, counting)
        assert len(set(ops_module._closure_roots(5))) == 25
        assert counts == dict.fromkeys(counts, 0)

    @pytest.mark.parametrize("use_root_edge_flips", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_roots_equal_orbit_reference(self, d, use_root_edge_flips):
        assert ops_module._closure_roots(d, use_root_edge_flips) \
            == reference_closure_roots(d, use_root_edge_flips)

    @pytest.mark.parametrize("use_root_edge_flips", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_roots_equal_position_search(self, d, use_root_edge_flips):
        assert ops_module._closure_roots(d, use_root_edge_flips) \
            == position_closure_roots(d, use_root_edge_flips)

    def test_class_counts_at_d7(self):
        assert len(set(ops_module._closure_roots(7))) == 207
        assert len(set(ops_module._closure_roots(7, False))) == 345

    @pytest.mark.slow
    def test_class_counts_at_d8(self):
        assert len(set(ops_module._closure_roots(8))) == 639
        assert len(set(ops_module._closure_roots(8, False))) == 1105

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_relabel_and_column_flips_match_variety_codes(self, d):
        by_code = {}
        for m in fb(d):
            code = canonical_code(from_matrix(m), VARIETY).code
            by_code.setdefault(code, set()).add(m)
        bfs = {frozenset(cls)
               for cls in bfs_closure_classes(d, use_root_edge_flips=False)}
        assert bfs == {frozenset(v) for v in by_code.values()}
        assert len(bfs) == {2: 2, 3: 5, 4: 13, 5: 37, 6: 111}[d]


def flip_steps(ps, use_root_edge_flips):
    """Column flips at 1..d, then the root-edge flips (k, l) by increasing k."""
    d = ps.dim
    steps = [ColumnFlipStep(k) for k in range(1, d + 1)]
    if use_root_edge_flips:
        steps += [RootEdgeFlipStep(k, l) for k, l in enumerate(ps.phi, 1)
                  if l <= d and ps.phi[l - 1] == d + 1]
    return steps


def swap_step(d, x):
    """The relabeling by the transposition (x x+1)."""
    perm = list(range(1, d + 1))
    perm[x - 1], perm[x] = x + 1, x
    return ConjugateStep(tuple(perm))


def flip_deltas(ps, weights, use_root_edge_flips):
    """Stream-position deltas of the flips of ps, as the position search
    took them.

    A sign change of row p, its toggle, moves the position by
    (d - p) * weight(p): up from "+" to "-", down from "-" to "+".  The list
    holds the column flips at 1..d, each the sum of the toggles of k's
    children (0 at a leaf), then, when enabled, the root-edge flips (k, l)
    by increasing k, each the one toggle of row k.
    """
    phi, sigma = ps.phi, ps.sigma
    d = len(phi)
    columns = [0] * (d + 1)
    edges = []
    for p, q, s, w in zip(range(1, d + 1), phi, sigma, weights):
        if q <= d:
            toggle = (d - p) * w if s == "+" else -(d - p) * w
            columns[q] += toggle
            if use_root_edge_flips and phi[q - 1] > d:
                edges.append(toggle)
    return columns[1:] + edges


def swap_deltas(ps, weights):
    """The deltas of ops._swap_deltas at the signs of ps."""
    minus = [s == "-" for s in ps.sigma]
    return [delta + (minus[x] - minus[x - 1]) * shift
            for x, delta, shift in ops_module._swap_deltas(ps.phi, weights)]


def position_differences(ps, steps):
    """How far each step moves ps in the stream, for the steps _move accepts."""
    weights = _row_weights(ps.dim)
    here = stream_position(ps, weights)
    moved = []
    for step in steps:
        try:
            moved.append(stream_position(ops_module._move(ps, step), weights) - here)
        except InvalidMatrixError:
            pass
    return moved


def flip_deltas_and_moves(ps, use_root_edge_flips):
    """flip_deltas of ps, and the position differences of the flip moves."""
    steps = flip_steps(ps, use_root_edge_flips)
    return (flip_deltas(ps, _row_weights(ps.dim), use_root_edge_flips),
            position_differences(ps, steps))


def swap_deltas_and_moves(ps):
    """swap_deltas of ps, and the position differences of the admissible
    relabelings by (x x+1), x = 1..d-1."""
    swaps = [swap_step(ps.dim, x) for x in range(1, ps.dim)]
    return swap_deltas(ps, _row_weights(ps.dim)), position_differences(ps, swaps)


def position_closure_roots(d, use_root_edge_flips=True):
    """The position search the coset search replaced: a union-find entry
    per stream position, joined along every flip delta and swap delta from
    the smaller end (every flip and every swap undoes itself)."""
    weights = _row_weights(d)
    parent = list(range(matrix_module.count_matrices(d)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, ps in enumerate(phi_sigmas(d)):
        for delta in (flip_deltas(ps, weights, use_root_edge_flips)
                      + swap_deltas(ps, weights)):
            if delta > 0:
                rx, ry = find(i), find(i + delta)
                parent[max(rx, ry)] = min(rx, ry)
    # A union keeps the smaller root and path halving only lowers parents,
    # so parent[x] <= x, and one pass in order resolves every root.
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return parent


def reference_closure_roots(d, use_root_edge_flips=True):
    """The orbit search the swap deltas replaced: every flip through _move,
    and every admissible relabeling through _move, from the first position
    of each relabeling orbit, each result encoded to its position."""
    weights = _row_weights(d)
    parent = list(range(matrix_module.count_matrices(d)))
    relabeled = bytearray(len(parent))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        parent[max(rx, ry)] = min(rx, ry)

    for i, ps in enumerate(phi_sigmas(d)):
        for step in flip_steps(ps, use_root_edge_flips):
            union(i, stream_position(ops_module._move(ps, step), weights))
        if relabeled[i]:
            continue
        for perm in ops_module._admissible_perms(ps.phi):
            j = stream_position(ops_module._move(ps, ConjugateStep(perm)), weights)
            relabeled[j] = 1
            union(i, j)
    return [find(i) for i in range(len(parent))]


class TestFlipDeltas:
    """Flip edges as stream-position deltas, against the moves themselves."""

    @pytest.mark.parametrize("use_root_edge_flips", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_every_flip_at_every_position(self, d, use_root_edge_flips):
        for ps in phi_sigmas(d):
            deltas, moved = flip_deltas_and_moves(ps, use_root_edge_flips)
            assert deltas == moved

    @settings(max_examples=200, deadline=None)
    @given(forests(max_size=12), st.booleans())
    def test_every_flip_up_to_12(self, t, use_root_edge_flips):
        if not t.size:
            return
        deltas, moved = flip_deltas_and_moves(_phi_sigma_of(t), use_root_edge_flips)
        assert deltas == moved

    @pytest.mark.parametrize("use_root_edge_flips", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_roots_are_the_first_class_members(self, d, use_root_edge_flips):
        roots = ops_module._closure_roots(d, use_root_edge_flips)
        classes = bfs_closure_classes(d, use_root_edge_flips=use_root_edge_flips)
        position = {m: i for i, m in enumerate(fb(d))}
        expected = [0] * len(roots)
        for cls in classes:
            for m in cls:
                expected[position[m]] = position[cls[0]]
        assert roots == expected


class TestSwapDeltas:
    """Relabelings by adjacent transpositions as stream-position deltas."""

    @pytest.mark.parametrize("use_root_edge_flips", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_every_swap_at_every_position(self, d, use_root_edge_flips):
        stream = list(phi_sigmas(d))
        for ps in stream:
            deltas, moved = swap_deltas_and_moves(ps)
            assert deltas == moved
        # The coset search takes the swaps of each coset's smallest member.
        for members, targets in ops_module._flip_cosets(d, use_root_edge_flips):
            c = members[0]
            assert targets == [c + delta for delta in swap_deltas_and_moves(stream[c])[1]]

    @settings(max_examples=200, deadline=None)
    @given(forests(max_size=12))
    def test_every_swap_up_to_12(self, t):
        if not t.size:
            return
        deltas, moved = swap_deltas_and_moves(_phi_sigma_of(t))
        assert deltas == moved

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_skips_exactly_the_rejected_swaps(self, d):
        for ps in phi_sigmas(d):
            rejected = [x for x in range(1, d)
                        if not position_differences(ps, [swap_step(d, x)])]
            assert rejected == [x for x in range(1, d) if ps.phi[x - 1] == x + 1]
            assert [x for x, _, _ in ops_module._swap_deltas(ps.phi, _row_weights(d))] \
                == [x for x in range(1, d) if x not in rejected]


class TestFlipCosets:
    """The nodes of the coset search, against the flip moves themselves."""

    @pytest.mark.parametrize("use_root_edge_flips", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_node_minimum_is_the_smallest_flip_reachable_position(
            self, d, use_root_edge_flips):
        parent = list(range(matrix_module.count_matrices(d)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, ps in enumerate(phi_sigmas(d)):
            for delta in position_differences(ps, flip_steps(ps, use_root_edge_flips)):
                rx, ry = find(i), find(i + delta)
                parent[max(rx, ry)] = min(rx, ry)
        node_minimum = [None] * len(parent)
        for members, _ in ops_module._flip_cosets(d, use_root_edge_flips):
            for m in members:
                assert node_minimum[m] is None  # each position in one node
                node_minimum[m] = members[0]
        assert node_minimum == [find(i) for i in range(len(parent))]

    def test_node_counts(self):
        # (diffeo, variety) nodes; the positions number 945 and 135,135
        for d, counts in [(5, (136, 226)), (7, (7521, 16717))]:
            assert tuple(sum(1 for _ in ops_module._flip_cosets(d, mode))
                         for mode in (True, False)) == counts


class TestFindWitness:
    def test_self_witness_is_empty(self, a6):
        sequence = find_witness(a6, a6)
        assert sequence is not None
        assert sequence.steps == ()
        assert replay(a6, sequence) == a6

    @pytest.mark.parametrize("equivalent", [True, False])
    def test_one_bottom_up_pass_per_forest(self, monkeypatch, equivalent):
        a, b = seven_vertex_pair()
        if not equivalent:
            b = validate([[0] * 7 for _ in range(7)])
        modes = []
        original = forest_module._bottom_up

        def counting(t, mode):
            modes.append(mode)
            return original(t, mode)

        monkeypatch.setattr(forest_module, "_bottom_up", counting)
        assert (find_witness(a, b) is not None) == equivalent
        assert modes == [DIFFEO, DIFFEO]

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

    @settings(max_examples=200, deadline=None)
    @given(diffeo_partners(forests(max_size=9)))
    def test_steps_match_recursive_reference(self, pair):
        t, other = pair
        a, b = to_matrix(t), to_matrix(relabel_topological(other)[0])
        sequence = find_witness(a, b)
        assert sequence.steps == reference_witness_steps(a, b)
        assert replay(a, sequence) == b

    @settings(max_examples=200, deadline=None)
    @given(diffeo_partners(labeled_forests(max_size=9)))
    def test_matching_equals_reference_on_unordered_labels(self, pair):
        mapping, flips, edge_flips = _match_forests(*pair)
        expected = reference_match_forests(*pair)
        assert mapping == expected[0]
        assert sorted(flips) == sorted(expected[1])
        assert sorted(edge_flips) == sorted(expected[2])

    def test_deep_path_witness_certifies(self):
        # past the default recursion limit of 1000
        n = 1100
        a = to_matrix(make_forest(list(range(2, n + 1)) + [0],
                                  ["+"] * (n - 1) + [""]))
        b = flip_root_edge(flip_column(flip_column(a, 10), 700), n - 1, n)
        sequence = find_witness(a, b)
        assert sequence.steps == (ColumnFlipStep(10), ColumnFlipStep(700),
                                  RootEdgeFlipStep(n - 1, n))
        certificate = certify_diffeo(a, b, sequence)
        assert certificate.witness == sequence
        assert len(certificate.row_signs) == 2 * n

    def test_witness_json_round_trip(self):
        a, b = seven_vertex_pair()
        sequence = find_witness(a, b)
        assert witness_from_json(sequence.to_json()) == sequence


@st.composite
def replayable_steps(draw, a, max_steps=6):
    """Steps that replay from a: admissible relabelings, column flips and
    root-edge flips, each one valid where it is applied."""
    ps = to_phi_sigma(a)
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_steps))):
        kind = draw(st.sampled_from("p23"))
        if kind == "p":
            step = ConjugateStep(draw(linear_extensions(_forest_of(ps))))
        elif kind == "2":
            step = ColumnFlipStep(draw(st.integers(min_value=1, max_value=ps.dim)))
        else:
            pairs = ops_module._valid_root_edge_pairs(ps)
            if not pairs:
                continue
            step = RootEdgeFlipStep(*draw(st.sampled_from(pairs)))
        ps = ops_module._move(ps, step)
        steps.append(step)
    return steps


def refuse_to_scan(rows):
    raise AssertionError("a parsed matrix was scanned again")


class TestParsedOnce:
    """Every move builds its result from parent/sign data it already holds,
    and the result keeps the data a fresh scan would read off."""

    @settings(deadline=None)
    @given(admissible_matrices(max_dim=24, chains=True), st.data())
    def test_every_move_keeps_the_data_of_a_fresh_scan(self, a, data):
        results = [flip_column(a, k) for k in range(1, a.dim + 1)]
        results += [flip_root_edge(a, k, l) for k, l in valid_edge_flip_pairs(a)]
        steps = data.draw(replayable_steps(a))
        results.append(replay(a, steps))
        results += [quotient_by_leaf(a, v) for v in leaves(from_matrix(a))]
        if a.dim <= 6:  # the conjugates grow as d!
            results += neighbors(a)
        for m in results:
            assert_fresh_memos(m)
        assert replay(a, steps) == reference_replay(a, steps)

    @settings(max_examples=50, deadline=None)
    @given(diffeo_partners(forests(max_size=12)))
    def test_witness_replay_and_certify_scan_no_parsed_matrix(self, pair):
        t, other = pair
        pairs = [(to_matrix(t), validate(to_matrix(relabel_topological(other)[0]).rows)),
                 seven_vertex_pair()]
        with mock.patch.object(matrix_module, "_accept", refuse_to_scan):
            for a, b in pairs:
                witness = find_witness(a, b)
                assert replay(a, witness) == b
                certificate = certify_diffeo(a, b, witness_from_json(witness.to_json()))
                assert certificate.witness == witness
