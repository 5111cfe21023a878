"""Square reduction, the square-vanishing inventory, quotients, cut ranks."""

from __future__ import annotations

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import broom_pair, fb, sve_brute_force
from fanobott import (
    NotALeafColumnError,
    SveInventory,
    bfs_closure_classes,
    cut_rank_gf2,
    enumerate_sve,
    from_matrix,
    is_sve,
    leaf_cut,
    leaves,
    make_forest,
    peel_signature,
    quotient_by_leaf,
    relabel,
    square_reduce,
    to_matrix,
    validate,
)
from fanobott.cohomology import is_primitive
from test_forest import forests, path_forest
from test_matrix import admissible_matrices


class TestSquareReduce:
    def test_partnered_form_vanishes(self):
        m = validate([[0, 1], [0, 0]])
        assert square_reduce(m, (1, -2)) == {(1, 2): 0}

    def test_product_of_lines_square(self):
        m = validate([[0, 0], [0, 0]])
        assert square_reduce(m, (1, 1)) == {(1, 2): 2}

    def test_leaf_unit_vector_vanishes(self):
        for m in fb(3):
            for p in leaves(from_matrix(m)):
                unit = tuple(1 if i == p else 0 for i in range(1, 4))
                assert all(v == 0 for v in square_reduce(m, unit).values())

    def test_wrong_length(self, a6):
        with pytest.raises(ValueError):
            square_reduce(a6, (1, 0))

    @pytest.mark.parametrize("coeffs", [(1.5, 2.2), (1, 2.0), ("1", 0), (True, 0)])
    def test_non_integer_coefficient_is_rejected(self, coeffs):
        with pytest.raises(ValueError, match="is not an integer"):
            square_reduce(validate([[0, 1], [0, 0]]), coeffs)


class TestIsSve:
    def test_leaf_units(self, tree5):
        assert is_sve(tree5, (1, 0, 0, 0, 0))
        assert is_sve(tree5, (0, 0, 1, 0, 0))
        assert not is_sve(tree5, (0, 1, 0, 0, 0))

    def test_sum_of_two_units_never_vanishes(self):
        for m in fb(3):
            for p, q in combinations(range(1, 4), 2):
                coeffs = tuple(1 if i in (p, q) else 0 for i in range(1, 4))
                assert not is_sve(m, coeffs)

    def test_partnered_form(self):
        m = validate([[0, 1], [0, 0]])
        assert is_sve(m, (1, -2))
        assert is_sve(m, (-1, 2))
        assert not is_sve(m, (1, 2))

    def test_rejects_non_primitive(self):
        m = validate([[0, 0], [0, 0]])
        assert not is_sve(m, (2, 0))
        assert not is_sve(m, (0, 0))

    def test_non_integer_coefficient_is_rejected(self):
        m = validate([[0, 1], [0, 0]])
        for coeffs in [(True, 0), (1, 0.0), (1.0, -2)]:
            with pytest.raises(ValueError, match="is not an integer"):
                is_sve(m, coeffs)
        for coeffs in [(1.5,), (1, "2"), (0.0, 1)]:
            with pytest.raises(ValueError, match="is not an integer"):
                is_primitive(coeffs)


def reference_enumerate_sve(a):
    """The per-entry scan the column counts replaced: each leaf test and
    each partner test reads its column again through `entry`."""
    d = a.dim
    g, g_prime, h = [], [], []
    for p in range(1, d + 1):
        if any(a.entry(i, p) != 0 for i in range(1, p)):
            continue
        partner = None
        for q in range(p + 1, d + 1):
            npq = a.entry(p, q)
            if npq == 0:
                continue
            if all(a.entry(i, q) == 0 for i in range(1, q) if i != p):
                partner = (q, npq)
                break
        if partner is None:
            h.append(p)
        else:
            g.append(p)
            g_prime.append((p, partner[0], partner[1]))
    return SveInventory(tuple(g), tuple(g_prime), tuple(h), len(g) + len(h))


class TestInventory:
    def test_product_of_lines(self):
        inv = enumerate_sve(validate([[0] * 3 for _ in range(3)]))
        assert inv.to_json() == {
            "g": [], "g_prime": [], "h": [1, 2, 3], "maximal_basis_number": 3,
        }

    def test_partnered_two_stage(self):
        inv = enumerate_sve(validate([[0, 1], [0, 0]]))
        assert inv.g == (1,)
        assert inv.g_prime == ((1, 2, 1),)
        assert inv.h == ()
        assert inv.maximal_basis_number == 1

    def test_negative_partner_sign(self):
        inv = enumerate_sve(validate([[0, -1], [0, 0]]))
        assert inv.g_prime == ((1, 2, -1),)
        assert inv.vectors(2) == frozenset({(1, 0), (1, 2)})

    def test_reference_matches_brute_force(self, a6):
        inv = enumerate_sve(a6)
        assert inv.vectors(6) == sve_brute_force(a6)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_exhaustive_agreement(self, d):
        for m in fb(d):
            inv = enumerate_sve(m)
            assert inv.vectors(d) == sve_brute_force(m)
            assert inv.maximal_basis_number == len(leaves(from_matrix(m)))

    @settings(max_examples=300, deadline=None)
    @given(admissible_matrices(max_dim=24, chains=True))
    def test_equals_per_entry_reference(self, m):
        assert enumerate_sve(m) == reference_enumerate_sve(m)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_wider_coefficient_box_finds_nothing_new(self, d):
        for m in fb(d):
            assert sve_brute_force(m, bound=3) == sve_brute_force(m, bound=2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_partner_pairs_are_disjoint(self, d):
        for m in fb(d):
            pairs = [{p, q} for p, q, _ in enumerate_sve(m).g_prime]
            for left, right in combinations(pairs, 2):
                assert not left & right


class TestQuotient:
    def test_zero_matrix(self):
        m = validate([[0] * 3 for _ in range(3)])
        assert quotient_by_leaf(m, 2).rows == ((0, 0), (0, 0))

    def test_point_to_empty(self):
        assert quotient_by_leaf(validate([[0]]), 1).dim == 0

    def test_rejects_internal_vertex(self, tree5):
        with pytest.raises(NotALeafColumnError):
            quotient_by_leaf(tree5, 4)

    @pytest.mark.parametrize("bad", [1.0, True, "2", None])
    def test_rejects_non_integer_column(self, tree5, bad):
        with pytest.raises(ValueError) as err:
            quotient_by_leaf(tree5, bad)
        assert str(err.value) == f"alpha = {bad!r} is not an integer"

    def test_matches_leaf_cut(self, tree5):
        cut = to_matrix(leaf_cut(from_matrix(tree5), 1))
        assert quotient_by_leaf(tree5, 1) == cut

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_commutes_with_leaf_cut(self, d):
        for m in fb(d):
            for p in leaves(from_matrix(m)):
                assert quotient_by_leaf(m, p) == to_matrix(
                    leaf_cut(from_matrix(m), p))

    @pytest.mark.parametrize("d", [3, 4])
    def test_cutting_the_leaf_set_is_order_independent(self, d):
        from itertools import permutations

        from fanobott import DIFFEO, canonical_code

        def cut_all(m, order):
            # earlier cuts shift the labels of later ones down
            done = []
            for v in order:
                shifted = v - sum(1 for u in done if u < v)
                m = quotient_by_leaf(m, shifted)
                done.append(v)
            return m

        for m in fb(d):
            current = leaves(from_matrix(m))
            results = {
                canonical_code(from_matrix(cut_all(m, order)), DIFFEO).code
                for order in permutations(current)
            }
            assert len(results) == 1


def reference_peel_signature(t):
    """Cut the whole leaf set round by round, rebuilding the forest per cut."""
    signature = []
    while t.size:
        current = leaves(t)
        signature.append(len(current))
        for v in sorted(current, reverse=True):
            t = leaf_cut(t, v)
    return tuple(signature)


class TestPeel:
    def test_product_of_lines(self):
        assert peel_signature(validate([[0] * 3 for _ in range(3)])) == (3,)

    def test_chain(self):
        chain = validate([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert peel_signature(chain) == (1, 1, 1)

    def test_tree5(self, tree5):
        assert peel_signature(tree5) == (2, 2, 1)

    @settings(max_examples=200, deadline=None)
    @given(forests(max_size=12), st.data())
    def test_equals_leaf_cut_reference(self, t, data):
        assert peel_signature(to_matrix(t)) == reference_peel_signature(t)
        perm = tuple(data.draw(st.permutations(range(1, t.size + 1))))
        relabeled = relabel(t, perm)
        assert peel_signature(relabeled) == reference_peel_signature(relabeled)

    def test_deep_path_and_star(self):
        assert peel_signature(path_forest(5000)) == (1,) * 5000
        star = make_forest([0] + [1] * 4999, [""] + ["+"] * 4999)
        assert peel_signature(star) == (4999, 1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_constant_on_reachability_classes(self, d):
        for cls in bfs_closure_classes(d):
            peels = {peel_signature(m) for m in cls}
            basis_numbers = {enumerate_sve(m).maximal_basis_number for m in cls}
            leaf_cut_ranks = {
                cut_rank_gf2(m, leaves(from_matrix(m))) for m in cls
            }
            assert len(peels) == 1
            assert len(basis_numbers) == 1
            assert len(leaf_cut_ranks) == 1


class TestCutRank:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_broom_patterns_separate(self, p):
        plain, mixed = broom_pair(p)
        assert cut_rank_gf2(plain, {1, 2}) == 1
        assert cut_rank_gf2(mixed, {1, 2}) == 2

    def test_empty_and_full_sets(self, a6):
        assert cut_rank_gf2(a6, set()) == 0
        assert cut_rank_gf2(a6, set(range(1, 7))) == 0

    def test_out_of_range_label(self, a6):
        with pytest.raises(ValueError):
            cut_rank_gf2(a6, {0})

    @pytest.mark.parametrize("label", [1.7, "1", True, 1.0])
    def test_non_integer_label_is_rejected(self, label):
        with pytest.raises(ValueError, match="is not an integer"):
            cut_rank_gf2(validate([[0, 1], [0, 0]]), [label])

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_subset_xor_oracle(self, d):
        # over GF(2) the row space of a rank-r matrix has exactly 2^r vectors
        for m in fb(d):
            for size in range(d + 1):
                for s in combinations(range(1, d + 1), size):
                    cols = [j for j in range(1, d + 1) if j not in s]
                    rows = [
                        tuple(m.entry(p, j) % 2 for j in cols) for p in s
                    ]
                    span = set()
                    for picks in product((0, 1), repeat=len(rows)):
                        vec = tuple(
                            sum(c * row[i] for c, row in zip(picks, rows)) % 2
                            for i in range(len(cols))
                        )
                        span.add(vec)
                    expected = len(span).bit_length() - 1
                    assert cut_rank_gf2(m, s) == expected
