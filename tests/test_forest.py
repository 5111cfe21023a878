"""Forest construction, leaf surgery, canonical codes, DOT rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fb, phi_sigmas, relabel_topological, seven_vertex_pair, star_trio
from fanobott import (
    DIFFEO,
    MODES,
    ROOTED,
    VARIETY,
    LabelOrderError,
    NotALeafError,
    SignedRootedForest,
    canonical_code,
    children_map,
    equivalent,
    forest_from_json,
    from_matrix,
    leaf_cut,
    leaves,
    make_forest,
    relabel,
    render_dot,
    to_matrix,
    validate,
)
from fanobott.forest import (
    LEAF_ATOM,
    _bottom_up,
    _code_ids,
    _first_positions,
    _forest_of,
    _kids_and_order,
    _layers,
    _vertex_code,
)
from fanobott.matrix import _matrices_at, _row_choices

FLIP = {"+": "-", "-": "+"}


def reference_vertex_code(v, kids, signs, mode, memo):
    """The recursive vertex code the iterative pass replaced."""
    if v in memo:
        return memo[v]
    children = kids[v]
    if not children:
        memo[v] = "L"
        return "L"
    if mode == ROOTED:
        inner = sorted(reference_vertex_code(c, kids, signs, mode, memo)
                       for c in children)
        code = "(" + ",".join(inner) + ")"
    else:
        tokens = [
            (reference_vertex_code(c, kids, signs, mode, memo), signs[c - 1])
            for c in children
        ]
        given = sorted(tokens)
        flipped = sorted((code, FLIP[s]) for code, s in tokens)
        best = min(given, flipped)
        code = "(" + ",".join(code + s for code, s in best) + ")"
    memo[v] = code
    return code


def reference_root_code(r, kids, signs, mode, memo):
    """The recursive root code the iterative pass replaced."""
    if mode == DIFFEO:
        inner = sorted(
            reference_vertex_code(c, kids, signs, mode, memo) for c in kids[r]
        )
        return "[" + ",".join(inner) + "]"
    return reference_vertex_code(r, kids, signs, mode, memo)


def reference_code(t, mode):
    """Forest code string built from the recursive reference."""
    kids = children_map(t)
    memo = {}
    return "|".join(sorted(reference_root_code(r, kids, t.signs, mode, memo)
                           for r in t.roots()))


def inline_bottom_up(t, mode):
    """The pass of `_bottom_up` with the vertex code rule written inline,
    as it was before the rule moved into one helper."""
    parents, signs = t.parents, t.signs
    kids, order = _kids_and_order(parents)
    codes = [LEAF_ATOM] * (len(parents) + 1)
    flipped = [False] * (len(parents) + 1)
    diffeo = mode == DIFFEO
    for v in reversed(order):
        children = kids[v]
        if diffeo and not parents[v - 1]:
            codes[v] = "[" + ",".join(sorted([codes[c] for c in children])) + "]"
        elif not children:
            continue
        elif mode == ROOTED:
            codes[v] = "(" + ",".join(sorted([codes[c] for c in children])) + ")"
        else:
            given = sorted([(codes[c], signs[c - 1]) for c in children])
            other = sorted([(code, FLIP[s]) for code, s in given])
            if other < given:
                given = other
                flipped[v] = True
            codes[v] = "(" + ",".join([code + s for code, s in given]) + ")"
    return kids, codes, flipped


def reference_first_positions(d, mode):
    """The depth-first pass the layered pass replaced: one leaf per matrix.

    Vertex 1 chooses first and vertex d last.  Once vertices 1..k-1 have
    chosen, the code of vertex k is built once for that prefix; each
    choice files it as a root or as a (code, sign) token of the chosen
    parent, and each leaf keeps its forest code's smallest position.
    """
    if d == 1:  # the one matrix is a single childless root
        return {_vertex_code([], mode, True)[0]: 0}
    per_row = _row_choices(d)
    weights = [1]
    for choices in per_row[:-1]:
        weights.append(weights[-1] * len(choices))
    below = [[] for _ in range(d + 2)]
    roots = below[d + 1]  # root codes; below[q] holds the tokens of q's children
    diffeo = mode == DIFFEO
    first = {}

    def frame(k, base):
        """Vertex k, the position its prefix fixes, its filings, its next choice."""
        code = _vertex_code(below[k], mode, False)[0]
        root_code = _vertex_code(below[k], mode, True)[0] if diffeo else code
        filings = [(roots, root_code) if q > d else (below[q], (code, s))
                   for q, s in per_row[k - 1]]
        return [k, base, filings, 0]

    # Vertex d has the one choice of a root, so the pass ends at vertex d-1.
    stack = [frame(1, 0)]
    while stack:
        top = stack[-1]
        k, base, filings, j = top
        if j:
            filings[j - 1][0].pop()
        if j == len(filings):
            stack.pop()
            continue
        target, item = filings[j]
        target.append(item)
        top[3] = j + 1
        position = base + j * weights[k - 1]
        if k < d - 1:
            stack.append(frame(k + 1, position))
            continue
        code = "|".join(sorted([*roots, _vertex_code(below[d], mode, True)[0]]))
        if first.get(code, position) >= position:
            first[code] = position
    return first


def path_forest(n, signs=None):
    """Path n -> n-1 -> ... -> 1 rooted at 1, so labels fall toward the root."""
    signs = signs or ["+"] * (n - 1)
    return make_forest([0] + list(range(1, n)), [""] + list(signs))


def caterpillar_forest(spine):
    """Spine 1..spine rooted at 1 (labels fall toward the root), one leaf on
    every spine vertex, signs alternating along the spine."""
    parents = [0] + list(range(1, spine)) + list(range(1, spine + 1))
    signs = [""] + ["+-"[v % 2] for v in range(2, spine + 1)] + ["-"] * spine
    return make_forest(parents, signs)


@st.composite
def forests(draw, max_size=8):
    """Random label-ordered forest via parent targets above each vertex."""
    d = draw(st.integers(min_value=0, max_value=max_size))
    parents, signs = [], []
    for i in range(1, d + 1):
        target = draw(st.integers(min_value=i + 1, max_value=d + 1))
        parents.append(target if target <= d else 0)
        signs.append(draw(st.sampled_from(["+", "-"])) if target <= d else "")
    return make_forest(parents, signs)


@st.composite
def labeled_forests(draw, max_size=8):
    """Random forest with an arbitrary labeling."""
    t = draw(forests(max_size=max_size))
    perm = tuple(draw(st.permutations(range(1, t.size + 1))))
    return relabel(t, perm)


def flip_children_at(t, ks):
    signs = list(t.signs)
    for v in range(1, t.size + 1):
        if t.parents[v - 1] in ks:
            signs[v - 1] = FLIP[signs[v - 1]]
    return SignedRootedForest(t.parents, tuple(signs))


def flip_edges(t, vs):
    signs = list(t.signs)
    for v in vs:
        signs[v - 1] = FLIP[signs[v - 1]]
    return SignedRootedForest(t.parents, tuple(signs))


class TestConversion:
    def test_tree5_structure(self, tree5):
        t = from_matrix(tree5)
        assert t.parents == (2, 5, 4, 5, 0)
        assert t.signs == ("+", "-", "-", "+", "")
        assert t.roots() == (5,)

    def test_zero_matrix_gives_isolated_roots(self):
        t = from_matrix(validate([[0] * 4 for _ in range(4)]))
        assert t.parents == (0, 0, 0, 0)
        assert t.roots() == (1, 2, 3, 4)

    def test_forest5_components(self, forest5):
        t = from_matrix(forest5)
        assert t.parents == (3, 3, 0, 5, 0)
        assert t.signs == ("+", "-", "", "+", "")

    def test_to_matrix_single_root(self):
        assert to_matrix(make_forest((0,), ("",))).rows == ((0,),)

    def test_seven_vertex_bottom_entries(self):
        a, _ = seven_vertex_pair()
        nonzero = {(i, j): a.entry(i, j)
                   for i in range(1, 8) for j in range(i + 1, 8)
                   if a.entry(i, j)}
        assert nonzero == {(1, 3): 1, (2, 3): -1, (2, 7): 1, (3, 7): 1,
                           (4, 6): 1, (5, 6): 1, (6, 7): 1}

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_round_trip(self, d):
        for m in fb(d):
            assert to_matrix(from_matrix(m)) == m

    def test_to_matrix_rejects_bad_label_order(self):
        bad = SignedRootedForest((0, 1), ("", "+"))
        with pytest.raises(LabelOrderError) as err:
            to_matrix(bad)
        assert err.value.vertex == 2

    def test_json_round_trip(self, tree5):
        t = from_matrix(tree5)
        assert forest_from_json(t.to_json()) == t


class TestMakeForest:
    @pytest.mark.parametrize("parents, vertex", [
        ((2, 1), 1),
        ((2, 3, 2, 0), 2),
        ((0, 3, 4, 2), 2),
        ((0, 1, 5, 3, 4), 3),
    ])
    def test_cycle_message_names_the_first_repeated_vertex(self, parents, vertex):
        signs = ["" if p == 0 else "+" for p in parents]
        with pytest.raises(ValueError) as err:
            make_forest(parents, signs)
        assert str(err.value) == f"parent map cycles through vertex {vertex}"

    @pytest.mark.parametrize("bad", [2.9, 2.0, "2", True, None])
    def test_rejects_non_integer_parent(self, bad):
        with pytest.raises(ValueError) as err:
            forest_from_json({"size": 2, "parents": [bad, 0], "signs": ["+", ""]})
        assert str(err.value) == f"parent(1) = {bad!r} is not an integer"

    @pytest.mark.parametrize("bad", [2.0, 2.9, "2", True, None])
    def test_rejects_non_integer_size(self, bad):
        with pytest.raises(ValueError) as err:
            forest_from_json({"size": bad, "parents": [2, 0], "signs": ["+", ""]})
        assert str(err.value) == f"size = {bad!r} is not an integer"


class TestRelabel:
    def test_identity_on_ordered_forest(self, tree5):
        t = from_matrix(tree5)
        relabeled, perm = relabel_topological(t)
        assert relabeled == t
        assert perm == (1, 2, 3, 4, 5)

    def test_two_vertex_swap(self):
        t = SignedRootedForest((0, 1), ("", "+"))
        relabeled, perm = relabel_topological(t)
        assert perm == (2, 1)
        assert relabeled.parents == (2, 0)
        assert relabeled.signs == ("+", "")

    @pytest.mark.parametrize("pi, message", [
        ((2, True), "perm entry = True is not an integer"),
        ((2.0, 1.0), "perm entry = 2.0 is not an integer"),
        ((2, 2), "(2, 2) is not a permutation of 1..2"),
    ])
    def test_rejects_non_permutation(self, pi, message):
        t = make_forest([2, 0], ["+", ""])
        with pytest.raises(ValueError) as err:
            relabel(t, pi)
        assert str(err.value) == message

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_relabeled_forests_convert(self, d):
        import random

        rng = random.Random(20240229 + d)
        for m in fb(d):
            labels = list(range(1, d + 1))
            rng.shuffle(labels)
            shuffled = relabel(from_matrix(m), tuple(labels))
            ordered, _ = relabel_topological(shuffled)
            rebuilt = to_matrix(ordered)
            assert validate(rebuilt.rows) == rebuilt
            for mode in MODES:
                assert equivalent(from_matrix(m), from_matrix(rebuilt), mode)


class TestLeafSurgery:
    def test_tree5_leaves(self, tree5):
        assert leaves(from_matrix(tree5)) == (1, 3)

    def test_cut_single_vertex(self):
        t = make_forest((0,), ("",))
        assert leaf_cut(t, 1).size == 0

    def test_cut_rejects_internal_vertex(self, tree5):
        with pytest.raises(NotALeafError):
            leaf_cut(from_matrix(tree5), 4)

    @pytest.mark.parametrize("bad", [1.0, True, "2", None])
    def test_cut_rejects_non_integer_vertex(self, tree5, bad):
        with pytest.raises(ValueError) as err:
            leaf_cut(from_matrix(tree5), bad)
        assert str(err.value) == f"v = {bad!r} is not an integer"

    def test_cut_shifts_labels(self, tree5):
        t = leaf_cut(from_matrix(tree5), 1)
        # remaining vertices 2,3,4,5 renamed 1..4
        assert t.parents == (4, 3, 4, 0)
        assert t.signs == ("-", "-", "+", "")


class TestCanonicalCodes:
    def test_star_trio_variety(self):
        t1, t2, t3 = (from_matrix(m) for m in star_trio())
        assert equivalent(t1, t2, VARIETY)
        assert not equivalent(t1, t3, VARIETY)

    def test_seven_vertex_pair_modes(self):
        a, b = seven_vertex_pair()
        ta, tb = from_matrix(a), from_matrix(b)
        assert not equivalent(ta, tb, VARIETY)
        assert equivalent(ta, tb, DIFFEO)

    def test_reflexive(self, tree5):
        t = from_matrix(tree5)
        for mode in MODES:
            assert equivalent(t, t, mode)

    def test_code_carries_mode(self, tree5):
        t = from_matrix(tree5)
        assert canonical_code(t, VARIETY) != canonical_code(t, ROOTED)

    def test_empty_forest(self):
        empty = make_forest((), ())
        for mode in MODES:
            assert canonical_code(empty, mode).code == ""

    def test_unknown_mode(self, tree5):
        with pytest.raises(ValueError):
            canonical_code(from_matrix(tree5), "smooth")
        with pytest.raises(ValueError):
            _first_positions(3, "smooth")

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_partitions_coarsen(self, d):
        def signed_code(t):
            kids = children_map(t)

            def code(v):
                tokens = sorted((code(u), t.signs[u - 1]) for u in kids[v])
                if not tokens:
                    return "L"
                return "(" + ",".join(c + s for c, s in tokens) + ")"

            return "|".join(sorted(code(r) for r in t.roots()))

        by_signed, by_variety = {}, {}
        for m in fb(d):
            t = from_matrix(m)
            by_signed.setdefault(signed_code(t), []).append(t)
            by_variety.setdefault(canonical_code(t, VARIETY).code, []).append(t)
        # members of a signed-isomorphism class share their variety code,
        # and members of a variety class share their diffeo code
        for members in by_signed.values():
            assert len({canonical_code(t, VARIETY).code for t in members}) == 1
        for members in by_variety.values():
            assert len({canonical_code(t, DIFFEO).code for t in members}) == 1

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_layered_pass_matches_depth_first_reference(self, d, mode):
        assert _first_positions(d, mode) == reference_first_positions(d, mode)

    @settings(max_examples=300, deadline=None)
    @given(forests(max_size=9), st.data())
    def test_matches_recursive_reference(self, t, data):
        perm = tuple(data.draw(st.permutations(range(1, t.size + 1))))
        for forest in (t, relabel(t, perm)):
            for mode in MODES:
                assert canonical_code(forest, mode).code == reference_code(forest, mode)

    @settings(max_examples=300, deadline=None)
    @given(forests(max_size=12), st.data())
    def test_bottom_up_matches_inline_rule(self, t, data):
        perm = tuple(data.draw(st.permutations(range(1, t.size + 1))))
        for forest in (t, relabel(t, perm)):
            for mode in MODES:
                assert _bottom_up(forest, mode) == inline_bottom_up(forest, mode)

    def test_deep_path_codes(self):
        n = 5000
        t = path_forest(n, ["+-"[v % 2] for v in range(2, n + 1)])
        assert canonical_code(t, ROOTED).code == "(" * (n - 1) + "L" + ")" * (n - 1)
        variety = "(" * (n - 1) + "L" + "+)" * (n - 1)
        assert canonical_code(t, VARIETY).code == variety
        assert canonical_code(t, DIFFEO).code == (
            "[" + "(" * (n - 2) + "L" + "+)" * (n - 2) + "]")
        assert equivalent(t, path_forest(n), VARIETY)
        assert not equivalent(t, path_forest(n - 1), DIFFEO)

    def test_deep_caterpillar_codes(self):
        t = caterpillar_forest(2500)
        ordered, _ = relabel_topological(t)
        flipped = flip_children_at(t, set(range(1, 2500, 3)))
        for mode in MODES:
            code = canonical_code(t, mode)
            assert code == canonical_code(ordered, mode)
            assert code == canonical_code(flipped, mode)
        # the last spine vertex carries one leaf, every other one the rest
        # of the spine and a leaf ("(" sorts before "L")
        assert canonical_code(t, ROOTED).code == (
            "(" * 2499 + "(L)" + ",L)" * 2499)
        assert not equivalent(t, path_forest(5000), ROOTED)

    @settings(max_examples=120, deadline=None)
    @given(labeled_forests(), st.data())
    def test_invariant_under_relabeling(self, t, data):
        perm = tuple(data.draw(st.permutations(range(1, t.size + 1))))
        other = relabel(t, perm)
        for mode in MODES:
            assert canonical_code(t, mode) == canonical_code(other, mode)

    @settings(max_examples=120, deadline=None)
    @given(labeled_forests(), st.data())
    def test_invariant_under_child_sign_flips(self, t, data):
        vertices = list(range(1, t.size + 1))
        ks = set(data.draw(st.lists(st.sampled_from(vertices), unique=True))) \
            if vertices else set()
        other = flip_children_at(t, ks)
        assert canonical_code(t, VARIETY) == canonical_code(other, VARIETY)
        assert canonical_code(t, DIFFEO) == canonical_code(other, DIFFEO)
        assert leaves(t) == leaves(other)

    @settings(max_examples=120, deadline=None)
    @given(labeled_forests(), st.data())
    def test_diffeo_invariant_under_root_edge_flips(self, t, data):
        roots = set(t.roots())
        root_children = [v for v in range(1, t.size + 1)
                         if t.parents[v - 1] in roots]
        vs = data.draw(st.lists(st.sampled_from(root_children), unique=True)) \
            if root_children else []
        other = flip_edges(t, vs)
        assert canonical_code(t, DIFFEO) == canonical_code(other, DIFFEO)
        assert leaves(t) == leaves(other)


class TestCodeIds:
    """The state engine's ids, against a forest and a code per position."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_ids_and_codes_partition_the_positions_alike(self, d, mode):
        ids = _code_ids(d, mode)
        codes = [canonical_code(_forest_of(ps), mode).code for ps in phi_sigmas(d)]
        assert len(ids) == len(codes)
        # one code per id and one id per code
        assert len(set(zip(ids, codes))) == len(set(ids)) == len(set(codes))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_ids_appear_in_stream_first_order(self, d, mode):
        firsts = {}
        for position, t in enumerate(_code_ids(d, mode)):
            firsts.setdefault(t, position)
        assert list(firsts) == list(range(len(firsts)))
        assert list(firsts.values()) == sorted(_first_positions(d, mode).values())

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_first_positions_increase_with_the_id(self, d, mode):
        for _, states, first in _layers(d, mode):
            assert len(first) == len(states)
            assert all(a < b for a, b in zip(first, first[1:]))

    # The class counts at d = 8 and 9 in rooted, variety and diffeo mode:
    # d = 8 from enumerate-then-deduplicate, and the rooted counts are
    # the rooted-tree numbers (OEIS A000081).
    @pytest.mark.parametrize(("d", "counts"), [(8, (286, 1105, 639)),
                                               (9, (719, 3624, 2023))])
    def test_class_counts(self, d, counts):
        assert tuple(len(_first_positions(d, mode)) for mode in MODES) == counts

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_code_at_each_first_position(self, d, mode):
        first = _first_positions(d, mode)
        for code, m in zip(first, _matrices_at(d, first.values())):
            assert canonical_code(from_matrix(m), mode).code == code


class TestDot:
    def test_single_vertex(self):
        out = render_dot(make_forest((0,), ("",)))
        assert out == (
            "digraph forest {\n"
            "  rankdir=BT;\n"
            "  v1 [shape=doublecircle];\n"
            "}\n"
        )

    def test_tree5_golden(self, tree5):
        out = render_dot(from_matrix(tree5))
        assert out == (
            "digraph forest {\n"
            "  rankdir=BT;\n"
            "  v1;\n"
            "  v2;\n"
            "  v3;\n"
            "  v4;\n"
            "  v5 [shape=doublecircle];\n"
            '  v1 -> v2 [label="+"];\n'
            '  v2 -> v5 [label="-"];\n'
            '  v3 -> v4 [label="-"];\n'
            '  v4 -> v5 [label="+"];\n'
            "}\n"
        )
        assert out.count("label=") == 4

    def test_byte_stable(self, forest5):
        t = from_matrix(forest5)
        assert render_dot(t) == render_dot(t)
