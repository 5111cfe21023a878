"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; each test prints `acceptance[NN] PASS` once its checks hold.
"""

from __future__ import annotations

import functools
import time
from itertools import permutations

from conftest import (
    REFERENCE_6_COLFLIP_3,
    REFERENCE_6_COLFLIP_5,
    REFERENCE_6_EDGEFLIP_3_6,
    REFERENCE_6_EDGEFLIP_5_6,
    TREE_5,
    broom_pair,
    fb,
    seven_vertex_pair,
    star_trio,
    sve_brute_force,
)
from fanobott import (
    DIFFEO,
    VARIETY,
    ColumnFlipStep,
    ConjugateStep,
    InvalidMatrixError,
    OpSequence,
    RootEdgeFlipStep,
    SignedRootedForest,
    bfs_closure_classes,
    canonical_code,
    certify_diffeo,
    children_map,
    conjugate,
    cut_rank_gf2,
    enumerate_matrices,
    enumerate_sve,
    equivalent,
    find_witness,
    flip_column,
    flip_root_edge,
    from_matrix,
    from_phi_sigma,
    leaves,
    phi_sigma,
    replay,
    to_matrix,
    validate,
)

FLIP = {"+": "-", "-": "+"}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance[{number:02d}] FAIL  {description}")
                raise
            print(f"acceptance[{number:02d}] PASS  {description}")
        return wrapper
    return decorate


@criterion(1, "column/root-edge flips reproduce the four displayed matrices")
def test_flip_fixtures_bit_exact(a6):
    expected = [
        (flip_column, 3, REFERENCE_6_COLFLIP_3),
        (flip_column, 5, REFERENCE_6_COLFLIP_5),
    ]
    for fn, k, rows in expected:
        assert fn(a6, k).rows == tuple(tuple(r) for r in rows)
    assert flip_root_edge(a6, 3, 6).rows == tuple(
        tuple(r) for r in REFERENCE_6_EDGEFLIP_3_6)
    assert flip_root_edge(a6, 5, 6).rows == tuple(
        tuple(r) for r in REFERENCE_6_EDGEFLIP_5_6)
    best = min(
        _timed(lambda: (flip_column(a6, 3), flip_column(a6, 5),
                        flip_root_edge(a6, 3, 6), flip_root_edge(a6, 5, 6)))
        for _ in range(5)
    )
    assert best < 1e-3, f"four flips took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion(2, "relation data produces the displayed forests and read-off entries")
def test_forest_construction_and_read_off():
    tree = from_matrix(from_phi_sigma(
        phi_sigma((2, 5, 4, 5, 6), ("+", "-", "-", "+", None))))
    assert tree.parents == (2, 5, 4, 5, 0)
    assert tree.signs == ("+", "-", "-", "+", "")

    two_trees = from_matrix(from_phi_sigma(
        phi_sigma((3, 3, 6, 5, 6), ("+", "-", None, "+", None))))
    assert two_trees.parents == (3, 3, 0, 5, 0)
    assert two_trees.signs == ("+", "-", "", "+", "")

    read_off = from_phi_sigma(
        phi_sigma((2, 5, 4, 5, 6), ("+", "-", "-", "+", None)))
    assert read_off.rows == tuple(tuple(r) for r in TREE_5)
    nonzero = {(i, j): read_off.entry(i, j)
               for i in range(1, 6) for j in range(i + 1, 6)
               if read_off.entry(i, j)}
    assert nonzero == {(1, 2): 1, (3, 5): 1, (4, 5): 1, (2, 5): -1, (3, 4): -1}


@criterion(3, "variety equivalence separates the three star sign variants")
def test_variety_equivalence_of_sign_variants():
    t1, t2, t3 = (from_matrix(m) for m in star_trio())
    assert equivalent(t1, t2, VARIETY) is True
    assert equivalent(t1, t3, VARIETY) is False


@criterion(4, "seven-vertex pair: prefix, diagonal, sign pattern, certificate")
def test_seven_vertex_diffeo_certificate():
    a, b = seven_vertex_pair()

    # (a) the relabel/column-flip prefix lands on the intermediate matrix
    prefix = [ConjugateStep((2, 1, 3, 4, 5, 6, 7)), ColumnFlipStep(6)]
    intermediate = replay(a, prefix)
    assert intermediate.rows == (
        (0, 0, -1, 0, 0, 0, 1),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, -1, 1),
        (0, 0, 0, 0, 0, -1, 1),
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 0, 0),
    )

    # (b) one subtree flip below root 7 matches rows with signs +,+,+,-,-,-,+
    witness = OpSequence(tuple(prefix + [RootEdgeFlipStep(6, 7)]),
                         a.digest(), b.digest())
    certificate = certify_diffeo(a, b, witness)
    assert certificate.flip_diagonals == ((1, 1, 1, -1, -1, -1, 1),)
    pattern = ("+", "+", "+", "-", "-", "-", "+")
    assert certificate.row_signs == pattern + pattern

    # (c) inequivalent as varieties, equivalent as smooth towers
    ta, tb = from_matrix(a), from_matrix(b)
    assert equivalent(ta, tb, VARIETY) is False
    assert equivalent(ta, tb, DIFFEO) is True

    # (d) the constructed witness certifies end to end as well
    auto = find_witness(a, b)
    assert auto is not None
    assert certify_diffeo(a, b, auto).row_signs == pattern + pattern


@criterion(5, "broom sign patterns have cut ranks 1 and 2 for handle lengths 1..3")
def test_broom_cut_ranks():
    for p in (1, 2, 3):
        plain, mixed = broom_pair(p)
        assert cut_rank_gf2(plain, {1, 2}) == 1
        assert cut_rank_gf2(mixed, {1, 2}) == 2


@criterion(6, "enumeration counts 1, 3, 15, 105, 945 in under a second")
def test_enumeration_counts():
    start = time.perf_counter()
    counts = [sum(1 for _ in enumerate_matrices(d)) for d in range(1, 6)]
    elapsed = time.perf_counter() - start
    assert counts == [1, 3, 15, 105, 945]
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"


@criterion(7, "move reachability equals diffeo codes for d <= 4 in under 10 s")
def test_bfs_oracle_matches_diffeo_codes():
    start = time.perf_counter()
    for d in (1, 2, 3, 4):
        by_code = {}
        for m in fb(d):
            code = canonical_code(from_matrix(m), DIFFEO).code
            by_code.setdefault(code, set()).add(m)
        classes = bfs_closure_classes(d)
        assert {frozenset(c) for c in classes} == {
            frozenset(v) for v in by_code.values()
        }
        if d == 2:
            assert len(classes) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s"


@criterion(8, "inventory matches the brute-force scan on all 945 5-row matrices")
def test_sve_inventory_matches_brute_force_scan():
    start = time.perf_counter()
    for m in fb(5):
        inventory = enumerate_sve(m)
        assert inventory.vectors(5) == sve_brute_force(m, bound=2)
        assert inventory.maximal_basis_number == len(leaves(from_matrix(m)))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"scan took {elapsed:.2f}s"


@criterion(9, "closure, sign-flip correspondences, round trips, involutions, invariance")
def test_operation_invariant_suite():
    for d in (1, 2, 3, 4):
        universe = set(fb(d))
        for m in fb(d):
            tree = from_matrix(m)
            kids = children_map(tree)
            code = canonical_code(tree, DIFFEO)

            assert to_matrix(tree) == m

            for k in range(1, d + 1):
                flipped = flip_column(m, k)
                assert flipped in universe
                assert flip_column(flipped, k) == m
                signs = list(tree.signs)
                for c in kids[k]:
                    signs[c - 1] = FLIP[signs[c - 1]]
                assert from_matrix(flipped) == SignedRootedForest(
                    tree.parents, tuple(signs))
                assert canonical_code(from_matrix(flipped), DIFFEO) == code

            for l in tree.roots():
                for k in kids[l]:
                    flipped = flip_root_edge(m, k, l)
                    assert flipped in universe
                    assert flip_root_edge(flipped, k, l) == m
                    signs = list(tree.signs)
                    signs[k - 1] = FLIP[signs[k - 1]]
                    assert from_matrix(flipped) == SignedRootedForest(
                        tree.parents, tuple(signs))
                    assert canonical_code(from_matrix(flipped), DIFFEO) == code

            for perm in permutations(range(1, d + 1)):
                try:
                    relabeled = validate(conjugate(m, perm))
                except InvalidMatrixError:
                    continue
                assert canonical_code(from_matrix(relabeled), DIFFEO) == code


@criterion(10, "every equivalent 3-row pair yields a replayable, certifiable witness")
def test_witness_soundness():
    mats = fb(3)
    codes = {m: canonical_code(from_matrix(m), DIFFEO) for m in mats}
    for a in mats:
        for b in mats:
            if codes[a] != codes[b]:
                assert find_witness(a, b) is None
                continue
            witness = find_witness(a, b)
            assert witness is not None
            assert replay(a, witness) == b
            certificate = certify_diffeo(a, b, witness)
            assert certificate.row_signs
