"""Tests of the benchmark's own helpers."""

from __future__ import annotations

import random
import statistics

import pytest

from fanobott import forest, matrix, ops

import gen
import run
from spans import Tracer


@pytest.mark.parametrize("d", [1, 2, 5, 8, 16, 33])
@pytest.mark.parametrize("deep", [False, True])
def test_generated_towers_validate(d, deep):
    rng = random.Random(d)
    for _ in range(20):
        a = gen.random_tower(rng, d, deep)
        assert matrix.validate(a.rows) == a


def test_deep_towers_have_the_chain_share():
    a = gen.random_tower(random.Random(3), 41, True)
    chained = sum(phi == i + 1 for i, phi in enumerate(matrix.to_phi_sigma(a).phi, start=1))
    assert chained >= round(gen.CHAIN_SHARE * 40)


def test_same_seed_gives_same_towers():
    first = [gen.random_tower(random.Random(7), 12, deep) for deep in (False, True)]
    second = [gen.random_tower(random.Random(7), 12, deep) for deep in (False, True)]
    assert first == second


@pytest.mark.parametrize("d", [2, 6, 16, 40])
def test_partners_share_the_diffeo_code(d):
    rng = random.Random(d)
    for deep in (False, True):
        for _ in range(10):
            a = gen.random_tower(rng, d, deep)
            b = gen.equivalent_partner(rng, a)
            assert matrix.validate(b.rows) == b
            assert (forest.canonical_code(forest.from_matrix(a), forest.DIFFEO)
                    == forest.canonical_code(forest.from_matrix(b), forest.DIFFEO))


def test_relabeling_keeps_children_below_parents():
    rng = random.Random(0)
    a = gen.random_tower(rng, 20, False)
    pi = gen.admissible_relabeling(rng, a)
    assert sorted(pi) == list(range(1, 21))
    matrix.validate(ops.conjugate(a, pi))


def test_percentile_returns_the_named_percentile():
    values = list(range(101))
    random.Random(1).shuffle(values)
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 75) == 75
    assert run.percentile(values, 90) == 90
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == statistics.median([1.0, 2.0, 3.0, 4.0])


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(40)), 75) == pytest.approx(29.25)
    assert run.tail([3.0, 9.0, 4.0, 5.0, 1.0], None) == 5.0
    with pytest.raises(ValueError):
        run.tail(list(range(99)), 90)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_excludes_child_spans():
    def inner():
        return 1

    def outer():
        return inner_traced() + 1

    tracer = Tracer("t", clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]))
    inner_traced = tracer.wrap(inner, "m.inner")
    outer_traced = tracer.wrap(outer, "m.outer")
    with tracer.span("root"):
        assert outer_traced() == 2
    inner_traced()  # outside any span: not recorded
    assert tracer.busy_s("m.outer") == 3.0
    assert tracer.self_s("m.outer") == 2.0
    assert tracer.busy_s("root") == 10.0
    assert tracer.self_s("root") == 7.0
    assert tracer.calls("m.inner") == 1
    assert [s[3] for s in tracer.raw] == ["m.inner", "m.outer", "root"]
    assert tracer.raw[0][1] == tracer.raw[1][0]


def test_patched_restores_every_binding():
    tracer = Tracer("t")
    original = forest.from_matrix
    with tracer.patched([forest, ops], {forest.from_matrix: None}):
        assert forest.from_matrix is not original
        assert ops.from_matrix is forest.from_matrix
        with tracer.span("root"):
            forest.from_matrix(matrix.validate([[0]]))
    assert forest.from_matrix is original and ops.from_matrix is original
    assert tracer.calls("forest.from_matrix") == 1


def test_traced_generator_counts_items():
    tracer = Tracer("t")
    with tracer.patched([matrix], {matrix.enumerate_matrices: None}):
        with tracer.span("root"):
            assert len(list(matrix.enumerate_matrices(4))) == 105
    assert tracer.counts["matrix.enumerate_matrices.items"] == 105
    assert tracer.calls("matrix.enumerate_matrices") == 106
