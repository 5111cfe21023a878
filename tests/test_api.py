"""The lazy public namespace and the Record base of the data classes."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys

import pytest

import fanobott
from fanobott import cohomology, fan, forest, matrix, ops

# The public names as the package listed them before the namespace became lazy,
# less the brute-force SVE scan, which is a test oracle in conftest.py.
PUBLIC_NAMES = [
    "CanonicalCode", "Certificate", "CertificateError", "ColumnFlipStep",
    "ConjugateStep", "DIFFEO", "DimensionMismatchError", "FanoBottError",
    "FanoBottMatrix", "InvalidMatrixError", "InvalidPhiError", "LabelOrderError",
    "MODES", "MatchReport", "NotALeafColumnError", "NotALeafError",
    "OpPreconditionError", "OpSequence", "OpStep", "PhiSigma", "ROOTED",
    "RayMatrix", "RootEdgeFlipStep", "ShapeMismatchError", "SignedRootedForest",
    "StepFailedError", "SveInventory", "VARIETY", "bfs_closure_classes",
    "canonical_code", "certify_diffeo", "children_map", "conjugate",
    "count_matrices", "cut_rank_gf2", "enumerate_matrices", "enumerate_sve",
    "equivalent", "find_witness", "flip_column", "flip_root_edge",
    "forest_from_json", "from_matrix", "from_phi_sigma", "is_sve", "leaf_cut",
    "leaves", "make_forest", "matrix_from_json", "peel_signature", "phi_sigma",
    "quotient_by_leaf", "rays", "relabel", "render_dot", "replay",
    "rows_match_up_to_sign", "square_reduce", "to_matrix", "to_phi_sigma",
    "validate", "witness_from_json",
]

# Public names whose values do not record the module that defines them.
DEFINED_WITHOUT_MODULE = {
    "DIFFEO": "forest", "MODES": "forest", "ROOTED": "forest", "VARIETY": "forest",
    "OpStep": "ops",
}

RECORDS = [
    matrix.FanoBottMatrix, matrix.PhiSigma,
    forest.SignedRootedForest, forest.CanonicalCode,
    fan.RayMatrix, fan.MatchReport, fan.Certificate,
    ops.ConjugateStep, ops.ColumnFlipStep, ops.RootEdgeFlipStep, ops.OpSequence,
    cohomology.SveInventory,
]


class TestNamespace:
    def test_all_is_unchanged(self):
        assert len(PUBLIC_NAMES) == 62
        assert fanobott.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_the_defining_modules_object(self, name):
        value = getattr(fanobott, name)
        module = getattr(value, "__module__", None)
        if module is None or not module.startswith("fanobott."):
            module = f"fanobott.{DEFINED_WITHOUT_MODULE[name]}"
        assert value is vars(sys.modules[module])[name]

    def test_star_import(self):
        namespace: dict = {}
        exec("from fanobott import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
        assert namespace["validate"] is matrix.validate

    def test_dir_lists_names_and_submodules(self):
        listed = dir(fanobott)
        assert set(PUBLIC_NAMES) <= set(listed)
        assert {"cli", "cohomology", "fan", "forest", "matrix", "ops"} <= set(listed)
        assert listed == sorted(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fanobott.no_such_name
        assert not hasattr(fanobott, "dataclass")

    def test_bare_import_reaches_submodules(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import fanobott\n"
             "print(fanobott.ops.flip_column.__module__)\n"
             "print(fanobott.witness_from_json is fanobott.ops.witness_from_json)\n"],
            capture_output=True, text=True,
        )
        assert (result.returncode, result.stdout) == (0, "fanobott.ops\nTrue\n")


def _twin(cls):
    """A frozen dataclass with the record's name and fields."""
    specs = [(name, object) for name in cls.__annotations__]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _values(cls, tag: str) -> tuple:
    return tuple((tag, i, (i,) * i) for i in range(len(cls.__annotations__)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecordAgainstFrozenDataclass:
    def test_equality_hash_and_repr(self, cls):
        twin = _twin(cls)
        a, b = _values(cls, "a"), _values(cls, "b")
        for values in (a, b):
            assert hash(cls(*values)) == hash(twin(*values))
            assert repr(cls(*values)) == repr(twin(*values))
            assert cls.__match_args__ == twin.__match_args__
        assert (cls(*a) == cls(*a), cls(*a) == cls(*b), cls(*a) != cls(*b)) \
            == (twin(*a) == twin(*a), twin(*a) == twin(*b), twin(*a) != twin(*b))
        assert cls(*a) != twin(*a)
        assert cls(*a).__eq__(twin(*a)) is NotImplemented

    def test_positional_and_keyword_construction(self, cls):
        twin = _twin(cls)
        values = _values(cls, "a")
        kwargs = dict(zip(cls.__annotations__, values))
        assert cls(**kwargs) == cls(*values)
        assert repr(cls(**kwargs)) == repr(twin(**kwargs))
        head = len(values) // 2
        mixed = dict(list(kwargs.items())[head:])
        assert cls(*values[:head], **mixed) == cls(*values)
        assert hash(cls(**kwargs)) == hash(twin(*values))

    def test_signature_lists_the_fields(self, cls):
        assert list(inspect.signature(cls).parameters) == list(cls.__annotations__)
        init = cls.__init__
        assert (init.__qualname__, init.__module__) == (f"{cls.__qualname__}.__init__",
                                                        cls.__module__)

    def test_bad_fields_raise_type_error(self, cls):
        twin = _twin(cls)
        values = _values(cls, "a")
        first = next(iter(cls.__annotations__))
        calls = [
            lambda c: c(*values, unknown=1),
            lambda c: c(*values, values[0]),
            lambda c: c(*values, **{first: values[0]}),
            lambda c: c(),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call(twin)
            with pytest.raises(TypeError):
                call(cls)

    def test_assignment_and_deletion_raise(self, cls):
        record, twin = cls(*_values(cls, "a")), _twin(cls)(*_values(cls, "a"))
        for obj in (record, twin):
            for name in (*cls.__annotations__, "other"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, next(iter(cls.__annotations__)))
        assert record == cls(*_values(cls, "a"))

    def test_pickle_round_trip(self, cls):
        record = cls(*_values(cls, "a"))
        assert pickle.loads(pickle.dumps(record)) == record


def test_parsed_and_digested_matrix_copies_and_pickles():
    a = matrix.validate([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    ps, sha = matrix.to_phi_sigma(a), a.digest()
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and repr(twin) == repr(a) and hash(twin) == hash(a)
        assert matrix.to_phi_sigma(twin) == ps
        assert twin.digest() == sha


def test_records_of_different_classes_are_unequal():
    rows = ((0, 1), (0, 0))
    pairs = [
        (ops.ColumnFlipStep(3), ops.ConjugateStep(3)),
        (matrix.FanoBottMatrix(rows), fan.RayMatrix(rows)),
        (ops.RootEdgeFlipStep(1, 2), forest.CanonicalCode(1, 2)),
    ]
    for x, y in pairs:
        assert x != y and y != x
        assert not x == y
        assert hash(x) == hash(y)
        assert len({x, y}) == 2


def test_matrix_hash_is_the_dataclass_hash():
    m = matrix.validate([[0, 1], [0, 0]])
    assert hash(m) == hash((m.rows,))
