"""Classification calculus for Fano Bott towers.

Admissible upper triangular matrices, their signed rooted forests,
the three equivalence moves with replayable witnesses, degree-two ring
invariants, and ray-matrix diffeomorphism certificates.

The namespace is lazy: ``import fanobott`` loads no submodule, and a
public name or a submodule attribute imports its module on first use.
"""

import sys

__version__ = "0.1.0"

_SUBMODULES = ("cli", "cohomology", "fan", "forest", "matrix", "ops")

# Each public name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys([
        "NotALeafColumnError", "SveInventory", "cut_rank_gf2", "enumerate_sve",
        "is_sve", "peel_signature", "quotient_by_leaf", "square_reduce",
    ], "cohomology"),
    **dict.fromkeys([
        "Certificate", "CertificateError", "MatchReport", "RayMatrix",
        "ShapeMismatchError", "certify_diffeo", "rays", "rows_match_up_to_sign",
    ], "fan"),
    **dict.fromkeys([
        "DIFFEO", "MODES", "ROOTED", "VARIETY", "CanonicalCode", "LabelOrderError",
        "NotALeafError", "SignedRootedForest", "canonical_code", "children_map",
        "equivalent", "forest_from_json", "from_matrix", "leaf_cut", "leaves",
        "make_forest", "relabel", "render_dot", "to_matrix",
    ], "forest"),
    **dict.fromkeys([
        "FanoBottError", "FanoBottMatrix", "InvalidMatrixError", "InvalidPhiError",
        "PhiSigma", "count_matrices", "enumerate_matrices", "from_phi_sigma",
        "matrix_from_json", "phi_sigma", "to_phi_sigma", "validate",
    ], "matrix"),
    **dict.fromkeys([
        "ColumnFlipStep", "ConjugateStep", "DimensionMismatchError",
        "OpPreconditionError", "OpSequence", "OpStep", "RootEdgeFlipStep",
        "StepFailedError", "bfs_closure_classes", "conjugate", "find_witness",
        "flip_column", "flip_root_edge", "replay", "witness_from_json",
    ], "ops"),
}

__all__ = sorted(_EXPORTS)


def _module(name: str) -> object:
    # __import__ rather than importlib.import_module: only the former shows
    # in `python -X importtime`, which the footprint checks read.
    path = f"{__name__}.{name}"
    __import__(path)
    return sys.modules[path]


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        return _module(name)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
