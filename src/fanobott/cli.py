"""Command-line surface for batch classification and verification.

Exit codes: 0 for success or an affirmative answer, 1 for a negative
answer (rejected matrix, inequivalent inputs, failed certificate, oracle
disagreement), 2 for usage or input errors and for any internal error,
which is reported on stderr without a traceback.  A failed certificate
also writes its stage, step and row as one JSON line to stderr.  Matrix
arguments accept a file path or inline JSON (anything starting with "["
or "{").

`classify` builds no matrix or forest per labelled matrix: one forward
pass over the row choices, a layer per vertex, keeps each state once,
with the smallest position in the enumeration stream that reaches it,
and ends with the smallest position of each forest code.  A state is a
flat tuple of small ints: the interned multisets of pending child tokens
and of root codes.  The representatives are the matrices at those
positions, decoded with one choice table and printed as compact JSON in
stream order, which is the first member of each class in the stream.
`oracle` runs the move-graph search (a union-find over flip cosets with
swap edges), reads each position's diffeo code id from the same layered
pass, and checks that class and code determine each other: as many
(class, code) pairs as classes and as codes.  No matrix, forest or code
is built per position.  Memory follows the states, the interned multisets
and the classes for `classify`, and a class and a code id per position
for `oracle`; nothing prints before the end, so errors leave stdout empty.

A process loads only the modules its command runs: `matrix` and `forest`
at import (the `--mode` choices come from `forest.MODES`), `ops` inside
`witness`, `certify` and `oracle`, `fan` inside `certify`, and
`cohomology` inside `sve` and `peel`.  `hashlib` waits for the first
digest, which only `witness` and `certify` take.  Each command is declared
once, in `_COMMANDS`, and a process builds only the parser of the command
it runs: 0.2-0.4 ms per build, against 1.3-2.2 ms for all eleven (timeit,
Python 3.11.7, shared 2-vCPU machine).  `--help`, no arguments and an
unknown command build all eleven, for the listing.
"""

from __future__ import annotations

import argparse
import json
import sys

from fanobott import forest
from fanobott.matrix import (
    FanoBottError,
    FanoBottMatrix,
    InvalidMatrixError,
    _matrices_at,
    count_matrices,
    enumerate_matrices,
    matrix_from_json,
)


def _compact(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _load_json(arg: str) -> object:
    if arg.lstrip().startswith(("[", "{")):
        return json.loads(arg)
    with open(arg) as f:
        return json.load(f)


def _load_matrix(arg: str) -> FanoBottMatrix:
    return matrix_from_json(_load_json(arg))


def _load_forest(arg: str) -> forest.SignedRootedForest:
    data = _load_json(arg)
    if isinstance(data, dict) and "parents" in data:
        return forest.forest_from_json(data)
    return forest.from_matrix(matrix_from_json(data))


def _matrix_arg(args: argparse.Namespace) -> str:
    if args.inline is None:
        if args.file is None:
            raise ValueError("provide FILE or --inline")
        return args.file
    if args.file is not None:
        raise ValueError("give FILE or --inline, not both")
    return args.inline


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        m = _load_matrix(_matrix_arg(args))
    except InvalidMatrixError as exc:
        print(_compact(exc.to_json()))
        return 1
    print(_compact({"dim": m.dim, "valid": True}))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.count:
        count = count_matrices(args.dim)
        try:
            text = str(count)
        except ValueError:  # over the int-to-str digit limit; Decimal has none
            from decimal import Decimal
            text = str(Decimal(count))
        print(text)
        return 0
    for m in enumerate_matrices(args.dim):
        print(m._compact_json())
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    first = forest._first_positions(args.dim, args.mode)
    print(_compact({"classes": len(first), "dim": args.dim, "mode": args.mode}))
    for m in _matrices_at(args.dim, sorted(first.values())):
        print(m._compact_json())
    return 0


def _cmd_canon(args: argparse.Namespace) -> int:
    t = _load_forest(_matrix_arg(args))
    print(forest.canonical_code(t, args.mode).code)
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    t1 = _load_forest(args.first)
    t2 = _load_forest(args.second)
    verdict = forest.equivalent(t1, t2, args.mode)
    print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    from fanobott import ops

    a = _load_matrix(args.first)
    b = _load_matrix(args.second)
    sequence = ops.find_witness(a, b)
    if sequence is None:
        print(_compact({"equivalent": False}))
        return 1
    print(_compact(sequence.to_json()))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from fanobott import fan, ops

    a = _load_matrix(args.first)
    b = _load_matrix(args.second)
    witness = ops.witness_from_json(_load_json(args.witness))
    try:
        certificate = fan.certify_diffeo(a, b, witness)
    except fan.CertificateError as exc:
        print(_compact({"certified": False, "reason": str(exc)}))
        print(_compact(exc.to_json()), file=sys.stderr)
        return 1
    print(_compact({"certified": True} | certificate.to_json()))
    return 0


def _cmd_sve(args: argparse.Namespace) -> int:
    from fanobott.cohomology import enumerate_sve

    m = _load_matrix(_matrix_arg(args))
    print(_compact(enumerate_sve(m).to_json()))
    return 0


def _cmd_peel(args: argparse.Namespace) -> int:
    from fanobott.cohomology import peel_signature

    t = _load_forest(_matrix_arg(args))
    print(_compact(list(peel_signature(t))))
    return 0


def _cmd_forest_dot(args: argparse.Namespace) -> int:
    t = _load_forest(_matrix_arg(args))
    sys.stdout.write(forest.render_dot(t))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from fanobott import ops

    roots = ops._closure_roots(args.dim)
    ids = forest._code_ids(args.dim, forest.DIFFEO)
    bfs_classes = len(set(roots))
    code_classes = len(set(ids))
    # The partitions agree exactly when each class has one code and no two
    # classes share a code: when there are as many (class, code) pairs as
    # classes and as codes.
    agree = len(set(zip(roots, ids))) == bfs_classes == code_classes
    print(_compact({
        "agree": agree,
        "bfs_classes": bfs_classes,
        "code_classes": code_classes,
        "dim": args.dim,
    }))
    return 0 if agree else 1


def _arg(*flags: str, **options: object) -> tuple[tuple[str, ...], dict]:
    return flags, options


_MATRIX = (_arg("file", nargs="?", help="path or inline JSON"),
           _arg("--inline", help="inline JSON entries, e.g. '[[0,1],[0,0]]'"))
_DIM = (_arg("-d", "--dim", type=int, required=True),)
_MODE = (_arg("--mode", choices=forest.MODES, required=True),)
_PAIR = (_arg("first"), _arg("second"))

# Each command once: its handler, help line and arguments, in listing order.
_COMMANDS = {
    "validate": (_cmd_validate, "check a matrix against the row templates", _MATRIX),
    "enumerate": (_cmd_enumerate, "stream every admissible matrix", _DIM + (
        _arg("--count", action="store_true", help="print only the count"),)),
    "classify": (_cmd_classify, "count canonical classes with representatives",
                 _DIM + _MODE),
    "canon": (_cmd_canon, "canonical code of one matrix or forest", _MATRIX + _MODE),
    "equiv": (_cmd_equiv, "decide equivalence of two inputs", _PAIR + _MODE),
    "witness": (_cmd_witness, "construct a replayable move sequence", _PAIR),
    "certify": (_cmd_certify, "verify a witness end to end",
                _PAIR + (_arg("witness", help="witness JSON (path or inline)"),)),
    "sve": (_cmd_sve, "square-vanishing element inventory", _MATRIX),
    "peel": (_cmd_peel, "leaf counts under repeated leaf cutting", _MATRIX),
    "forest-dot": (_cmd_forest_dot, "DOT rendering of the forest", _MATRIX),
    "oracle": (_cmd_oracle, "cross-check move reachability against codes", _DIM),
}


def _build_parser(names: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanobott",
        description="Classify Fano Bott towers through their matrices and forests.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # Usage lines and the invalid-choice check read every command name,
    # however few subparsers are built.
    subs.choices = tuple(_COMMANDS)
    for name in names:
        func, summary, arguments = _COMMANDS[name]
        sub = subs.add_parser(name, help=summary)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the named command's parser; otherwise all of them, since --help
    # lists every command's help line.
    names = argv[:1] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    args = _build_parser(names).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, FanoBottError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
