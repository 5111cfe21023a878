"""Exit codes and byte-stable outputs of the command-line surface."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import REFERENCE_6, relabel_topological, seven_vertex_pair
from fanobott import (
    DIFFEO,
    MODES,
    canonical_code,
    enumerate_matrices,
    forest,
    from_matrix,
    leaf_cut,
    make_forest,
    ops,
    validate,
)
from fanobott import cli as cli_module
from fanobott.cli import main
from test_forest import caterpillar_forest, path_forest

P2 = "[[0,1],[0,0]]"
P2_NEG = "[[0,-1],[0,0]]"
P2_ZERO = "[[0,0],[0,0]]"
GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())


def _compact(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def reference_classify(d, mode):
    """Stdout of `classify` by enumerate-then-deduplicate: a forest and a
    code per matrix, keeping the first matrix of the stream per code."""
    representatives = {}
    for m in enumerate_matrices(d):
        representatives.setdefault(canonical_code(from_matrix(m), mode).code, m)
    lines = [_compact({"classes": len(representatives), "dim": d, "mode": mode})]
    lines += [_compact(m.to_json()) for m in representatives.values()]
    return "\n".join(lines) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_accepts(self, capsys):
        code, out, _ = run(capsys, "validate", "--inline", P2)
        assert code == 0
        assert out == '{"dim":2,"valid":true}\n'

    def test_rejects_with_report(self, capsys):
        code, out, _ = run(capsys, "validate", "--inline", "[[0,1,1],[0,0,0],[0,0,0]]")
        assert code == 1
        report = json.loads(out)
        assert report["row"] == 1
        assert "violation" in report

    def test_reads_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 6, "entries": REFERENCE_6}))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert json.loads(out)["dim"] == 6


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "4", "--count")
        assert (code, out) == (0, "105\n")

    def test_count_past_the_int_to_str_digit_limit(self, capsys):
        # (2d-1)!! has 4914 digits at d = 1600, over Python's default limit
        # of 4300; Decimal reads the printed digits without that limit.
        code, out, err = run(capsys, "enumerate", "-d", "1600", "--count")
        assert (code, err) == (0, "")
        assert out.endswith("\n") and len(out) == 4915
        assert Decimal(out) == math.prod(range(1, 3200, 2))

    def test_stream_golden(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-d", "2")
        assert code == 0
        assert out == (
            '{"dim":2,"entries":[[0,0],[0,0]]}\n'
            '{"dim":2,"entries":[[0,1],[0,0]]}\n'
            '{"dim":2,"entries":[[0,-1],[0,0]]}\n'
        )


class TestClassify:
    def test_diffeo_d3_golden(self, capsys):
        code, out, _ = run(capsys, "classify", "-d", "3", "--mode", "diffeo")
        assert code == 0
        assert out == (
            '{"classes":4,"dim":3,"mode":"diffeo"}\n'
            '{"dim":3,"entries":[[0,0,0],[0,0,0],[0,0,0]]}\n'
            '{"dim":3,"entries":[[0,1,0],[0,0,0],[0,0,0]]}\n'
            '{"dim":3,"entries":[[0,1,0],[0,0,1],[0,0,0]]}\n'
            '{"dim":3,"entries":[[0,0,1],[0,0,1],[0,0,0]]}\n'
        )

    def test_output_is_stable(self, capsys):
        first = run(capsys, "classify", "-d", "4", "--mode", "variety")
        second = run(capsys, "classify", "-d", "4", "--mode", "variety")
        assert first == second

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_reference_loop(self, capsys, d, mode):
        assert run(capsys, "classify", "-d", str(d), "--mode", mode) == (
            0, reference_classify(d, mode), "")

    @pytest.mark.parametrize("mode", ["variety", "diffeo"])
    def test_d7_matches_golden_digest(self, capsys, mode):
        golden = GOLDEN["classify"][mode]
        code, out, _ = run(capsys, *golden["argv"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"]

    # d=8: the counts of enumerate-then-deduplicate.  Rooted forests on d
    # vertices are rooted trees on d+1 (OEIS A000081): 719 and 1842.
    @pytest.mark.parametrize("d, mode, classes", [
        (8, "rooted", 286), (8, "variety", 1105), (8, "diffeo", 639),
        (9, "rooted", 719), (10, "rooted", 1842),
    ])
    def test_class_counts_past_d7(self, capsys, d, mode, classes):
        code, out, _ = run(capsys, "classify", "-d", str(d), "--mode", mode)
        lines = out.splitlines()
        assert code == 0
        assert json.loads(lines[0]) == {"classes": classes, "dim": d, "mode": mode}
        assert len(set(lines[1:])) == classes

    def test_builds_no_forest_per_matrix(self, capsys, monkeypatch):
        expected = reference_classify(5, DIFFEO)

        def refuse(*args):
            raise AssertionError("classify built a forest or code per matrix")

        monkeypatch.setattr(forest, "from_matrix", refuse)
        monkeypatch.setattr(forest, "canonical_code", refuse)
        assert run(capsys, "classify", "-d", "5", "--mode", DIFFEO) == (
            0, expected, "")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_nonpositive_dimension_exits_2(self, capsys, d, mode):
        code, out, err = run(capsys, "classify", "-d", d, "--mode", mode)
        assert (code, out) == (2, "")
        assert err == "error: d must be at least 1\n"

    def test_memory_follows_the_classes(self, capsys):
        # The enumeration is streamed: only one representative per class
        # is held, never the 10,395 matrices of d = 6 or their codes.
        tracemalloc.start()
        try:
            code = main(["classify", "-d", "6", "--mode", "diffeo"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["classes"] == 71
        assert peak < 2_000_000


class TestCanonEquiv:
    def test_canon(self, capsys):
        code, out, _ = run(capsys, "canon", "--inline", P2, "--mode", "variety")
        assert (code, out) == (0, "(L+)\n")

    def test_equiv_positive(self, capsys):
        code, out, _ = run(capsys, "equiv", P2, P2_NEG, "--mode", "diffeo")
        assert (code, out) == (0, "true\n")

    def test_equiv_negative(self, capsys):
        code, out, _ = run(capsys, "equiv", P2, P2_ZERO, "--mode", "diffeo")
        assert (code, out) == (1, "false\n")

    def test_seven_vertex_modes(self, capsys):
        a, b = seven_vertex_pair()
        left = json.dumps(a.to_json()["entries"])
        right = json.dumps(b.to_json()["entries"])
        assert run(capsys, "equiv", left, right, "--mode", "variety")[0] == 1
        assert run(capsys, "equiv", left, right, "--mode", "diffeo")[0] == 0


    @pytest.mark.parametrize("forest", [
        path_forest(5000, ["+-"[v % 2] for v in range(2, 5001)]),
        caterpillar_forest(2500),
    ], ids=["path", "caterpillar"])
    def test_deep_forests(self, capsys, forest):
        left = json.dumps(forest.to_json())
        right = json.dumps(relabel_topological(forest)[0].to_json())
        for mode in MODES:
            code, out, _ = run(capsys, "canon", "--inline", left, "--mode", mode)
            assert (code, out) == (0, canonical_code(forest, mode).code + "\n")
            assert run(capsys, "equiv", left, right, "--mode", mode)[:2] == (
                0, "true\n")
        other = json.dumps(leaf_cut(forest, forest.size).to_json())
        assert run(capsys, "equiv", left, other, "--mode", DIFFEO)[:2] == (
            1, "false\n")


class TestWitnessCertify:
    def test_round_trip(self, capsys, tmp_path):
        a, b = seven_vertex_pair()
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        a_path.write_text(json.dumps(a.to_json()))
        b_path.write_text(json.dumps(b.to_json()))

        code, out, _ = run(capsys, "witness", str(a_path), str(b_path))
        assert code == 0
        witness_path = tmp_path / "w.json"
        witness_path.write_text(out)

        code, out, _ = run(capsys, "certify", str(a_path), str(b_path),
                           str(witness_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["flip_diagonals"] == [[1, 1, 1, -1, -1, -1, 1]]
        assert payload["row_signs"]["plus_rays"] == ["+", "+", "+", "-", "-", "-", "+"]

    def test_witness_inequivalent(self, capsys):
        code, out, _ = run(capsys, "witness", P2, P2_ZERO)
        assert code == 1
        assert json.loads(out) == {"equivalent": False}

    def test_certify_rejects_wrong_witness(self, capsys):
        witness = '{"steps":[{"op":"2","k":1}],"source_sha":"","target_sha":""}'
        code, out, err = run(capsys, "certify", P2, P2_ZERO, witness)
        assert code == 1
        assert json.loads(out)["certified"] is False
        assert err == '{"row":null,"stage":"target","step":null}\n'

    def test_certify_failure_reports_the_stage_on_stderr(self, capsys, tmp_path):
        a, b = seven_vertex_pair()
        witness = ops.find_witness(a, b)
        dropped = ops.OpSequence(witness.steps[1:], witness.source_sha,
                                 witness.target_sha)
        code, out, err = run(capsys, "certify", json.dumps(a.to_json()),
                             json.dumps(b.to_json()), json.dumps(dropped.to_json()))
        assert code == 1
        assert out == _compact({"certified": False, "reason": (
            "witness replay failed: step 2: target digest does not match the result")}) + "\n"
        assert err == '{"row":null,"stage":"replay","step":2}\n'


class TestReports:
    def test_sve(self, capsys):
        code, out, _ = run(capsys, "sve", "--inline", P2)
        assert code == 0
        assert out == ('{"g":[1],"g_prime":[{"p":1,"q":2,"sign":1}],'
                       '"h":[],"maximal_basis_number":1}\n')

    def test_peel(self, capsys):
        tree5 = ("[[0,1,0,0,0],[0,0,0,0,-1],[0,0,0,-1,1],"
                 "[0,0,0,0,1],[0,0,0,0,0]]")
        code, out, _ = run(capsys, "peel", "--inline", tree5)
        assert (code, out) == (0, "[2,2,1]\n")

    @pytest.mark.parametrize("forest, signature", [
        (path_forest(5000), [1] * 5000),
        (make_forest([0] + [1] * 4999, [""] + ["+"] * 4999), [4999, 1]),
    ], ids=["path", "star"])
    def test_peel_deep_forests(self, capsys, forest, signature):
        code, out, err = run(capsys, "peel", "--inline",
                             json.dumps(forest.to_json()))
        assert (code, json.loads(out), err) == (0, signature, "")

    def test_forest_dot_from_matrix(self, capsys):
        code, out, _ = run(capsys, "forest-dot", "--inline", P2)
        assert code == 0
        assert out == (
            "digraph forest {\n"
            "  rankdir=BT;\n"
            "  v1;\n"
            "  v2 [shape=doublecircle];\n"
            '  v1 -> v2 [label="+"];\n'
            "}\n"
        )

    def test_forest_dot_from_forest_json(self, capsys):
        code, out, _ = run(
            capsys, "forest-dot", "--inline",
            '{"size":2,"parents":[2,0],"signs":["+",""]}')
        assert code == 0
        assert 'v1 -> v2 [label="+"];' in out


class TestOracle:
    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_nonpositive_dimension_exits_2(self, capsys, d):
        code, out, err = run(capsys, "oracle", "-d", d)
        assert (code, out) == (2, "")
        assert err == "error: d must be at least 1\n"

    def test_d3_golden(self, capsys):
        code, out, _ = run(capsys, "oracle", "-d", "3")
        assert code == 0
        assert out == '{"agree":true,"bfs_classes":4,"code_classes":4,"dim":3}\n'

    def test_d4(self, capsys):
        code, out, _ = run(capsys, "oracle", "-d", "4")
        assert code == 0
        assert json.loads(out)["agree"] is True

    def test_d5_golden_digest(self, capsys):
        golden = GOLDEN["oracle"]["d5"]
        code, out, _ = run(capsys, *golden["argv"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"]

    def test_split_class_disagrees(self, capsys, monkeypatch):
        roots = ops._closure_roots(4)
        big = max(roots, key=roots.count)
        first, second, *_ = [i for i, r in enumerate(roots) if r == big]
        split = [second if r == big and i != first else r for i, r in enumerate(roots)]
        monkeypatch.setattr(ops, "_closure_roots", lambda d: split)
        code, out, _ = run(capsys, "oracle", "-d", "4")
        assert code == 1
        assert out == '{"agree":false,"bfs_classes":11,"code_classes":10,"dim":4}\n'

    def test_merged_classes_disagree(self, capsys, monkeypatch):
        roots = ops._closure_roots(4)
        first, second = sorted(set(roots))[:2]
        merged = [first if r == second else r for r in roots]
        monkeypatch.setattr(ops, "_closure_roots", lambda d: merged)
        code, out, _ = run(capsys, "oracle", "-d", "4")
        assert code == 1
        assert out == '{"agree":false,"bfs_classes":9,"code_classes":10,"dim":4}\n'

    def test_split_code_disagrees(self, capsys, monkeypatch):
        ids = forest._code_ids(4, DIFFEO)
        big = max(ids, key=ids.count)
        first = ids.index(big)
        split = [len(set(ids)) if t == big and i != first else t for i, t in enumerate(ids)]
        monkeypatch.setattr(forest, "_code_ids", lambda d, mode: split)
        code, out, _ = run(capsys, "oracle", "-d", "4")
        assert code == 1
        assert out == '{"agree":false,"bfs_classes":10,"code_classes":11,"dim":4}\n'

    def test_merged_codes_disagree(self, capsys, monkeypatch):
        ids = forest._code_ids(4, DIFFEO)
        merged = [0 if t == 1 else t for t in ids]
        monkeypatch.setattr(forest, "_code_ids", lambda d, mode: merged)
        code, out, _ = run(capsys, "oracle", "-d", "4")
        assert code == 1
        assert out == '{"agree":false,"bfs_classes":10,"code_classes":9,"dim":4}\n'

    def test_equal_counts_with_other_partitions_disagree(self, capsys, monkeypatch):
        # codes 0 and 1 merge and one position of code 2 leaves it: ten
        # classes on both sides, yet the partitions differ
        ids = forest._code_ids(4, DIFFEO)
        moved = ids.index(2)
        both = [len(set(ids)) if i == moved else 0 if t == 1 else t
                for i, t in enumerate(ids)]
        assert ids.count(2) > 1 and len(set(both)) == len(set(ids))
        monkeypatch.setattr(forest, "_code_ids", lambda d, mode: both)
        code, out, _ = run(capsys, "oracle", "-d", "4")
        assert code == 1
        assert out == '{"agree":false,"bfs_classes":10,"code_classes":10,"dim":4}\n'

    def test_builds_no_forest_or_code_per_position(self, capsys, monkeypatch):
        golden = GOLDEN["oracle"]["d5"]

        def refuse(*args):
            raise AssertionError("oracle built a forest or code per position")

        monkeypatch.setattr(forest, "_forest_of", refuse)
        monkeypatch.setattr(forest, "canonical_code", refuse)
        code, out, err = run(capsys, *golden["argv"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"]


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "canon", "--inline", "[[0,1],", "--mode",
                           "diffeo")
        assert code == 2
        assert err.startswith("error:")

    def test_invalid_matrix_for_non_validate_command(self, capsys):
        code, _, err = run(capsys, "sve", "--inline", "[[0,1,1],[0,0,0],[0,0,0]]")
        assert code == 2
        assert "row 1" in err

    def test_non_integer_entry_exits_2_without_traceback(self):
        result = subprocess.run(
            [sys.executable, "-m", "fanobott.cli", "validate", "--inline",
             "[[0,null],[0,0]]"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr

    def test_non_object_step_exits_2(self, capsys):
        code, _, err = run(capsys, "certify", P2, P2, '{"steps":[1]}')
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["1.7", "0.5", '"1"', "true"])
    def test_non_integer_entry_is_an_input_error(self, capsys, entry):
        code, out, err = run(capsys, "validate", "--inline",
                             f"[[0,{entry}],[0,0]]")
        assert (code, out) == (2, "")
        assert err.startswith("error: entry (1,2) = ")

    def test_non_integer_parent_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "canon", "--inline",
                             '{"parents":[2.9,0,0],"signs":["+","",""]}',
                             "--mode", "rooted")
        assert (code, out) == (2, "")
        assert err == "error: parent(1) = 2.9 is not an integer\n"

    @pytest.mark.parametrize("step, message", [
        ('{"op":"2","k":1.7}', "k = 1.7"),
        ('{"op":"2","k":true}', "k = True"),
        ('{"op":"3","k":1,"l":2.0}', "l = 2.0"),
        ('{"op":"p","perm":[1.0,2]}', "perm entry = 1.0"),
    ], ids=["k-float", "k-bool", "l-float", "perm-float"])
    def test_non_integer_step_field_is_an_input_error(self, capsys, step, message):
        code, out, err = run(capsys, "certify", P2, P2, f'{{"steps":[{step}]}}')
        assert (code, out) == (2, "")
        assert err == f"error: {message} is not an integer\n"

    @pytest.mark.parametrize("witness, message", [
        ('{"steps":[{"op":"3","k":1,"l":2}],"source_sha":5}',
         "source_sha = 5 is not a string"),
        ('{"steps":[{"op":"3","k":1,"l":2}],"source_sha":null}',
         "source_sha = None is not a string"),
        ('{"steps":[{"op":"3","k":1,"l":2}],"target_sha":["x"]}',
         "target_sha = ['x'] is not a string"),
        ('{"steps":5}', '"steps" must be a list'),
        ('{"steps":[{"op":"p"}]}', "step 'p' is missing 'perm'"),
        ('{"steps":[{"op":"2","l":1}]}', "step '2' is missing 'k'"),
        ('{"steps":[{"op":"3","k":1}]}', "step '3' is missing 'l'"),
        ('{"steps":[{"op":"p","perm":5}]}', '"perm" must be a list'),
        ('{"steps":[{"op":"p","perm":"21"}]}', '"perm" must be a list'),
        ('{"steps":[{"op":"p","perm":null}]}', '"perm" must be a list'),
    ], ids=["sha-int", "sha-null", "sha-list", "steps-int", "no-perm", "no-k",
            "no-l", "perm-int", "perm-str", "perm-null"])
    def test_malformed_witness_is_an_input_error(self, capsys, witness, message):
        code, out, err = run(capsys, "certify", P2, P2_NEG, witness)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("canon", "--inline", '{"size":2.9,"parents":[2,0],"signs":["+",""]}',
          "--mode", "rooted"), "size = 2.9"),
        (("validate", "--inline", '{"dim":true,"entries":[[0]]}'), "dim = True"),
    ], ids=["size-float", "dim-bool"])
    def test_non_integer_size_or_dim_is_an_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message} is not an integer\n"

    @pytest.mark.parametrize("argv", [
        ["validate"], ["canon", "--mode", "diffeo"], ["sve"], ["peel"], ["forest-dot"],
    ], ids=lambda argv: argv[0])
    def test_file_and_inline_together_is_an_input_error(self, capsys, tmp_path, argv):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 6, "entries": REFERENCE_6}))
        code, out, err = run(capsys, *argv, str(path), "--inline", P2)
        assert (code, out) == (2, "")
        assert err == "error: give FILE or --inline, not both\n"

    def test_deep_path_never_exits_1(self, capsys):
        n = 600
        t = make_forest(list(range(2, n + 1)) + [0], ["+"] * (n - 1) + [""])
        code, out, err = run(capsys, "canon", "--inline",
                             json.dumps(t.to_json()), "--mode", "diffeo")
        assert code == 0
        assert out == canonical_code(t, DIFFEO).code + "\n"
        assert err == ""

    CANON = ("canon", "--mode", "rooted", "--inline")

    @pytest.mark.parametrize("argv, message", [
        ((*CANON, '{"parents":[0],"signs":[]}'),
         "1 parents but 0 signs"),
        ((*CANON, '{"parents":[5],"signs":["+"]}'),
         "parent(1) = 5 out of range 0..1"),
        ((*CANON, '{"parents":[1],"signs":["+"]}'),
         "vertex 1 is its own parent"),
        ((*CANON, '{"parents":[0],"signs":["+"]}'),
         "sign(1) given for a root vertex"),
        ((*CANON, '{"parents":[2,0],"signs":["x",""]}'),
         "sign(1) = 'x' is not '+' or '-'"),
        ((*CANON, '{"parents":[0]}'),
         'forest object must carry "parents" and "signs"'),
        ((*CANON, '{"parents":0,"signs":[]}'),
         '"parents" and "signs" must be lists'),
        ((*CANON, '{"size":2,"parents":[0],"signs":[""]}'),
         '"size" does not match the number of parents'),
        (("validate", "--inline", '{"dim":1}'), 'matrix object must carry an "entries" key'),
        (("validate", "--inline", '{"entries":3}'), '"entries" must be a list of rows'),
        (("validate", "--inline", "[1,2]"), "every row must be a list of integers"),
        (("validate",), "provide FILE or --inline"),
        (("certify", P2, P2_NEG, '{"steps":[{"op":"9"}]}'), "unknown step tag '9'"),
        (("certify", P2, P2_NEG, "{}"), 'witness object must carry "steps"'),
    ], ids=["signs-short", "parent-range", "own-parent", "root-sign", "bad-sign",
            "no-signs", "parents-int", "size", "no-entries", "entries-int",
            "row-int", "no-matrix", "step-tag", "no-steps"])
    def test_malformed_input_is_an_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_non_matrix_json_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("3")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (2, "", "error: cannot read a matrix from int\n")

    def test_internal_error_exits_2_without_traceback(self, capsys, monkeypatch):
        def broken(args):
            raise KeyError("lost")

        _, summary, arguments = cli_module._COMMANDS["validate"]
        monkeypatch.setitem(cli_module._COMMANDS, "validate", (broken, summary, arguments))
        code, out, err = run(capsys, "validate", "--inline", P2)
        assert (code, out, err) == (2, "", "error: KeyError: 'lost'\n")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["equiv", P2, P2_NEG])  # --mode missing
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["classify", "-d", "3", "--mode", "diffeo", "--jobs", "2"],
        ["oracle", "-d", "3", "--jobs", "2"],
    ], ids=["classify", "oracle"])
    def test_jobs_is_a_usage_error(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # Only the command's parser is built, yet the top-level usage line
        # names every command.
        assert captured.err == (
            f"usage: fanobott [-h]\n                {CHOICES}\n                ...\n"
            "fanobott: error: unrecognized arguments: --jobs 2\n")


COMMAND_HELP = {
    "validate": "check a matrix against the row templates",
    "enumerate": "stream every admissible matrix",
    "classify": "count canonical classes with representatives",
    "canon": "canonical code of one matrix or forest",
    "equiv": "decide equivalence of two inputs",
    "witness": "construct a replayable move sequence",
    "certify": "verify a witness end to end",
    "sve": "square-vanishing element inventory",
    "peel": "leaf counts under repeated leaf cutting",
    "forest-dot": "DOT rendering of the forest",
    "oracle": "cross-check move reachability against codes",
}
CHOICES = "{" + ",".join(COMMAND_HELP) + "}"


def exit_code(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    return err.value.code


class TestParser:
    @pytest.mark.parametrize("argv, built", [
        (["enumerate", "-d", "3", "--count"], 1),
        (["--help"], 11),
        (["bogus"], 11),
    ], ids=["command", "help", "unknown"])
    def test_builds_only_the_named_parser(self, monkeypatch, capsys, argv, built):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting_add_parser(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
        try:
            main(argv)
        except SystemExit:
            pass
        assert len(calls) == built

    def test_help_lists_every_command(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        assert exit_code(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: fanobott [-h]\n                {CHOICES}\n")
        for name, summary in COMMAND_HELP.items():
            assert re.search(rf"^    {re.escape(name)} +{re.escape(summary)}$", out, re.M)

    @pytest.mark.parametrize("name", COMMAND_HELP)
    def test_command_help(self, capsys, name):
        assert exit_code([name, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: fanobott {name}")

    def test_unknown_command_names_every_choice(self, capsys):
        assert exit_code(["bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        choices = ", ".join(map(repr, COMMAND_HELP))
        assert captured.err.endswith(
            f"invalid choice: 'bogus' (choose from {choices})\n")


def test_import_leaves_numpy_out():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, fanobott.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (0, "False\n")


def _cli_imports(*argv):
    """Exit code, stdout and the modules imported by one fresh CLI process."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fanobott.cli", *argv],
        capture_output=True, text=True,
    )
    modules = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
               if line.startswith("import time:")}
    return result.returncode, result.stdout, modules


def test_import_loads_no_submodule():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, fanobott; print(sorted(m for m in sys.modules"
         " if m.startswith('fanobott.')))"],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n")


def test_validate_process_loads_only_what_it_runs():
    rc, out, modules = _cli_imports("validate", "--inline", P2)
    assert (rc, out) == (0, '{"dim":2,"valid":true}\n')
    unused = {"dataclasses", "hashlib", "fanobott.ops", "fanobott.fan",
              "fanobott.cohomology"}
    assert modules & unused == set()
    assert {"fanobott.matrix", "fanobott.forest"} <= modules


def test_certify_process_end_to_end():
    witness = ops.find_witness(validate(json.loads(P2)), validate(json.loads(P2_NEG)))
    rc, out, modules = _cli_imports("certify", P2, P2_NEG, json.dumps(witness.to_json()))
    assert rc == 0
    assert json.loads(out)["certified"] is True
    assert {"fanobott.ops", "fanobott.fan", "hashlib"} <= modules
    assert "dataclasses" not in modules


def test_import_starts_no_process_pool_machinery():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, fanobott.cli; print(sorted(m for m in sys.modules"
         " if m.startswith(('concurrent', 'multiprocessing'))))"],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout) == (0, "[]\n")


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "fanobott.cli", "enumerate", "-d", "3",
         "--count"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "15\n"
