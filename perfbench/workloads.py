"""The benchmark's four workloads.

Each workload hands out rounds of operations.  An operation's ``run`` is
the part that is timed: the calls a user of the library or the command
line makes.  Its ``check`` runs afterwards, untimed, and returns the reason
the output is wrong, or None.  Rounds are built from ``(seed, round)``
alone, so a seed fixes every input whatever the number of rounds a run
reaches; ``classify`` and ``oracle`` are full enumerations and ignore the
seed.

Load is closed-loop: one process, one operation at a time, and the command
line's ``--jobs`` stays at its default of 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Callable

from fanobott import cli, cohomology, fan, forest, matrix, ops

import gen

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Every module whose bindings the tracer swaps.
MODULES = [matrix, forest, ops, fan, cohomology, cli]


@dataclass
class Op:
    """One timed operation: ``items`` units of work, checked afterwards."""

    name: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], str | None]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main(argv)`` in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def record_code(tracer, result) -> None:
    tracer.distinct.setdefault(result.mode, set()).add(result.code)


def record_neighbors(tracer, result) -> None:
    tracer.counts["ops.neighbors.out"] += len(result)


class Workload:
    """Defaults shared by the workloads.

    ``min_rounds`` rounds always run; ``tail_q`` is the latency percentile
    reported as the tail (None where no percentile keeps ten samples beyond
    it); ``trace_targets`` maps the library functions traced to an optional
    result hook; ``props`` counts properties of the inputs and outputs
    checked.
    """

    min_rounds = 1
    tail_q: int | None = None
    trace_targets: dict = {}

    def __init__(self, seed: int, workdir: Path):
        self.props: Counter = Counter()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace_extras(self) -> None:
        """Counts the traced run takes outside the timed operations."""


class Golden(Workload):
    """Commands whose whole stdout is pinned by a recorded sha256 digest.

    The digests were recorded from the library before any optimisation;
    the first output line must also carry the recorded class counts.
    """

    golden_key = ""
    dim = 0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        data = json.loads((HERE / "golden.json").read_text())
        self.commands = list(data[self.golden_key].values())

    def ops(self, k: int) -> list[Op]:
        return [
            Op("cli.main", matrix.count_matrices(self.dim),
               lambda argv=g["argv"]: run_cli(argv),
               lambda result, g=g: self._check(g, result))
            for g in self.commands
        ]

    def _check(self, golden: dict, result: tuple[int, str]) -> str | None:
        rc, out = result
        self.props["cli.stdout_bytes"] += len(out.encode())
        if rc != 0:
            return f"exit code {rc}"
        if json.loads(out.splitlines()[0]) != golden["head"]:
            return f"first line {out.splitlines()[0]!r}"
        if hashlib.sha256(out.encode()).hexdigest() != golden["sha256"]:
            return "stdout differs from the recorded digest"
        return None


class Classify(Golden):
    """``classify -d 7`` in the variety and diffeo modes."""

    golden_key = "classify"
    dim = 7
    trace_targets = {
        matrix.enumerate_matrices: None,
        matrix.to_phi_sigma: None,
        forest.from_matrix: None,
        forest.canonical_code: record_code,
    }


class Oracle(Golden):
    """``oracle -d 5``: the move-graph search against the diffeo codes.

    One round is one command, so the traced run covers one ``oracle``
    command, and every ``ops.neighbors`` counter (calls, out, busy time,
    tried, admissible) counts the work of that one command.
    """

    golden_key = "oracle"
    dim = 5
    trace_targets = Classify.trace_targets | {
        ops.bfs_closure_classes: None,
        ops.neighbors: record_neighbors,
    }

    def trace_extras(self) -> None:
        """Conjugate every matrix by every permutation once and count the
        admissible results, the share of ``neighbors``' work that is kept."""
        for a in matrix.enumerate_matrices(self.dim):
            for perm in permutations(range(1, self.dim + 1)):
                self.props["ops.neighbors.tried"] += 1
                try:
                    matrix.validate(ops.conjugate(a, perm))
                except matrix.InvalidMatrixError:
                    continue
                self.props["ops.neighbors.admissible"] += 1


# One round of queries: (d, deep, related) per pair, half of them deep.
# Every size has one unrelated partner of each kind.  The equivalent pairs
# are weighted so that the median falls in the middle of the deep d=16
# pairs and the 90th percentile among the deep d=32 pairs, away from the
# jumps in cost between sizes and kinds.  The two d=64 pairs still take
# most of a round's time.
QUERY_ROUND = [(d, deep, False) for d in (8, 16, 32, 64) for deep in (False, True)]
for _d, _uniform, _deep in ((8, 6, 2), (16, 4, 8), (32, 9, 9), (64, 1, 1)):
    QUERY_ROUND += [(_d, False, True)] * _uniform + [(_d, True, True)] * _deep


class Queries(Workload):
    """Single-tower and single-pair library queries at d in {8, 16, 32, 64}."""

    min_rounds = 3
    tail_q = 90
    trace_targets = {
        matrix.to_phi_sigma: None,
        forest.from_matrix: None,
        forest.canonical_code: record_code,
        cohomology.enumerate_sve: None,
        cohomology.peel_signature: None,
        ops.find_witness: None,
        ops.replay: None,
        ops.witness_from_json: None,
        fan.certify_diffeo: None,
    }

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.seed = seed
        self.rounds = [self._round(k) for k in range(self.min_rounds)]

    def _round(self, k: int) -> list[tuple]:
        rng = random.Random(f"queries:{self.seed}:{k}")
        pairs = []
        for d, deep, related in QUERY_ROUND:
            a = gen.random_tower(rng, d, deep)
            b = gen.equivalent_partner(rng, a) if related else gen.random_tower(rng, d, deep)
            pairs.append((a, b, deep, related))
        rng.shuffle(pairs)
        return pairs

    def ops(self, k: int) -> list[Op]:
        pairs = self.rounds[k] if k < len(self.rounds) else self._round(k)
        return [
            Op("queries.pair", 1,
               lambda a=a, b=b: self._query(a, b),
               lambda result, a=a, b=b, deep=deep, related=related:
                   self._check(a, b, deep, related, result))
            for a, b, deep, related in pairs
        ]

    @staticmethod
    def _query(a: matrix.FanoBottMatrix, b: matrix.FanoBottMatrix) -> tuple:
        t = forest.from_matrix(a)
        codes = [forest.canonical_code(t, mode) for mode in forest.MODES]
        inventory = cohomology.enumerate_sve(a)
        peel = cohomology.peel_signature(a)
        witness = ops.find_witness(a, b)
        if witness is not None:
            witness = ops.witness_from_json(json.loads(json.dumps(witness.to_json())))
            fan.certify_diffeo(a, b, witness)
        return t, codes, inventory, peel, witness

    def _check(self, a, b, deep: bool, related: bool, result: tuple) -> str | None:
        t, codes, inventory, peel, witness = result
        d = a.dim
        self.props[f"queries.pairs.d{d}"] += 1
        self.props["queries.deep"] += deep
        self.props["queries.unrelated"] += not related
        self.props["ops.find_witness.none"] += witness is None
        if witness is not None:
            self.props["ops.find_witness.steps"] += len(witness.steps)
        if [c.mode for c in codes] != list(forest.MODES):
            return "codes come back in the wrong modes"
        if related and witness is None:
            return "no witness for a pair built equivalent"
        codes_differ = codes[2] != forest.canonical_code(forest.from_matrix(b), forest.DIFFEO)
        if (witness is None) != codes_differ:
            return "find_witness disagrees with the diffeo codes"
        if witness is not None and ops.replay(a, witness) != b:
            return "replay of the witness misses the target"
        if not all(cohomology.is_sve(a, v) for v in inventory.vectors(d)):
            return "an inventory vector is not square-vanishing"
        if inventory.maximal_basis_number != len(forest.leaves(t)):
            return "maximal_basis_number differs from the number of leaves"
        if sum(peel) != d:
            return f"peel signature sums to {sum(peel)}, not {d}"
        return None


def spawn(args: list[str]) -> tuple[int, bytes, int]:
    """Exit code, stdout and peak RSS in KiB of one child process.

    The child runs from the repository root with ``src`` on its path.
    ``os.wait4`` reaps it, which gives its own resource usage.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, *args], cwd=HERE.parent, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Cold(Workload):
    """Fresh ``python -m fanobott.cli`` processes on small inputs."""

    min_rounds = 4
    tail_q = 75

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.seed = seed
        self.workdir = workdir
        self.child_rss_kb = 0
        self.rounds = [self._round(k) for k in range(self.min_rounds)]

    def _write(self, name: str, data: object) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    def _round(self, k: int) -> list[tuple[list[str], tuple[int, str]]]:
        """Twelve commands on fresh inputs, each with its in-process result."""
        rng = random.Random(f"cold:{self.seed}:{k}")
        d = rng.randint(3, 8)
        a = gen.random_tower(rng, d, rng.random() < 0.5)
        b = gen.equivalent_partner(rng, a)
        c = gen.equivalent_partner(rng, a) if rng.random() < 0.5 else gen.random_tower(rng, d, False)
        bad = [list(row) for row in a.rows]
        i = rng.randrange(1, d)
        if rng.random() < 0.5:
            bad[i][rng.randrange(i)] = 1
        else:
            bad[i - 1][rng.randrange(i, d)] = 2
        fa = self._write(f"r{k}-a.json", a.to_json())
        fb = self._write(f"r{k}-b.json", b.to_json())
        fc = self._write(f"r{k}-c.json", c.to_json())
        fw = self._write(f"r{k}-w.json", ops.find_witness(a, b).to_json())
        fbad = self._write(f"r{k}-bad.json", bad)
        commands = [
            ["validate", fa],
            ["validate", fbad],
            *(["canon", fa, "--mode", mode] for mode in forest.MODES),
            ["equiv", fa, fc, "--mode", rng.choice(forest.MODES)],
            ["witness", fa, fb],
            ["certify", fa, fb, fw],
            ["sve", fa],
            ["peel", fa],
            ["forest-dot", fa],
            ["enumerate", "-d", str(rng.randint(1, 9)), "--count"],
        ]
        rng.shuffle(commands)
        results = [(argv, run_cli(argv)) for argv in commands]
        if any(argv == ["validate", fbad] and rc != 1 for argv, (rc, _) in results):
            raise RuntimeError(f"validate accepts the corrupted matrix {bad}")
        return results

    def ops(self, k: int) -> list[Op]:
        commands = self.rounds[k] if k < len(self.rounds) else self._round(k)
        return [
            Op("cli.process", 1,
               lambda argv=argv: spawn(["-m", "fanobott.cli", *argv]),
               lambda result, argv=argv, expected=expected: self._check(argv, expected, result))
            for argv, expected in commands
        ]

    def _check(self, argv: list[str], expected: tuple[int, str],
               result: tuple[int, bytes, int]) -> str | None:
        rc, out, rss_kb = result
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        if (rc, out.decode()) != expected:
            return f"{argv[0]}: exit {rc} and stdout differ from the in-process result"
        return None

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024


WORKLOADS = {"classify": Classify, "oracle": Oracle, "queries": Queries, "cold": Cold}
