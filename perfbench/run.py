"""Benchmark of the fanobott library and its command line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each exists):
``classify``, ``oracle``, ``queries`` and ``cold``.  The seed fixes the
generated inputs of ``queries`` and ``cold``.  A run times whole rounds of
operations, at least the workload's minimum and then as many more as fit
in ``--seconds``, checks every output, and prints one JSON object as the
last line of stdout: ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:

* ``setup_s``: wall time of this process's import of the library and the
  benchmark's modules, plus the median of three builds of the run's inputs
  and expected outputs (golden digests, generated towers, written files);
* ``peak_rss_mb``: peak RSS of this process, or for ``cold`` of the largest
  command-line process;
* ``work_per_s``: work items per second of timed operations, the median
  over rounds: labelled matrices covered by ``classify`` and ``oracle``,
  pairs answered by ``queries``, processes run by ``cold``;
* ``latency_ms.p50`` and ``latency_ms.tail``: per operation (a command, a
  pair query, a process).  The tail is the 90th percentile on ``queries``
  and the 75th on ``cold``, the highest with ten samples beyond it; with
  two to ten commands per run, ``classify`` and ``oracle`` have no such
  percentile and report the interpolated 75th.

With ``--trace 1`` the minimum rounds run once untraced and once traced,
and the metrics are the per-layer ones of BENCHMARK.json, every time and
count covering the traced rounds; the spans are written to
``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_BEYOND_TAIL = 10

# Spans whose time and calls are reported per layer.  The first ones wrap
# library functions; cli.main, queries.pair and cli.process are the root
# spans the benchmark opens around each operation.
LAYERS = [
    "matrix.enumerate_matrices",
    "matrix.to_phi_sigma",
    "forest.from_matrix",
    "forest.canonical_code",
    "ops.bfs_closure_classes",
    "ops.neighbors",
    "ops.find_witness",
    "ops.replay",
    "ops.witness_from_json",
    "fan.certify_diffeo",
    "cohomology.enumerate_sve",
    "cohomology.peel_signature",
    "cli.main",
    "queries.pair",
    "cli.process",
]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail(values: list[float], q: int | None) -> float:
    """The q-th percentile, which must keep ten samples beyond it.

    q is None for workloads of a few long commands, where no percentile
    keeps ten beyond; their tail is the 75th percentile by interpolation,
    which one slow command moves less than it moves the maximum.
    """
    if q is None:
        return percentile(values, 75)
    if len(values) * (100 - q) / 100 < MIN_BEYOND_TAIL:
        raise ValueError(f"{len(values)} samples leave fewer than "
                         f"{MIN_BEYOND_TAIL} beyond the {q}th percentile")
    return percentile(values, q)


@dataclass
class Phase:
    """Timed operations of one phase of a run."""

    samples: list[float] = field(default_factory=list)
    round_rates: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def busy(self) -> float:
        return sum(self.samples)


def run_phase(wl, *, rounds: int | None = None, seconds: float = 0.0,
              tracer=None) -> Phase:
    """Run ``rounds`` rounds, or the minimum and then as many as fit."""
    phase = Phase()
    start = time.perf_counter()
    k = 0
    while True:
        if rounds is not None:
            if k >= rounds:
                break
        elif k >= wl.min_rounds:
            elapsed = time.perf_counter() - start
            if elapsed * (k + 1) / k > seconds:
                break
        round_items, round_busy = 0, 0.0
        for op in wl.ops(k):
            phase.attempted += 1
            try:
                with tracer.span(op.name) if tracer else nullcontext():
                    t0 = time.perf_counter()
                    result = op.run()
                    elapsed_op = time.perf_counter() - t0
                reason = op.check(result)
            except Exception as exc:  # a failed operation must not stop the run
                reason = f"raised {exc!r}"
            if reason is None:
                phase.samples.append(elapsed_op)
                round_items += op.items
                round_busy += elapsed_op
            else:
                phase.failed += 1
                print(f"perfbench: {op.name} in round {k}: {reason}", file=sys.stderr)
        if round_busy:
            phase.round_rates.append(round_items / round_busy)
        phase.items += round_items
        k += 1
    return phase


def median_spawn_s(workloads, args: list[str], repeats: int) -> float:
    """Median wall time, from spawn to exit, of a child that must succeed."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rc, _, _ = workloads.spawn(args)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"{args} exited with {rc}")
    return statistics.median(times)


def end_to_end(workloads, wl, args, setup_s: float) -> tuple[list[Phase], dict]:
    phase = run_phase(wl, seconds=args.seconds)
    if not phase.samples:
        raise RuntimeError("no operation succeeded")
    return [phase], {
        "setup_s": setup_s,
        "peak_rss_mb": wl.peak_rss_mb(),
        "work_per_s": statistics.median(phase.round_rates),
        "latency_ms.p50": statistics.median(phase.samples) * 1e3,
        "latency_ms.tail": tail(phase.samples, wl.tail_q) * 1e3,
    }


def per_layer(workloads, wl, args) -> tuple[list[Phase], dict]:
    from spans import Tracer
    import fanobott

    untraced = run_phase(wl, rounds=wl.min_rounds)
    wl.props.clear()
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
    with tracer.patched([fanobott, *workloads.MODULES], wl.trace_targets):
        traced = run_phase(wl, rounds=wl.min_rounds, tracer=tracer)
    wl.trace_extras()
    start_s = median_spawn_s(workloads, ["-c", "pass"], IMPORT_REPEATS)
    import_s = median_spawn_s(workloads, ["-c", "import fanobott.cli"], IMPORT_REPEATS)

    counts = tracer.counts + wl.props
    m: dict[str, float] = {}
    for name in LAYERS:
        m[f"{name}.busy_s"] = tracer.busy_s(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
        m[f"{name}.calls"] = tracer.calls(name)
    m["matrix.enumerate_matrices.items"] = counts["matrix.enumerate_matrices.items"]
    for mode in ("rooted", "variety", "diffeo"):
        m[f"forest.canonical_code.distinct.{mode}"] = len(tracer.distinct.get(mode, ()))
    m["forest.canonical_code.distinct"] = sum(len(v) for v in tracer.distinct.values())
    m["cli.group_and_print.busy_s"] = tracer.self_s("cli.main")
    m["cli.stdout_bytes"] = counts["cli.stdout_bytes"]
    m["ops.neighbors.out"] = counts["ops.neighbors.out"]
    m["ops.neighbors.tried"] = counts["ops.neighbors.tried"]
    m["ops.neighbors.admissible"] = counts["ops.neighbors.admissible"]
    m["ops.neighbors.admissible_ratio"] = (
        counts["ops.neighbors.admissible"] / counts["ops.neighbors.tried"]
        if counts["ops.neighbors.tried"] else 0.0)
    m["ops.find_witness.none"] = counts["ops.find_witness.none"]
    m["ops.find_witness.steps"] = counts["ops.find_witness.steps"]
    m["fan.certify_diffeo.failed"] = counts["fan.certify_diffeo.failed"]
    pairs = sum(counts[f"queries.pairs.d{d}"] for d in (8, 16, 32, 64))
    for d in (8, 16, 32, 64):
        m[f"queries.pairs.d{d}"] = counts[f"queries.pairs.d{d}"]
    m["queries.deep_share"] = counts["queries.deep"] / pairs if pairs else 0.0
    m["queries.unrelated_share"] = counts["queries.unrelated"] / pairs if pairs else 0.0
    m["python.start_ms"] = start_s * 1e3
    m["cli.import_ms"] = (import_s - start_s) * 1e3
    m["trace.overhead_ratio"] = traced.busy / untraced.busy - 1 if untraced.busy else 0.0
    m["trace.spans"] = sum(v[0] for v in tracer.aggregate.values())
    m["workload.operations"] = traced.attempted
    m["workload.items"] = traced.items

    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "metrics": m})
    return [untraced, traced], m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["classify", "oracle", "queries", "cold"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fanobott" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    import_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        if args.trace:
            phases, values = per_layer(workloads, wl, args)
        else:
            phases, values = end_to_end(workloads, wl, args, setup_s)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"{args.workload}: {attempted} operations in "
          f"{sum(len(p.round_rates) for p in phases)} rounds, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
