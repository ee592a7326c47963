"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 perfbench/run.py --workload graph500 --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run (see
``layers.py``).  The last line of standard output is the result::

    {"correct": true, "attempted": 128, "failed": 0, "metrics": {...}}

The line before it is the run's record: workload, seed, host fingerprint
and sample counts.  The benchmark imports the library from ``src/`` next
to this directory and exits with status 2 when it is missing.
"""

from __future__ import annotations

import os

# One process, one thread: pin the BLAS pools before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "teps": "edges/s",
}

PER_LAYER = {
    "generators.rmat_edges_s": "s",
    "generators.edges": "count",
    "csr.from_edges_s": "s",
    "csr.directed_edges": "count",
    "csr.nbytes": "bytes",
    "hybrid.bfs_s": "s",
    "hybrid.pre_level_s": "s",
    "hybrid.td_level_s": "s",
    "hybrid.bu_level_s": "s",
    "hybrid.td_levels": "count",
    "hybrid.bu_levels": "count",
    "hybrid.edges_examined": "count",
    "hybrid.examined_per_traversed": "ratio",
    "validate.check_bfs_s": "s",
    "csr.edge_list_s": "s",
    "validate.failures": "count",
    "result.traversed_edges_s": "s",
    "profiler.profile_bfs_s": "s",
    "profiler.levels": "count",
    "training.corpus_s": "s",
    "predictor.fit_s": "s",
    "predictor.predict_mn_s": "s",
    "predictor.calls": "count",
    "planner.cross_plan_s": "s",
    "arch.machine_run_s": "s",
    "arch.sim_transfer_s": "s",
    "cross.sim_gteps_hmean": "GTEPS",
    "bench.traced_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.op_ms.p80": "ms",
    "bench.maxrss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("graph500", "cross"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=int, default=16,
        help="R-MAT scale of the workload graph (smaller for smoke tests)",
    )
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    """Processor count, CPU model and interpreter/NumPy versions."""
    import numpy as np

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_rounds(workload, tally, seconds: float, tracer=None):
    """Closed loop of rounds for ``seconds``, at least ``min_rounds``.

    With a ``tracer``, odd rounds are traced and even rounds are not, so
    the two can be compared within one run, and every round reuses round
    0's inputs so traced counts repeat exactly.  Returns round walls and
    operation times, each split into untraced and traced.
    """
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    ops: dict[str, list[float]] = {"untraced": [], "traced": []}
    start = perf_counter()
    done = 0
    least = workload.min_rounds if tracer is None else 2
    while done < least or perf_counter() - start < seconds:
        before = len(tally.round_seconds)
        before_ops = len(tally.op_seconds)
        if tracer is None:
            workload.round(tally, done)
        elif done % 2 == 0:
            workload.round(tally, 0)
        else:
            workload.tracer = tracer
            with tracer:
                workload.round(tally, 0)
            workload.tracer = None
        kind = "traced" if tracer is not None and done % 2 else "untraced"
        walls[kind] += tally.round_seconds[before:]
        ops[kind] += tally.op_seconds[before_ops:]
        done += 1
    return walls, ops


def timed_run(workload, seconds: float):
    """The untraced run: end-to-end metrics."""
    from workloads import Tally

    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    run_rounds(workload, tally, seconds)
    if not tally.round_seconds:
        raise SystemExit("perfbench: no round completed; nothing to report")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(tally.round_seconds),
        "op_ms.p50": 1e3 * statistics.median(tally.op_seconds),
        # Per round, traversed edges over the seconds of the calls that
        # traversed them.  Not the Graph 500 harmonic mean: a root in a
        # small component has a near-zero TEPS, and one such root cut a
        # scale-16 run's harmonic mean from about 70 M to 1.2 M.
        "teps": statistics.median(tally.round_teps),
    }
    samples = {
        "setups": len(setups),
        "rounds": len(tally.round_seconds),
        "ops": len(tally.op_seconds),
    }
    return tally, metrics, samples


def traced_run(workload, seconds: float):
    """The traced run: one traced set-up, then untraced and traced rounds
    in turn.  Layer values are the set-up's plus one traced round's."""
    import numpy as np
    from layers import TIME_LAYERS, LayerTracer
    from workloads import Tally

    tally = Tally()
    tracer = LayerTracer()
    workload.tracer = tracer
    with tracer, tracer.region():
        workload.setup()
    workload.tracer = None
    setup_part = tracer.take()
    walls, ops = run_rounds(workload, tally, seconds, tracer)
    if not walls["traced"] or not walls["untraced"]:
        raise SystemExit("perfbench: no traced round completed; nothing to report")
    rounds = len(walls["traced"])
    round_part = tracer.take()
    values = {
        name: setup_part.get(name, 0.0) + round_part.get(name, 0.0) / rounds
        for name in set(setup_part) | set(round_part)
    }
    values["hybrid.bfs_s"] = sum(
        values[f"hybrid.{part}_s"] for part in ("pre_level", "td_level", "bu_level")
    )
    traversed = round_part.get("hybrid.traversed_edges", 0.0)
    values["hybrid.examined_per_traversed"] = (
        round_part.get("hybrid.edges_examined", 0.0) / traversed if traversed else 0.0
    )
    values["bench.unattributed_s"] = values["bench.traced_s"] - sum(
        values[name] for name in TIME_LAYERS
    )
    values["bench.trace_overhead"] = statistics.median(
        walls["traced"]
    ) / statistics.median(walls["untraced"])
    if tally.sim_gteps:
        values["cross.sim_gteps_hmean"] = statistics.harmonic_mean(tally.sim_gteps)
    # Too seed-bound for an end-to-end bound: graph500's per-root BFS
    # times spread from 6 to 35 ms, so a few hundred roots leave its 80th
    # percentile about 14% of sampling error.
    values["bench.op_ms.p80"] = 1e3 * float(np.percentile(ops["untraced"], 80))
    # Peak RSS follows the allocator's history (151-170 MB across runs of
    # one scale-16 graph500 seed), too loose for an end-to-end bound.
    values["bench.maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: values.get(name, 0.0) for name in PER_LAYER}
    samples = {
        "traced_rounds": rounds,
        "untraced_rounds": len(walls["untraced"]),
        "ops": len(tally.op_seconds),
    }
    return tally, metrics, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, scale=args.scale)
    run = traced_run if args.trace else timed_run
    units = PER_LAYER if args.trace else END_TO_END
    tally, metrics, samples = run(workload, args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "samples": samples,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
