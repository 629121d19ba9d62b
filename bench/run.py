"""limbsys benchmark: three workloads, host-normalised timings, traced layers.

Run from the repository root:

    python3 bench/run.py --workload circle-demo --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout and driven in one
process on one thread.  Set-up (import, input generation, warm-up) is timed
on its own; then the workload's fixed op list is repeated in whole passes
until ``--seconds`` have elapsed and at least MIN_OPS ops have run.  Every
op is checked outside its timed
region and followed by ``gc.collect()``.  With ``--trace 0`` the last line
of output reports the end-to-end metrics; with ``--trace 1`` each op runs
once untraced and once traced and the last line reports per-layer metrics.
The line before it holds raw wall times, the reference kernel's spread and
the deterministic counters.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from kernel import HostClock  # bench/ is sys.path[0]
from spans import NullTracer, Tracer, self_times, wrapped_cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPS = 5
SETUP_KERNELS = 5  # kernel runs on each side of a one-off set-up step
# op_tail_ms is this percentile.  A run keeps going until it holds at least
# MIN_OPS samples, so at least ten lie beyond it; it stays fixed when a
# faster program completes more passes, so commits compare the same tail.
TAIL_PERCENTILE = 90
MIN_OPS = 100


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("circle-demo", "exact-oracle", "forest-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tail(values):
    """(TAIL_PERCENTILE-th percentile, samples above it)."""
    ordered = sorted(values)
    k = math.ceil(len(ordered) * TAIL_PERCENTILE / 100) - 1
    return ordered[k], len(ordered) - 1 - k


def _digest():
    """Identifies the code measured, so stored counters are compared only
    against runs of the same program and benchmark."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("limbsys/*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _same_as_stored(workload, seed, counters):
    """Record the per-pass counters for (workload, seed, code); False when an
    earlier run of the same code and seed stored different ones."""
    store = WORKDIR / "counters" / f"{workload}-{seed}-{_digest()}.json"
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.exists():
        return json.loads(store.read_text()) == counters
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(counters, sort_keys=True))
    os.replace(tmp, store)
    return True


class Run:
    """Op samples and counters of one measured run."""

    def __init__(self):
        self.untraced = []  # (normalised s, wall s) per op
        self.traced = []
        self.scale = {}  # op id of a traced execution -> its normalisation factor
        self.attempted = 0
        self.failures = []
        self.pass_counters = []


def _execute(op, clock, tracer, run, samples, counts):
    result, wall, scale = clock.timed(op.run, tracer)
    samples.append((wall * scale, wall))
    run.attempted += 1
    try:
        errors, op_counts = op.check(result)
    except Exception as exc:  # a check that crashes is a failed op, not a broken run
        errors, op_counts = [f"check raised {type(exc).__name__}: {exc}"], {}
    if errors:
        run.failures.append(f"{op.label}: {'; '.join(errors)}")
    if counts is not None:
        counts.update(op_counts)
    del result
    gc.collect()
    return scale


def _measure(ops, clock, seconds, traced, cli_module):
    run = Run()
    tracer = Tracer() if traced else None
    untraced = NullTracer()
    start = time.perf_counter()
    pass_no = 0
    while len(run.untraced) < MIN_OPS or time.perf_counter() - start < seconds:
        counts = Counter()
        for index, op in enumerate(ops):
            op_id = (pass_no, index)
            _execute(op, clock, untraced, run, run.untraced, counts)
            if traced:
                tracer.op_id = op_id
                with wrapped_cli(cli_module, tracer):
                    run.scale[op_id] = _execute(op, clock, tracer, run, run.traced, None)
        run.pass_counters.append(dict(sorted(counts.items())))
        pass_no += 1
    return run, tracer


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.glob("limbsys/*.py"))


def _layer_metrics(run, tracer, counters, passes, import_ms, kernel_ms):
    durations = {}
    for name, start, end, _, op_id in tracer.spans:
        durations.setdefault(name, []).append((end - start) * run.scale[op_id] * 1e3)

    def median_ms(name):
        return statistics.median(durations[name]) if name in durations else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    solve_ms = sum(durations.get("transport.solve", ()))
    traced_ms = sum(s for s, _ in run.traced) * 1e3
    cli_self = [
        dt * run.scale[tracer.spans[i][4]] * 1e3 for i, dt in self_times(tracer.spans, "cli.main")
    ]
    return {
        "transport.solve.ms": median_ms("transport.solve"),
        "transport.solve.share": ratio(solve_ms, traced_ms),
        "transport.solve.pivots": counters.get("pivots", 0),
        "transport.solve.us_per_pivot": ratio(solve_ms * 1e3, counters.get("pivots", 0) * passes),
        "transport.enumerate_optimal_vertices.ms": median_ms("transport.enumerate_optimal_vertices"),
        "transport.enumerate_optimal_vertices.share": ratio(
            sum(durations.get("transport.enumerate_optimal_vertices", ())), traced_ms
        ),
        "transport.enumerate_optimal_vertices.vertices": counters.get("vertices", 0),
        "transport.enumerate_optimal_vertices.refused": counters.get("refused", 0),
        "transport.zero_set.cells_per_support_cell": ratio(
            counters.get("zero_cells", 0), counters.get("support_cells", 0)
        ),
        "circle.subtwist_check.ms": median_ms("circle.subtwist_check"),
        "extremality.is_extremal.ms": median_ms("extremality.is_extremal"),
        "extremality.is_extremal.cycle_k": ratio(counters.get("cycle_k", 0), counters.get("witnesses", 0)),
        "extremality.dl_rank_test.ms": median_ms("extremality.dl_rank_test"),
        "limbs.decompose.ms": median_ms("limbs.decompose"),
        "limbs.decompose.limbs": counters.get("limbs", 0),
        "limbs.reconstruct.ms": median_ms("limbs.reconstruct"),
        "limbs.two_limb_check.ms": median_ms("limbs.two_limb_check"),
        "io.load.ms": median_ms("io.load"),
        "io.write_json.ms": median_ms("io.write_json"),
        "io.bytes_read": counters.get("bytes_read", 0),
        "io.bytes_written": counters.get("bytes_written", 0),
        "cli.main.ms": median_ms("cli.main"),
        "cli.main.self_ms": statistics.median(cli_self) if cli_self else 0.0,
        "import.limbsys_ms": import_ms,
        "ref_kernel.ms": statistics.median(kernel_ms),
        "ref_kernel.min_ms": min(kernel_ms),
        "ref_kernel.max_ms": max(kernel_ms),
        "trace.overhead": ratio(
            statistics.median(s for s, _ in run.traced), statistics.median(s for s, _ in run.untraced)
        ),
        "src.lines": _src_lines(),
    }


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "limbsys" / "__init__.py").is_file():
        print(f"error: no limbsys source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    # One thread: numpy (imported by limbsys) must not start a BLAS thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    clock = HostClock()
    limbsys, import_wall, import_scale = clock.timed(
        importlib.import_module, "limbsys", kernels=SETUP_KERNELS
    )
    if Path(limbsys.__file__).resolve().parent != SRC / "limbsys":
        print(f"error: imported limbsys from {limbsys.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads  # noqa: E402  (imports limbsys, so it comes after the timed import)

    build = workloads.WORKLOADS[args.workload]
    workdir = WORKDIR / args.workload

    def set_up():
        ops, warm = build(random.Random(f"{args.workload}:{args.seed}"), str(workdir))
        for op in warm:
            op.check(op.run(NullTracer()))
        return ops

    setup_norm, setup_wall = [], []
    for _ in range(SETUP_REPS):
        ops, wall, scale = clock.timed(set_up, kernels=SETUP_KERNELS)
        setup_norm.append(wall * scale)
        setup_wall.append(wall)
        gc.collect()

    run, tracer = _measure(ops, clock, args.seconds, bool(args.trace), limbsys.cli)

    counters = run.pass_counters[0]
    deterministic = all(c == counters for c in run.pass_counters)
    deterministic = _same_as_stored(args.workload, args.seed, counters) and deterministic
    passes = len(run.pass_counters)

    norm_ms = [s * 1e3 for s, _ in run.untraced]
    wall_ms = [w * 1e3 for _, w in run.untraced]
    tail_ms, beyond = _tail(norm_ms)
    kernel_ms = [k * 1e3 for k in clock.kernel_s]
    kq = statistics.quantiles(kernel_ms, n=4)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "ops_per_pass": len(ops),
        "tail": {"percentile": TAIL_PERCENTILE, "samples": len(norm_ms), "beyond": beyond},
        "raw_wall": {
            "op_p50_ms": statistics.median(wall_ms),
            "op_tail_ms": _tail(wall_ms)[0],
            "ops_per_s": len(wall_ms) / (sum(wall_ms) / 1e3),
            "setup_s": import_wall + statistics.median(setup_wall),
        },
        "ref_kernel_ms": {"median": kq[1], "q1": kq[0], "q3": kq[2], "min": min(kernel_ms),
                          "max": max(kernel_ms), "count": len(kernel_ms)},
        "counters_per_pass": counters,
        "deterministic": deterministic,
        "failures": run.failures[:5],
    }
    if args.trace:
        values = _layer_metrics(run, tracer, counters, passes, import_wall * import_scale * 1e3, kernel_ms)
        (WORKDIR / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"ops": [op.label for op in ops], "spans": tracer.spans})
        )
    else:
        values = {
            "op_p50_ms": statistics.median(norm_ms),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(norm_ms) / (sum(norm_ms) / 1e3),
            "setup_s": import_wall * import_scale + statistics.median(setup_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    # BENCHMARK.json names the metrics and their units; every one must be measured.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    correct = not run.failures and deterministic
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": len(run.failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
