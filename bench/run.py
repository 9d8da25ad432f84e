"""pcedge benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {predict,train,postprocess} [--seed 7]
                         [--seconds 15] [--trace 0|1] [--tiny]

One caller runs the workload's operation back to back (a closed loop) for
`--seconds`, at least once, single-threaded: threads=1 and
OPENBLAS_NUM_THREADS=1. Every output is checked outside the timed region.
Operation times are wall-clock times scaled to a reference machine speed
measured while each operation runs (see calibrate.py); the raw times are
reported too. With `--trace 0` the last stdout line is a JSON object
holding the end-to-end metrics; with `--trace 1` the loop runs again with
the program's public functions wrapped (see tracer.py) and the JSON holds
per-layer metrics. Earlier stdout lines report every metric by name and
unit. Results and spans are also written under bench/out/.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from calibrate import REFERENCE_S, Calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 3
THREADS = 1

# Workload -> (end-to-end throughput name, its unit, quality metric name).
HEADLINES = {
    "predict": ("predict_pts_per_s", "points/s", "predict_fscore"),
    "train": ("train_patches_per_s", "patches/s", "train_val_fscore"),
    "postprocess": ("postprocess_pts_per_s", "points/s", "postprocess_fscore"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(HEADLINES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size inputs (seconds, not minutes)")
    return parser.parse_args(argv)


def _import_program():
    """Import pcedge from this checkout's src/, never from anywhere else."""
    if not (SRC / "pcedge" / "__init__.py").is_file():
        raise SystemExit(f"bench: no pcedge sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pcedge
    if Path(pcedge.__file__).resolve().parent != SRC / "pcedge":
        raise SystemExit(f"bench: imported pcedge from {pcedge.__file__}, not from {SRC}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def _environment(args, state):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "src_sha256": hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted((SRC / "pcedge").glob("*.py")))).hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "threads": THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "points": state.points,
        "patches": state.patches,
    }


@dataclass
class Op:
    seconds: float       # wall time of the operation, calibration passes excluded
    calibration: float   # typical calibration pass time while it ran
    quality: float
    passes: list[float]  # every calibration pass timed while it ran

    @property
    def scaled(self) -> float:
        """Wall time at the reference machine speed."""
        return self.seconds * REFERENCE_S / self.calibration


def measure(workload, state, seconds, calibration, tracer=None):
    """Closed loop: run operations back to back until `seconds` have passed.

    Calibration passes sample the machine's speed while each operation
    runs; its output is checked after the clock stops. Returns the good
    operations and the failure message of each failed one.
    """
    ops, failures = [], []
    deadline = time.perf_counter() + seconds
    while not ops and not failures or time.perf_counter() < deadline:
        try:
            with tracer.operation(workload.name) if tracer else nullcontext():
                with calibration.sampling(tracer.span if tracer else None):
                    t0 = time.perf_counter()
                    out = workload.run(state)
                    elapsed = time.perf_counter() - t0
            problems, quality = workload.check(state, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append("; ".join(problems))
            continue
        own = elapsed - sum(calibration.passes)
        ops.append(Op(own, calibration.typical_pass(), quality, calibration.passes))
    return ops, failures


def _speed(ops) -> float:
    """Machine speed relative to the reference during these operations."""
    return REFERENCE_S / statistics.median(op.calibration for op in ops)


def _timing_summary(ops):
    times = [op.seconds for op in ops]
    n = len(times)
    summary = (f"raw op_s median {statistics.median(times):.4f} s, max {max(times):.4f} s, n={n}, "
               f"machine speed {_speed(ops):.3f}")
    # The highest percentile reported is one with at least ten samples beyond it.
    pct = int(100 * (1 - 10 / n)) if n >= 20 else 0
    if pct <= 50:
        return summary + "; too few samples for a tail percentile"
    return summary + f"; p{pct} {statistics.quantiles(times, n=100)[pct - 1]:.4f} s"


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import tracer as tracing
    import workloads
    imported = time.perf_counter() - STARTED

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, args.tiny, OUT_DIR)
        setup_times.append(time.perf_counter() - t0)
    setup_s = imported + statistics.median(setup_times)

    calibration = Calibration()
    ops, failures = measure(workload, state, args.seconds, calibration)
    attempted = len(ops) + len(failures)
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        traced, traced_failures = measure(workload, state, args.seconds, calibration, tracer)
        attempted += len(traced) + len(traced_failures)
        failures += traced_failures
        tracer.write(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl")
    for failure in failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    if not ops or (args.trace and not traced):
        print("bench: no operation succeeded; no result", file=sys.stderr)
        return 1

    throughput, unit, quality_name = HEADLINES[args.workload]
    items_per_s = state.items / statistics.median(op.scaled for op in ops)
    quality = statistics.median(op.quality for op in ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = [
        (throughput, items_per_s, unit,
         f"at reference speed; raw {state.items / statistics.median(op.seconds for op in ops):.6g}; "
         + _timing_summary(ops)),
        (quality_name, quality, "ratio", "F-score, checked outside the timed region"),
        ("setup_s", setup_s, "s", f"imports {imported:.4f} s + median of {SETUP_REPS} set-ups "
                                  + ", ".join(f"{t:.4f}" for t in setup_times)),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process"),
        ("error_rate", len(failures) / attempted, "ratio", f"{len(failures)} failed of {attempted}"),
    ]
    if args.trace:
        # Layer times and rates are scaled to the reference speed like the
        # end-to-end ones, with the traced phase's median calibration.
        speed = _speed(traced)
        layers = {}
        for name, (value, u) in tracing.layer_metrics(tracer, len(traced)).items():
            layers[name] = (value * speed if u == "s" else value / speed if u.endswith("/s") else value, u)
        layers["trace_overhead"] = (statistics.median(op.scaled for op in traced)
                                    / statistics.median(op.scaled for op in ops) - 1.0, "ratio")
        layers["machine_speed"] = (speed, "ratio")
        metrics = {name: {"value": value, "unit": u} for name, (value, u) in layers.items()}
    else:
        metrics = {
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "fscore": {"value": quality, "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    env = _environment(args, state)
    print(f"# pcedge benchmark, closed loop, one caller: {json.dumps(env)}")
    for name, value, u, note in report:
        print(f"{name:<24} {value:>14.6g} {u:<10} {note}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name:<28} {entry['value']:>14.6g} {entry['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = dict(result, environment=env, ops=[asdict(op) for op in ops],
                  traced_ops=[asdict(op) for op in traced], setup_seconds=setup_times,
                  import_seconds=imported, failures=failures,
                  report={name: {"value": v, "unit": u, "note": n} for name, v, u, n in report})
    (OUT_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
