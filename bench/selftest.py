"""Self-test of the benchmark: every metric prints, every output check fires.

    python3 bench/selftest.py

Runs each workload on tiny inputs, untraced and traced, and asserts that the
result line carries exactly the metrics BENCHMARK.json declares, with their
units, and that the report lines name every metric. Then it corrupts
outputs (a flipped label, a truncated checkpoint, a wrong segment id, ...)
and asserts that the matching check reports a failure, and that a failed
check counts toward `failed` in a run. Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run

run._import_program()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from pcedge import net  # noqa: E402
from pcedge.errors import CorruptCheckpoint, PcedgeError  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORT_NAMES = ("setup_s", "peak_rss_mb", "error_rate")


def check_runs() -> None:
    for workload in sorted(run.HEADLINES):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170, check=False)
            assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            assert got == want, f"{workload} trace={trace}: metrics {got} != declared {want}"
            throughput, unit, quality = run.HEADLINES[workload]
            report = {line.split()[0]: line.split()[2] for line in lines[1:6]}
            for name in (throughput, quality) + REPORT_NAMES:
                assert name in report, f"{workload}: report lacks {name}"
            assert report[throughput] == unit, report
            print(f"ok   {workload:<12} trace={trace}: {len(got)} metrics with units, report names "
                  f"{throughput}, {quality}, {', '.join(REPORT_NAMES)}")


def fires(failures: list[str], what: str) -> None:
    assert failures, f"check did not fire on {what}"
    print(f"ok   fires on {what}: {failures[0]}")


def check_predict_checks() -> None:
    ref = np.load(wl.REFERENCE_PROBS)
    assert wl.check_predictions(ref, ref > 0.5, ref) == []
    flipped = ref > 0.5
    flipped[0] = ~flipped[0]
    fires(wl.check_predictions(ref, flipped, ref), "a flipped label")
    shifted = ref.copy()
    shifted[1] += 1e-6
    fires(wl.check_predictions(shifted, shifted > 0.5, ref), "a probability 1e-6 off the reference")
    bad = ref.copy()
    bad[2] = np.nan
    fires(wl.check_predictions(bad, bad > 0.5), "a NaN probability")
    bad[2] = 1.5
    fires(wl.check_predictions(bad, bad > 0.5), "a probability above 1")

    out = run.OUT_DIR
    out.mkdir(exist_ok=True)
    raw = wl.CHECKPOINT.read_bytes()
    truncated = out / "selftest_truncated.ckpt"
    truncated.write_bytes(raw[:-100])
    try:
        wl.load_params(truncated)
    except CorruptCheckpoint as exc:
        print(f"ok   fires on a truncated checkpoint: {exc}")
    else:
        raise AssertionError("truncated checkpoint loaded")
    other = out / "selftest_other.ckpt"
    net.save_checkpoint(net.init_params(16, seed=1), other)
    try:
        wl.load_params(other)
    except PcedgeError as exc:
        print(f"ok   fires on a valid checkpoint that is not the fixed one: {exc}")
    else:
        raise AssertionError("foreign checkpoint passed the hash check")


def check_train_checks() -> None:
    params = net.init_params(16, seed=0)
    row = {"epoch": 1, "val_fscore": 0.8}
    assert wl.check_training(params, [row]) == []
    fires(wl.check_training(params, [row, dict(row, epoch=2)]), "a log with two rows")
    params.tensors[sorted(params.tensors)[0]][0] = np.inf
    fires(wl.check_training(params, [row]), "a non-finite parameter")


def check_postprocess_checks() -> None:
    workload = wl.Postprocess()
    state = workload.inputs(3, wl.DENSITY["postprocess"][1], run.OUT_DIR / "selftest_post.xyz")
    loaded, report, seg = workload.run(state)
    assert workload.check(state, (loaded, report, seg))[0] == []

    ids = seg.segment_ids.copy()
    ids[np.nonzero(ids == 0)[0][0]] = 1
    wrong = dataclasses.replace(seg, segment_ids=ids)
    fires(workload.check(state, (loaded, report, wrong))[0], "a wrong segment id")
    sizes = dataclasses.replace(seg, sizes=seg.sizes[:-1])
    fires(workload.check(state, (loaded, report, sizes))[0], "a missing segment size")
    miscounted = dataclasses.replace(report)
    object.__setattr__(miscounted, "fn", report.fn + 1)
    fires(workload.check(state, (loaded, miscounted, seg))[0], "an fn count one too high")
    labels = loaded.labels.copy()
    labels[0] = 1 - labels[0]
    misread = dataclasses.replace(loaded, labels=labels)
    fires(workload.check(state, (misread, report, seg))[0], "a label misread from the input file")
    lines = state.out_path.read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5].rsplit(" ", 1)[0] + " 99"
    state.out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    fires(workload.check(state, (loaded, report, seg))[0], "a wrong segment id in the written file")

    # A failed check counts toward `failed`, and the run reports correct=false.
    corrupt = wl.Postprocess()
    corrupt.check = lambda s, out: (["corrupted on purpose"], 0.0)
    ops, failures = run.measure(corrupt, state, 0.0, run.Calibration())
    assert not ops and failures == ["corrupted on purpose"], (ops, failures)
    print("ok   a failed check is counted as a failed operation")


def main() -> int:
    check_predict_checks()
    check_train_checks()
    check_postprocess_checks()
    check_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
