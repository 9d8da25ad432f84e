"""The names and call shapes of `src/` that the benchmark in `bench/` relies on.

The tracer wraps pcedge functions by module attribute and counts work from
their positional arguments, and the workloads call the library with fixed
keywords. A rename or signature change there would fail every benchmark
operation; these tests fail first. So would a model change that moves one
`predict` probability on the reference cloud past the benchmark's tolerance.
"""

import ast
import importlib.util
import inspect
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pcedge import io, net, trainer
from pcedge.cloud import SpatialIndex
from pcedge.synth import ShapeSpec, generate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_calls(path, owner):
    """(function name, positional count, keyword names) of each `owner.fn(...)` call in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.func.attr, len(node.args), [kw.arg for kw in node.keywords])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == owner]


def test_every_wrapped_attribute_is_callable():
    tracer = _load_bench("tracer")
    assert tracer.WRAPPED
    for owner, attr, span, _ in tracer.WRAPPED:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


# Each argument the tracer counts a call's work from, as (owner, function,
# position in args, parameter name).
COUNTED = [
    (trainer, "extract_patches", 2, "targets"),
    (net, "forward_batch", 0, "dvecs"),
    (net, "backward", 2, "d_e"),
    (SpatialIndex, "query_many", 1, "queries"),  # position 0 is self
    (io, "load_cloud", 0, "path"),
    (io, "save_cloud", 1, "path"),
]


def test_every_counted_argument_is_listed():
    tracer = _load_bench("tracer")
    counted = {(owner, attr, count.__closure__[0].cell_contents)
               for owner, attr, _, count in tracer.WRAPPED if count is not None and count.__closure__}
    assert counted == {(owner, attr, pos) for owner, attr, pos, _ in COUNTED}


@pytest.mark.parametrize("owner, attr, pos, name", COUNTED, ids=[c[1] for c in COUNTED])
def test_counted_argument_keeps_its_position(owner, attr, pos, name):
    # The tracer counts rows, patches or file bytes from args[pos].
    params = list(inspect.signature(getattr(owner, attr)).parameters.values())
    assert params[pos].name == name
    assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_resaving_the_benchmark_checkpoint_reproduces_it(tmp_path):
    # Pins the checkpoint format the committed file was written in.
    committed = BENCH / "data" / "ref_k16_e5.ckpt"
    resaved = tmp_path / "resaved.ckpt"
    net.save_checkpoint(net.load_checkpoint(committed), resaved)
    assert resaved.read_bytes() == committed.read_bytes()


def test_validate_finite_exists():
    assert callable(net.ModelParameters.validate_finite)
    net.init_params(8, seed=0).validate_finite()


@pytest.mark.parametrize("fn", ["train", "predict"])
def test_workload_calls_bind_to_signatures(fn):
    calls = [c for c in _library_calls(BENCH / "workloads.py", "trainer") if c[0] == fn]
    assert calls, f"bench/workloads.py no longer calls trainer.{fn}"
    signature = inspect.signature(getattr(trainer, fn))
    for _, n_args, keywords in calls:
        assert "threads" in keywords
        signature.bind(*[None] * n_args, **dict.fromkeys(keywords))
    if fn == "predict":
        assert all("batch" in keywords for _, _, keywords in calls)


def test_predict_passes_the_benchmark_reference_gate():
    # The predict workload fails every operation as incorrect when one probability on
    # the seed-7 reference cloud moves by more than its PROB_TOLERANCE (1e-9).
    workloads = _load_bench("workloads")
    params = workloads.load_params()
    predicted, _ = trainer.predict(workloads.reference_cloud(workloads.DEFAULT_SEED), params,
                                   batch=workloads.PREDICT_BATCH, threads=1)
    reference = np.load(workloads.REFERENCE_PROBS)
    assert workloads.check_predictions(predicted.predictions, predicted.labels, reference) == []


def test_postprocess_passes_the_benchmark_checks(tmp_path):
    # The postprocess workload checks report.tp/fp/fn and seg.segment_ids/sizes/count
    # against its kd-tree and connected-components oracles, and reads report.fscore.
    workloads = _load_bench("workloads")
    workload = workloads.Postprocess()
    s = workload.inputs(workloads.DEFAULT_SEED, 500.0, tmp_path / "postprocess.xyz")
    failures, fscore = workload.check(s, workload.run(s))
    assert failures == []
    assert 0.0 <= fscore <= 1.0


def test_train_passes_the_benchmark_checks():
    workloads = _load_bench("workloads")
    cloud = workloads.reference_cloud(workloads.DEFAULT_SEED, workloads.DENSITY["train"][1])
    params, log = trainer.train(cloud, trainer.TrainConfig(**workloads.TRAIN_CONFIG), threads=1)
    assert workloads.check_training(params, log) == []


# Wrapped functions no workload reaches: evaluate computes the Chamfer
# distance and the match counts from its own nearest-distance passes.
UNREACHED = {"metrics.chamfer", "metrics.match_counts"}


def test_every_other_wrapped_span_is_reached(tmp_path):
    # A wrapped function that no operation calls reads 0 in its per-layer
    # metric on every workload; this fails as soon as one more stops being called.
    tracer_module, workloads = _load_bench("tracer"), _load_bench("workloads")
    tracer = tracer_module.Tracer()
    for name, workload in workloads.WORKLOADS.items():
        workload = workload()
        state = workload.setup(workloads.DEFAULT_SEED, True, tmp_path)
        with tracer.operation(name):
            workload.run(state)
    calls, _, _ = tracer.totals()
    assert {span for _, _, span, _ in tracer_module.WRAPPED if calls[span] == 0} == UNREACHED


def _count_calls(monkeypatch, owner, attr, counts):
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


@pytest.fixture(scope="module")
def small_cloud():
    return generate(ShapeSpec("box", density=200, seed=3)).cloud


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("batch", [7, 256, 1000])
def test_predict_extracts_and_forwards_once_per_window(small_cloud, monkeypatch, batch, threads):
    # The tracer's cloud.extract_calls and net.forward_calls count these wrapped
    # attributes: each work unit calls extract_patches once, and each 256-row
    # model window calls forward_batch once. The 1,200-point cloud runs as
    # units of 1,024 + 176 rows on one thread and 768 + 432 on two: 2 units
    # and 5 windows either way.
    counts = Counter()
    _count_calls(monkeypatch, trainer, "extract_patches", counts)
    _count_calls(monkeypatch, net, "forward_batch", counts)
    trainer.predict(small_cloud, net.init_params(8, seed=0), batch=batch, threads=threads)
    assert small_cloud.n == 1200
    assert counts == {"extract_patches": math.ceil(small_cloud.n / 1024),
                      "forward_batch": math.ceil(small_cloud.n / 256)}


@pytest.mark.parametrize("threads, sizes", [(1, [1024, 176]), (2, [768, 432]), (4, [512, 512, 176])])
def test_predict_units_give_every_worker_a_share(small_cloud, monkeypatch, threads, sizes):
    # Units of 256 * ceil(n / (threads * 256)) rows, at most 1,024.
    seen = []
    original = trainer.extract_patches

    def recorded(cloud, index, targets, k):
        seen.append(targets.size)
        return original(cloud, index, targets, k)

    monkeypatch.setattr(trainer, "extract_patches", recorded)
    trainer.predict(small_cloud, net.init_params(8, seed=0), threads=threads)
    assert sorted(seen, reverse=True) == sizes


def test_train_epoch_calls_do_not_depend_on_threads(small_cloud, monkeypatch):
    cfg = trainer.TrainConfig(k=8, max_epochs=1, seed=3, augment=False, val_fraction=0.4)
    seen = []
    for threads in (1, 2):
        counts = Counter()
        _count_calls(monkeypatch, net, "forward_batch", counts)
        _count_calls(monkeypatch, net, "backward", counts)
        trainer.train(small_cloud, cfg, threads=threads)
        monkeypatch.undo()
        seen.append(counts)
    assert seen[0] == seen[1]
    assert seen[0]["backward"] > 0
