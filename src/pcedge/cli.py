"""Command-line interface wiring the one-shot edge-detection workflow.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Every failure prints a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import metrics, net, segment, synth, trainer
from .cloud import add_gaussian_noise, deduplicate, downsample
from .errors import InvalidInput, NumericalError, PcedgeError
from .io import load_cloud, save_cloud


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pcedge", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a labeled synthetic cloud",
                       description="Generate a labeled synthetic CAD-like cloud plus a metadata sidecar.")
    p.add_argument("--shape", required=True, choices=synth.SHAPE_KINDS)
    p.add_argument("--size", default=None,
                   help="comma-separated size parameters (shape-specific; defaults per shape)")
    p.add_argument("--density", type=float, default=4000.0, help="target points per unit area")
    p.add_argument("--tau", type=float, default=None, help="edge band half-width (default 1.5x spacing)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output cloud (.xyz or .ply)")
    p.add_argument("--meta", default=None, help="metadata CSV path (default <out>.meta.csv)")

    p = sub.add_parser("train", help="train on one labeled cloud",
                       description="One-shot training; writes a checkpoint and a CSV epoch log.")
    p.add_argument("--cloud", required=True)
    p.add_argument("--config", default=None, help="key = value file mirroring TrainConfig")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--log", default=None, help="epoch log CSV path")
    p.add_argument("--dedup", action="store_true", help="drop exact duplicate points first")

    p = sub.add_parser("predict", help="classify points of a cloud",
                       description="Predict edge probabilities; reports throughput (points/sec) on stderr.")
    p.add_argument("--cloud", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--threads", type=int, default=0,
                   help="worker threads (0 = available parallelism); every value gives the same bytes")
    p.add_argument("--out", required=True)
    p.add_argument("--dedup", action="store_true", help="drop exact duplicate points first")

    p = sub.add_parser("eval", help="compare predicted vs ground-truth edge sets",
                       description="Evaluate edge predictions; prints a JSON record and a table.")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", default=None, help="also write the JSON record here")

    p = sub.add_parser("segment", help="flood-fill surface segmentation",
                       description="Segment a labeled cloud into surfaces bounded by edge points.")
    p.add_argument("--cloud", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out", required=True)

    p = sub.add_parser("perturb", help="add noise or downsample",
                       description="Robustness perturbations: Gaussian noise or random downsampling.")
    p.add_argument("--cloud", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--noise", type=float, default=None,
                       help="noise std as a ratio of the mean 16-NN distance")
    group.add_argument("--keep", type=float, default=None, help="downsample keep ratio in (0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("info", help="inspect a checkpoint",
                       description="Print k, heads, tensor shapes, and the total parameter count.")
    p.add_argument("--checkpoint", required=True)
    return parser


def _cmd_synth(args) -> int:
    try:
        size = tuple(float(v) for v in args.size.split(",")) if args.size else ()
    except ValueError as exc:
        raise InvalidInput(f"--size must be comma-separated numbers, got {args.size!r}") from exc
    spec = synth.ShapeSpec(kind=args.shape, size=size, density=args.density,
                           tau=args.tau, seed=args.seed)
    result = synth.generate(spec)
    save_cloud(result.cloud, args.out)
    meta = args.meta or f"{args.out}.meta.csv"
    synth.write_metadata(result, meta)
    print(f"wrote {result.cloud.n} points ({int(result.cloud.labels.sum())} edge) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = trainer.parse_config(args.config) if args.config else trainer.TrainConfig()
    cloud = load_cloud(args.cloud)
    if args.dedup:
        cloud = deduplicate(cloud)
    params, log = trainer.train(cloud, cfg)
    net.save_checkpoint(params, args.out_checkpoint)
    if args.log:
        trainer.write_log(log, args.log)
    best = max(log, key=lambda row: row["val_fscore"])
    print(f"trained {len(log)} epochs; best val F-score {best['val_fscore']:.4f} "
          f"(epoch {best['epoch']}); checkpoint: {args.out_checkpoint}")
    return 0


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_predict(args) -> int:
    if args.threads < 0:
        raise InvalidInput(f"--threads must be >= 0 (0 = available parallelism), got {args.threads}")
    params = net.load_checkpoint(args.checkpoint)
    cloud = load_cloud(args.cloud)
    if args.dedup:
        cloud = deduplicate(cloud)
    threads = args.threads or _available_cpus()
    predicted, stats = trainer.predict(cloud, params, threads=threads)
    save_cloud(predicted, args.out)
    print(f"throughput: {stats['pps']:.0f} points/sec end to end "
          f"({stats['wall_seconds']:.3f}s for {cloud.n} points; "
          f"model {stats['model_seconds']:.3f}s summed over windows)",
          file=sys.stderr)
    print(f"predicted {int(predicted.labels.sum())} edge points of {cloud.n}; wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    report = metrics.evaluate(load_cloud(args.pred), load_cloud(args.gt))
    print(report.to_json())
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _cmd_segment(args) -> int:
    cloud = load_cloud(args.cloud)
    result = segment.flood_segment(cloud, k=args.k)
    save_cloud(cloud, args.out, segments=result.segment_ids)
    print(f"{result.count} segments; sizes: {result.sizes}")
    return 0


def _cmd_perturb(args) -> int:
    cloud = load_cloud(args.cloud)
    if args.noise is not None:
        out = add_gaussian_noise(cloud, args.noise, args.seed)
    else:
        out = downsample(cloud, args.keep, args.seed)
    save_cloud(out, args.out)
    print(f"wrote {out.n} points to {args.out}")
    return 0


def _cmd_info(args) -> int:
    params = net.load_checkpoint(args.checkpoint)
    print(f"checkpoint: {args.checkpoint}")
    print(f"k: {params.k}")
    print(f"heads: {net.HEADS}")
    print(f"tensors: {len(params.tensors)}")
    for name, t in params.tensors.items():
        print(f"  {name}  {'x'.join(map(str, t.shape))}")
    print(f"total parameters: {params.param_count()}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "segment": _cmd_segment,
    "perturb": _cmd_perturb,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"pcedge {args.command}: numerical error: {exc}", file=sys.stderr)
        return 3
    except (PcedgeError, OSError) as exc:
        print(f"pcedge {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
