"""Regenerate the fixed `predict` checkpoint and its reference outputs.

    python3 bench/make_checkpoint.py           # rewrite bench/data/*
    python3 bench/make_checkpoint.py --check   # regenerate and compare bytes

The checkpoint is trained on the seed-7 reference cloud with the acceptance
recipe at threads=1, which is bit-reproducible, so the regenerated file
matches the committed one byte for byte. The reference probabilities are
`predict` on the same cloud with that checkpoint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from pcedge import net, trainer  # noqa: E402
from workloads import (  # noqa: E402
    CHECKPOINT, CHECKPOINT_CONFIG, CHECKPOINT_RECORD, DATA_DIR, DEFAULT_SEED,
    REFERENCE_PROBS, reference_cloud,
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def regenerate(out_dir: Path) -> dict:
    """Train, save and predict into out_dir; return the record of what was made."""
    cloud = reference_cloud(DEFAULT_SEED)
    params, log = trainer.train(cloud, trainer.TrainConfig(**CHECKPOINT_CONFIG), threads=1)
    ckpt = out_dir / CHECKPOINT.name
    net.save_checkpoint(params, ckpt)
    predicted, _ = trainer.predict(cloud, net.load_checkpoint(ckpt), batch=256, threads=1)
    np.save(out_dir / REFERENCE_PROBS.name, predicted.predictions)
    return {
        "cloud": {"shape": "union_boxes", "density": 4000.0, "seed": DEFAULT_SEED, "points": cloud.n},
        "train_config": CHECKPOINT_CONFIG,
        "threads": 1,
        "epochs": [{k: row[k] for k in ("epoch", "mean_loss", "val_fscore")} for row in log],
        "checkpoint_sha256": _sha256(ckpt),
        "reference_probs_sha256": _sha256(out_dir / REFERENCE_PROBS.name),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory and compare with the committed files")
    args = parser.parse_args()
    if not args.check:
        record = regenerate(DATA_DIR)
        CHECKPOINT_RECORD.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(record, indent=2))
        return 0
    with tempfile.TemporaryDirectory(dir=DATA_DIR.parent) as tmp:
        record = regenerate(Path(tmp))
    committed = json.loads(CHECKPOINT_RECORD.read_text(encoding="utf-8"))
    same = all(record[key] == committed[key] and record[key] == _sha256(path) for key, path in (
        ("checkpoint_sha256", CHECKPOINT), ("reference_probs_sha256", REFERENCE_PROBS)))
    print("identical" if same else "DIFFERENT: regenerated files do not match the committed ones")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
