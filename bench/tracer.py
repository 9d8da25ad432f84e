"""Spans and counts recorded from outside the program.

For each traced operation the tracer replaces public functions of pcedge,
at the module attribute the program looks them up by, with wrappers that
record a span (id, operation, name, start, end, parent) and a work count in
memory; the originals are put back when the operation ends, so output checks
run untraced. Nothing inside `src/` changes.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from pcedge import cloud, io, metrics, net, segment, trainer


def _rows(arg_pos):
    return lambda args, kwargs, result: len(args[arg_pos])


def _file_bytes(arg_pos):
    return lambda args, kwargs, result: os.path.getsize(args[arg_pos])


# (owner, attribute, span name, counter or None). The counter returns the
# work one call did: rows, patches or bytes.
WRAPPED = (
    (trainer, "build_index", "trainer.build_index", None),
    (trainer, "extract_patches", "trainer.extract_patches", _rows(2)),
    (trainer, "build_dataset", "trainer.build_dataset", None),
    (trainer, "adam_step", "trainer.adam_step", None),
    (trainer, "bce_loss", "trainer.bce_loss", None),
    (net, "forward_batch", "net.forward_batch", _rows(0)),
    (net, "backward", "net.backward", _rows(2)),
    (cloud.SpatialIndex, "query_many", "SpatialIndex.query_many", _rows(1)),
    (metrics, "build_index", "metrics.build_index", None),
    (metrics, "chamfer", "metrics.chamfer", None),
    (metrics, "match_counts", "metrics.match_counts", None),
    (segment, "build_index", "segment.build_index", None),
    (segment, "knn_graph", "segment.knn_graph", None),
    (io, "load_cloud", "io.load_cloud", _file_bytes(0)),
    (io, "save_cloud", "io.save_cloud", _file_bytes(1)),
    # Entry points the benchmark itself calls; they root the spans above.
    (trainer, "predict", "trainer.predict", None),
    (trainer, "train", "trainer.train", None),
    (metrics, "evaluate", "metrics.evaluate", None),
    (segment, "flood_segment", "segment.flood_segment", lambda args, kwargs, result: result.count),
)


class Tracer:
    """Records nested spans of one single-threaded caller."""

    def __init__(self):
        self.spans: list[dict] = []
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def operation(self, name: str):
        """Trace one operation: wrap the program, open its root span, unwrap."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in WRAPPED]
        for (owner, attr, original), (_, _, span_name, counter) in zip(originals, WRAPPED):
            setattr(owner, attr, self._wrap(original, span_name, counter))
        self._op += 1
        try:
            with self.span(f"op:{name}"):
                yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.work[name] += counter(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {"id": sid, "op": self._op, "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
        for s in self.spans:
            dur = s["end"] - s["start"]
            calls[s["name"]] += 1
            total[s["name"]] += dur
            own[s["name"]] += dur - child[s["id"]]
        return calls, total, own


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from the recorded spans.

    `_s` is self time: a span minus the time its child spans cover.
    """
    calls, total, own = tracer.totals()
    work = tracer.work

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    build_index = ("trainer.build_index", "metrics.build_index", "segment.build_index")
    roots = [name for name in calls if name.startswith("op:")]
    wall = sum(total[name] for name in roots) - total["calibrate"]
    out = {
        "cloud.extract_s": (own["trainer.extract_patches"] / ops, "s"),
        "cloud.extract_patches_per_s": (rate(work["trainer.extract_patches"],
                                             total["trainer.extract_patches"]), "patches/s"),
        "cloud.extract_calls": (calls["trainer.extract_patches"] / ops, "count"),
        "cloud.query_s": (own["SpatialIndex.query_many"] / ops, "s"),
        "cloud.query_rows": (work["SpatialIndex.query_many"] / ops, "count"),
        "cloud.build_index_s": (sum(own[n] for n in build_index) / ops, "s"),
        "cloud.build_index_calls": (sum(calls[n] for n in build_index) / ops, "count"),
        "net.forward_s": (own["net.forward_batch"] / ops, "s"),
        "net.forward_patches_per_s": (rate(work["net.forward_batch"],
                                           total["net.forward_batch"]), "patches/s"),
        "net.forward_calls": (calls["net.forward_batch"] / ops, "count"),
        "net.backward_s": (own["net.backward"] / ops, "s"),
        "net.backward_patches_per_s": (rate(work["net.backward"], total["net.backward"]), "patches/s"),
        "trainer.build_dataset_s": (own["trainer.build_dataset"] / ops, "s"),
        "trainer.adam_s": (own["trainer.adam_step"] / ops, "s"),
        "trainer.adam_calls": (calls["trainer.adam_step"] / ops, "count"),
        "trainer.bce_s": (own["trainer.bce_loss"] / ops, "s"),
        "trainer.self_s": ((own["trainer.predict"] + own["trainer.train"]) / ops, "s"),
        "metrics.evaluate_s": (own["metrics.evaluate"] / ops, "s"),
        "metrics.chamfer_s": (own["metrics.chamfer"] / ops, "s"),
        "metrics.match_counts_s": (own["metrics.match_counts"] / ops, "s"),
        "metrics.kdtree_builds": (calls["metrics.build_index"] / ops, "count"),
        "segment.knn_graph_s": (own["segment.knn_graph"] / ops, "s"),
        "segment.flood_s": (own["segment.flood_segment"] / ops, "s"),
        "segment.count": (work["segment.flood_segment"] / ops, "count"),
        "io.read_s": (own["io.load_cloud"] / ops, "s"),
        "io.write_s": (own["io.save_cloud"] / ops, "s"),
        "io.read_bytes": (work["io.load_cloud"] / ops, "bytes"),
        "io.write_bytes": (work["io.save_cloud"] / ops, "bytes"),
        # Share of the operations' wall time spent inside the program's
        # public functions rather than in their callers' own code.
        "trace.layer_share": (1.0 - (own["trainer.predict"] + own["trainer.train"]
                                     + sum(own[n] for n in roots)) / wall if wall else 0.0, "ratio"),
    }
    return out
