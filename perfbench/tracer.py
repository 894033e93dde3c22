"""Per-layer tracing from outside the program.

The traced run replaces each public function, as its caller looks it up
(``hatenet.ensemble.preprocess``, ``hatenet.model.conv1d``,
``hatenet.autograd.Tensor.backward``, ...), with a wrapper that records a
span: name, start, end, parent span and phase.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its span minus its
child spans.  A name that the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from statistics import median

import numpy as np

RUN = "run"

# (metric prefix, module path, attribute path) for every wrapped name
TARGETS = (
    ("text.preprocess", "hatenet.ensemble", "preprocess"),
    ("text.preprocess", "hatenet.weaksup", "preprocess"),
    ("embeddings.embed", "hatenet.ensemble", "embed"),
    ("embeddings.load_table", "hatenet", "load_table"),
    ("corpus.load", "hatenet.corpus", "load_hon"),
    ("corpus.load", "hatenet.corpus", "load_unlabeled"),
    ("corpus.load", "hatenet.corpus", "load_labeled_lines"),
    ("model.forward", "hatenet.ensemble", "forward"),
    ("autograd.conv1d", "hatenet.model", "conv1d"),
    ("autograd.maxpool1d", "hatenet.model", "maxpool1d"),
    ("autograd.global_maxpool", "hatenet.model", "global_maxpool"),
    ("layers.gru", "hatenet.model", "gru_forward"),
    ("layers.lstm", "hatenet.model", "lstm_forward"),
    ("layers.fc", "hatenet.model", "fc_forward"),
    ("layers.cross_entropy", "hatenet.ensemble", "cross_entropy"),
    ("autograd.backward", "hatenet.autograd", "Tensor.backward"),
    ("optim.adam_step", "hatenet.optim", "Adam.step"),
    ("weaksup.count_lexicon", "hatenet.ensemble", "count_lexicon"),
    ("weaksup.compute_bounds", "hatenet.ensemble", "compute_bounds"),
    ("weaksup.weak_loss", "hatenet.ensemble", "weak_loss"),
    ("ensemble.load_bundle", "hatenet", "load_bundle"),
    ("ensemble.predict", "hatenet", "predict"),
    ("ensemble.predict", "hatenet.ensemble", "predict"),
)

# per-layer metric -> unit; "/round" values are totals over the timed
# rounds divided by the number of rounds
UNITS = {
    "text.preprocess_ms": "ms/round",
    "text.preprocess_calls": "calls/round",
    "text.preprocess_calls_per_post": "calls/post",
    "embeddings.load_table_s": "s",
    "embeddings.embed_ms": "ms/round",
    "embeddings.embed_calls": "calls/round",
    "corpus.load_s": "s",
    "model.forward_ms": "ms/round",
    "model.forward_calls": "calls/round",
    "autograd.conv1d_fwd_ms": "ms/round",
    "autograd.conv1d_bwd_ms": "ms/round",
    "autograd.maxpool1d_fwd_ms": "ms/round",
    "autograd.global_maxpool_fwd_ms": "ms/round",
    "layers.gru_fwd_ms": "ms/round",
    "layers.lstm_fwd_ms": "ms/round",
    "layers.fc_fwd_ms": "ms/round",
    "layers.cross_entropy_ms": "ms/round",
    "autograd.backward_ms": "ms/round",
    "autograd.backward_calls": "calls/round",
    "autograd.graph_nodes_per_post": "nodes/post",
    "autograd.gc_ms": "ms/round",
    "autograd.gc_collected": "objects/round",
    "optim.adam_step_ms": "ms/round",
    "optim.adam_step_calls": "calls/round",
    "weaksup.count_lexicon_ms": "ms/round",
    "weaksup.compute_bounds_ms": "ms/round",
    "weaksup.weak_loss_ms": "ms/round",
    "ensemble.load_bundle_ms": "ms",
    "ensemble.predict_p50_ms": "ms",
    "ensemble.predict_p90_ms": "ms",
}


def _resolve(module_path: str, attr_path: str):
    import importlib

    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _count_graph(root) -> int:
    """Nodes reachable from ``root`` through the parents recorded on each."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.phase = None            # spans are recorded only while set
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.graph_nodes = 0
        self.train_forwards = 0
        self.gc_ms = 0.0
        self.gc_collected = 0
        self._gc_start = None

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.phase]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _before_forward(self, args, kwargs):
        if kwargs.get("train", args[3] if len(args) > 3 else False):
            self.train_forwards += 1

    def _before_backward(self, args, kwargs):
        if self.phase == RUN:
            self.graph_nodes += _count_graph(args[0])

    def _after_conv1d(self, out):
        backward = getattr(out, "_backward", None)
        if backward is not None:
            out._backward = self.wrap("autograd.conv1d_bwd", backward)

    def _on_gc(self, phase, info):
        if self.phase != RUN:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_ms += (time.perf_counter() - self._gc_start) * 1e3
            self.gc_collected += info.get("collected", 0)
            self._gc_start = None

    def install(self) -> None:
        hooks = {
            "model.forward": {"before": self._before_forward},
            "autograd.backward": {"before": self._before_backward},
            "autograd.conv1d": {"after": self._after_conv1d},
        }
        for name, module_path, attr_path in TARGETS:
            try:
                owner, attr = _resolve(module_path, attr_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_path}.{attr_path}")
                continue
            setattr(owner, attr, self.wrap(name, original, **hooks.get(name, {})))
            self._patches.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps([name, start, end, parent, phase]) + "\n")

    # -- per-layer metrics ---------------------------------------------------

    def metrics(self, rounds: int, distinct_posts: int) -> dict[str, float]:
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        setup: dict[tuple, float] = {}
        predict_ms = []
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            if phase != RUN:
                setup[(name, phase)] = setup.get((name, phase), 0.0) + end - start
                continue
            own = end - start
            if name in ("model.forward", "autograd.backward"):
                own -= child_time[i]  # self time
            if name == "ensemble.predict":
                predict_ms.append((end - start) * 1e3)
            total[name] = total.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1

        def per_round_ms(name):
            return total.get(name, 0.0) * 1e3 / rounds

        def setup_median(name):
            phases = {phase for _, _, _, _, phase in self.spans if phase != RUN}
            return median(setup.get((name, p), 0.0) for p in phases) if phases else 0.0

        out = {
            "text.preprocess_ms": per_round_ms("text.preprocess"),
            "text.preprocess_calls": calls.get("text.preprocess", 0) / rounds,
            "text.preprocess_calls_per_post":
                calls.get("text.preprocess", 0) / rounds / distinct_posts,
            "embeddings.load_table_s": setup_median("embeddings.load_table"),
            "embeddings.embed_ms": per_round_ms("embeddings.embed"),
            "embeddings.embed_calls": calls.get("embeddings.embed", 0) / rounds,
            "corpus.load_s": setup_median("corpus.load"),
            "model.forward_ms": per_round_ms("model.forward"),
            "model.forward_calls": calls.get("model.forward", 0) / rounds,
            "autograd.conv1d_fwd_ms": per_round_ms("autograd.conv1d"),
            "autograd.conv1d_bwd_ms": per_round_ms("autograd.conv1d_bwd"),
            "autograd.maxpool1d_fwd_ms": per_round_ms("autograd.maxpool1d"),
            "autograd.global_maxpool_fwd_ms": per_round_ms("autograd.global_maxpool"),
            "layers.gru_fwd_ms": per_round_ms("layers.gru"),
            "layers.lstm_fwd_ms": per_round_ms("layers.lstm"),
            "layers.fc_fwd_ms": per_round_ms("layers.fc"),
            "layers.cross_entropy_ms": per_round_ms("layers.cross_entropy"),
            "autograd.backward_ms": per_round_ms("autograd.backward"),
            "autograd.backward_calls": calls.get("autograd.backward", 0) / rounds,
            "autograd.graph_nodes_per_post":
                self.graph_nodes / self.train_forwards if self.train_forwards else 0.0,
            "autograd.gc_ms": self.gc_ms / rounds,
            "autograd.gc_collected": self.gc_collected / rounds,
            "optim.adam_step_ms": per_round_ms("optim.adam_step"),
            "optim.adam_step_calls": calls.get("optim.adam_step", 0) / rounds,
            "weaksup.count_lexicon_ms": per_round_ms("weaksup.count_lexicon"),
            "weaksup.compute_bounds_ms": per_round_ms("weaksup.compute_bounds"),
            "weaksup.weak_loss_ms": per_round_ms("weaksup.weak_loss"),
            "ensemble.load_bundle_ms": setup_median("ensemble.load_bundle") * 1e3,
            "ensemble.predict_p50_ms":
                float(np.percentile(predict_ms, 50)) if predict_ms else 0.0,
            "ensemble.predict_p90_ms":
                float(np.percentile(predict_ms, 90)) if predict_ms else 0.0,
        }
        return out
